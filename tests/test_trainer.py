"""Training loop, embedding composition, scoring and EER behavior."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocsv import diffcore as dc
from adhocsv import trainer
from adhocsv.chansel import ChannelBudgetError
from adhocsv.diffcore import Parameter, ParamSet, Tensor
from adhocsv.graphs import adjacency_from_mask, build_complete, build_knn, compose_prior
from adhocsv.scenesim import FrameTensor, SimConfig, make_codebook, sample_scene, synth_features
from adhocsv.stagg import GraphSpec, load_checkpoint, save_checkpoint, st_stack
from adhocsv.trainer import (
    DegenerateTaskError,
    MissingPriorError,
    Model,
    ModelConfig,
    ProtocolError,
    SelectionConfig,
    TrainHyper,
    Trial,
    TrialSet,
    Utterance,
    _forward,
    compute_eer,
    cosine_score,
    eer_from_scores,
    embed,
    embed_with_info,
    eval_per_node,
    evaluate,
    generate_trials,
    load_model,
    model_config_from_json,
    model_config_to_json,
    read_trials_csv,
    save_model,
    subsample_channels,
    train_second_stage,
    write_trials_csv,
)


def sweep_eer_oracle(tar, non):
    """Brute-force operating-point sweep with the same interpolation rule."""
    tar, non = list(tar), list(non)
    cands = sorted(set(tar) | set(non))
    cands.append(cands[-1] + 1.0)
    ops = []
    for th in cands:
        far = sum(1 for s in non if s >= th) / len(non)
        frr = sum(1 for s in tar if s < th) / len(tar)
        ops.append((th, far, frr))
    for (th1, far1, frr1), (th2, far2, frr2) in zip(ops, ops[1:]):
        d2 = far2 - frr2
        if far1 - frr1 == 0.0:
            return far1, th1
        if d2 <= 0.0:
            if d2 == 0.0 and far2 - frr2 == 0.0:
                pass
            d1 = far1 - frr1
            t = d1 / (d1 - d2)
            return far1 + t * (far2 - far1), th1 + t * (th2 - th1)
    raise AssertionError("no crossing found")


SEED_CHECKPOINT = Path(__file__).parent / "data" / "seed_gcn_gpool.ckpt"
SEED_EMBEDDING = np.array([
    0.0335410289825484, -0.010554743908178517, 0.019718635200737352, 0.11365693349580103,
    -0.012693176372146397, -0.012267316453707183, -0.03699145546461838, 0.04944154501705522])


def toy_dataset(n_speakers=2, per_speaker=8, c=4, t=10, d=16, noise=0.05, seed=0):
    """Well-separated synthetic utterances (no geometry needed)."""
    rng = np.random.default_rng(seed)
    codebook = make_codebook(n_speakers, d, seed=seed + 100)
    utts = []
    for spk in range(n_speakers):
        for i in range(per_speaker):
            data = codebook[spk] + noise * rng.standard_normal((c, t, d))
            utts.append(Utterance(utt_id=f"u{spk}_{i}", speaker=spk,
                                  features=FrameTensor(data)))
    return utts


class TestEer:
    def test_separable(self):
        eer, _ = eer_from_scores([0.9, 0.8], [0.2, 0.1])
        assert eer == 0.0

    def test_inverted(self):
        eer, _ = eer_from_scores([0.1], [0.9])
        assert eer == 1.0

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tar = rng.normal(0.5, 0.3, size=50)
            non = rng.normal(0.0, 0.3, size=50)
            eer, th = eer_from_scores(tar, non)
            oracle_eer, oracle_th = sweep_eer_oracle(tar, non)
            assert abs(eer - oracle_eer) < 1e-9
            assert abs(th - oracle_th) < 1e-9

    def test_ties_and_duplicates(self):
        eer, _ = eer_from_scores([0.5, 0.5, 0.7], [0.5, 0.3])
        oracle, _ = sweep_eer_oracle([0.5, 0.5, 0.7], [0.5, 0.3])
        assert abs(eer - oracle) < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from(["affine", "exp", "cube"]))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_monotone_transforms(self, seed, kind):
        rng = np.random.default_rng(seed)
        tar = rng.normal(0.4, 0.4, size=20)
        non = rng.normal(-0.1, 0.4, size=25)
        transform = {
            "affine": lambda s: 3.0 * s + 1.0,
            "exp": np.exp,
            "cube": lambda s: s ** 3,
        }[kind]
        base, _ = eer_from_scores(tar, non)
        mapped, _ = eer_from_scores(transform(tar), transform(non))
        assert abs(base - mapped) < 1e-12

    def test_missing_class_rejected(self):
        with pytest.raises(ProtocolError):
            eer_from_scores([], [0.1])
        with pytest.raises(ProtocolError):
            eer_from_scores([0.1], [])

    def test_compute_eer_from_trialset(self):
        trials = TrialSet([
            Trial("a", "b", "target"),
            Trial("a", "c", "nontarget"),
        ]).with_scores([0.9, 0.1])
        eer, _ = compute_eer(trials)
        assert eer == 0.0


class TestCosine:
    def test_identical(self):
        assert cosine_score([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_score([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert abs(cosine_score([1.0, 1.0], [1.0, 0.0]) - 0.7071068) < 1e-7

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            cosine_score([0.0, 0.0], [1.0, 0.0])

    def test_rows_score_like_single_pairs(self):
        rng = np.random.default_rng(50)
        a, b = rng.standard_normal((2, 3, 4, 8))
        rows = cosine_score(a, b)
        assert rows.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            assert abs(rows[i, j] - cosine_score(a[i, j], b[i, j])) <= 1e-15
        a[1, 2] = 0.0
        with pytest.raises(ValueError, match="zero embedding"):
            cosine_score(a, b)


class TestEmbed:
    def test_mean_baseline_on_constant_tensor(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        x = FrameTensor(np.tile(v, (3, 5, 1)))
        model = Model.init(ModelConfig(mechanism="mean", d=4), n_speakers=2)
        assert np.allclose(embed(model, x), v, atol=1e-12)

    def test_selection_none_equals_all_true_prior_select(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 8))
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8, seed=3)
        model = Model.init(cfg, n_speakers=2)
        via_embed = embed(model, FrameTensor(x))
        z = st_stack(Tensor(x[None]), model.blocks, build_complete(5), np.ones((1, 4, 4), bool))
        via_mask = z.data[0].mean(axis=(0, 1))
        assert np.allclose(via_embed, via_mask, atol=1e-12)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 8))
        cfg = ModelConfig(mechanism="sam", n_blocks=2, heads=2, d=8, seed=4)
        model = Model.init(cfg, n_speakers=2)
        z = st_stack(Tensor(x[None]), model.blocks, build_complete(4), np.ones((1, 3, 3), bool))
        manual = z.data[0].mean(axis=(0, 1))
        assert np.allclose(embed(model, FrameTensor(x)), manual, atol=1e-12)

    def test_channel_permutation_invariance_with_complete_graph(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4, 8))
        cfg = ModelConfig(mechanism="gcn", n_blocks=2, heads=2, d=8, seed=5)
        model = Model.init(cfg, n_speakers=2)
        base = embed(model, FrameTensor(x))
        perm = rng.permutation(5)
        permuted = embed(model, FrameTensor(x[perm]))
        assert np.max(np.abs(base - permuted)) < 1e-10

    def test_prior_without_scene_raises(self):
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                          selection=SelectionConfig(kind="prior", rho=0.6), seed=6)
        model = Model.init(cfg, n_speakers=2)
        with pytest.raises(MissingPriorError):
            embed(model, FrameTensor(np.zeros((2, 3, 8))))

    def test_prior_selection_uses_mask(self):
        rng = np.random.default_rng(7)
        scene = sample_scene(rng, SimConfig(n_nodes=6, d=8, t=3))
        x = rng.standard_normal((6, 3, 8))
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                          selection=SelectionConfig(kind="prior", rho=0.6), seed=7)
        model = Model.init(cfg, n_speakers=2)
        _, info = embed_with_info(model, FrameTensor(x), scene)
        assert info["mechanism"] == "prior"
        d = np.linalg.norm(scene.node_pos - scene.speaker_pos, axis=1)
        expected = {i for i in range(6) if d[i] / d.max() < 0.6} or {int(np.argmin(d))}
        assert set(info["selected_indices"]) == expected

    def test_gpool_selection_defaults_to_half(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 3, 8))
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                          selection=SelectionConfig(kind="gpool"), seed=8)
        model = Model.init(cfg, n_speakers=2)
        _, info = embed_with_info(model, FrameTensor(x))
        assert len(info["selected_indices"]) == 3  # ceil(5 / 2)
        assert info["gates"] is not None and len(info["gates"]) == 3

    def test_gpool_budget_over_channel_count_rejected(self):
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                          selection=SelectionConfig(kind="gpool", k=4), seed=9)
        model = Model.init(cfg, n_speakers=2)
        with pytest.raises(ChannelBudgetError, match=r"k=4 .* C=2"):
            embed(model, FrameTensor(np.zeros((2, 3, 8))))
        data = toy_dataset(c=3, d=8)
        with pytest.raises(ChannelBudgetError, match=r"k=4 .* C=3"):
            train_second_stage(data, cfg, TrainHyper(epochs=1))

    def test_mean_with_selection_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(mechanism="mean", selection=SelectionConfig(kind="gpool"))

    def test_knn_temporal_graph_rejected(self):
        with pytest.raises(ValueError, match="temporal"):
            ModelConfig(temporal_graph=GraphSpec(kind="knn"))


PARITY_CASES = [(m, s, g) for m in ("sam", "gcn") for s in ("none", "prior", "gpool")
                for g in ("complete", "span")] + [("mean", "none", "complete")]


@pytest.mark.parametrize("mechanism,selection,temporal", PARITY_CASES)
def test_batch_forward_matches_each_utterance_alone(mechanism, selection, temporal):
    rng = np.random.default_rng(30)
    b, c, t, d = 4, 5, 6, 8
    sim = SimConfig(n_nodes=c, t=t, d=d)
    scenes = [sample_scene(rng, sim) for _ in range(b)]
    xs = rng.standard_normal((b, c, t, d))
    cfg = ModelConfig(mechanism=mechanism, n_blocks=2, heads=2, d=d,
                      selection=SelectionConfig(kind=selection),
                      temporal_graph=GraphSpec(kind=temporal, delta=1), seed=31)
    model = Model.init(cfg, n_speakers=2)
    embs, infos = _forward(model, xs, scenes)
    assert embs.shape == (b, d)
    for i in range(b):
        alone, info = embed_with_info(model, FrameTensor(xs[i]), scenes[i])
        assert np.max(np.abs(embs.data[i] - alone)) <= 1e-12
        assert infos[i]["mechanism"] == info["mechanism"]
        assert infos[i]["selected_indices"] == info["selected_indices"]
        if info["gates"] is None:
            assert infos[i]["gates"] is None
        else:
            assert np.max(np.abs(np.subtract(infos[i]["gates"], info["gates"]))) <= 1e-12


def test_batched_prior_pooling_matches_per_utterance_reference():
    rng = np.random.default_rng(32)
    b, c, t, d = 4, 6, 3, 8
    sim = SimConfig(n_nodes=c, t=t, d=d)
    scenes = [sample_scene(rng, sim) for _ in range(b)]
    xs = rng.standard_normal((b, c, t, d))
    cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=d,
                      selection=SelectionConfig(kind="prior", rho=0.7), seed=32)
    model = Model.init(cfg, n_speakers=2)
    embs, infos = _forward(model, xs, scenes)
    masks = [compose_prior(scene, 0.7) for scene in scenes]
    z = st_stack(Tensor(xs), model.blocks, build_complete(t),
                 np.stack([adjacency_from_mask(mask) for mask in masks])).data
    for i, mask in enumerate(masks):
        assert infos[i]["selected_indices"] == np.flatnonzero(mask).tolist()
        reference = z[i][mask].mean(axis=(0, 1))
        assert np.max(np.abs(embs.data[i] - reference)) <= 1e-12


@pytest.mark.parametrize("spatial", [GraphSpec(), GraphSpec("knn", k=2)], ids=lambda g: g.kind)
def test_prior_masks_the_configured_spatial_graph(spatial):
    # The prior ANDs the configured graph with the clique over its channels;
    # on a complete graph that is the clique itself.
    rng = np.random.default_rng(42)
    scene = sample_scene(rng, SimConfig(n_nodes=8))
    cfg = ModelConfig(n_blocks=1, heads=2, d=8, spatial_graph=spatial,
                      selection=SelectionConfig(kind="prior", rho=0.7))
    entries, mask = trainer._spatial_adjacency(Model.init(cfg, n_speakers=2), 8, scene)
    s = compose_prior(scene, 0.7)
    assert np.array_equal(mask, s)
    clique = np.outer(s, s) | np.eye(8, dtype=bool)
    if spatial.kind == "complete":
        assert np.array_equal(entries, clique)
    else:
        knn = build_knn(scene.node_pos, 2)
        assert np.array_equal(entries, knn & np.outer(s, s) | np.eye(8, dtype=bool))
        assert not np.array_equal(entries, clique)


def test_knn_with_k_over_channel_count_links_every_channel():
    # knn links each channel to its min(k, C - 1) nearest, so k=4 over 3 channels is complete.
    rng = np.random.default_rng(44)
    scene = sample_scene(rng, SimConfig(n_nodes=3))
    x = FrameTensor(rng.standard_normal((3, 4, 8)))
    knn = Model.init(ModelConfig(n_blocks=1, heads=2, d=8, spatial_graph=GraphSpec("knn", k=4)),
                     n_speakers=2)
    complete = Model.init(ModelConfig(n_blocks=1, heads=2, d=8), n_speakers=2)
    assert np.array_equal(embed(knn, x, scene), embed(complete, x, scene))


def test_noise_prior_needs_a_noise_source():
    scene = sample_scene(np.random.default_rng(43), SimConfig(n_nodes=4, with_noise_source=False))
    cfg = ModelConfig(n_blocks=1, heads=2, d=8,
                      selection=SelectionConfig(kind="prior", noise=True))
    with pytest.raises(MissingPriorError, match="noise source"):
        embed(Model.init(cfg, n_speakers=2), FrameTensor(np.ones((4, 3, 8))), scene)


def test_noise_threshold_checked_when_noise_is_on():
    with pytest.raises(ValueError, match="rho_noise must lie in"):
        SelectionConfig(kind="prior", noise=True, rho_noise=5.0)
    with pytest.raises(ValueError, match="rho_noise must lie in"):
        SelectionConfig(kind="prior", noise=True, rho_noise=0.0)
    assert SelectionConfig(kind="prior", rho_noise=5.0).rho_noise == 5.0  # unused while off


@pytest.mark.parametrize("selection", ["none", "prior", "gpool"])
def test_equal_frame_counts_take_the_unpadded_path_bit_for_bit(selection):
    rng = np.random.default_rng(33)
    b, c, t, d = 3, 5, 12, 8
    sim = SimConfig(n_nodes=c, t=t, d=d)
    scenes = [sample_scene(rng, sim) for _ in range(b)]
    xs = rng.standard_normal((b, c, t, d))
    cfg = ModelConfig(mechanism="gcn", n_blocks=2, heads=2, d=d,
                      selection=SelectionConfig(kind=selection),
                      temporal_graph=GraphSpec(kind="span", delta=1), seed=33)
    model = Model.init(cfg, n_speakers=2)
    # frames=None means every frame is valid: the same path as [t] * b.
    shared, shared_infos = _forward(model, xs, scenes)
    counted, counted_infos = _forward(model, xs, scenes, [t] * b)
    assert counted.data.tobytes() == shared.data.tobytes()
    assert counted_infos == shared_infos


def test_forward_rejects_bad_frame_counts():
    model = Model.init(ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8), n_speakers=2)
    xs = np.zeros((2, 3, 4, 8))
    for frames in ([4], [0, 4], [4, 5]):
        with pytest.raises(dc.ShapeError):
            _forward(model, xs, [None, None], frames)


def ragged_utterances(shapes, d=8, n_speakers=3, seed=34):
    """Utterances with the given (channels, frames), scenes and cycling speakers."""
    rng = np.random.default_rng(seed)
    codebook = make_codebook(n_speakers, d, seed=seed)
    utts = {}
    for i, (c, t) in enumerate(shapes):
        sim = SimConfig(n_nodes=c, t=t, d=d, n_speakers=n_speakers, snr_range_db=(-5.0, 5.0))
        scene = sample_scene(rng, sim)
        utts[f"r{i}"] = Utterance(f"r{i}", i % n_speakers,
                                  synth_features(scene, i % n_speakers, codebook, rng, sim), scene)
    return utts


def all_pair_trials(utts):
    ids = sorted(utts)
    return TrialSet([Trial(a, b, "target" if utts[a].speaker == utts[b].speaker else "nontarget")
                     for i, a in enumerate(ids) for b in ids[i + 1:]])


# Ragged channel and frame counts, C = 1 and T = 1 among them.  Channel
# groups of 1, 3 and 4 hold several frame counts each.
RAGGED_SHAPES = [(4, 12), (4, 1), (4, 7), (4, 12), (1, 5), (1, 1), (1, 9), (3, 2), (3, 10),
                 (3, 6), (2, 3)]


# Padding filled with zeros and with unit normal noise: the stack maps zero
# padding to zeros, so an unmasked frame mean passes with zeros only.  The
# zero fill keeps the parity cases' ids.
PADDING_CASES = [pytest.param(*case, fill, id="-".join(case + (() if fill == "zeros" else (fill,))))
                 for case in PARITY_CASES for fill in ("zeros", "noise")]


@pytest.mark.parametrize("mechanism,selection,temporal,fill", PADDING_CASES)
def test_padded_batch_matches_each_utterance_alone(mechanism, selection, temporal, fill):
    cfg = ModelConfig(mechanism=mechanism, n_blocks=2, heads=2, d=8,
                      selection=SelectionConfig(kind=selection),
                      temporal_graph=GraphSpec(kind=temporal, delta=1), seed=35)
    model = Model.init(cfg, n_speakers=3)
    utts = ragged_utterances(RAGGED_SHAPES)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # prior fallbacks on one- and two-channel arrays
        alone = {k: embed_with_info(model, u.features, u.scene) for k, u in utts.items()}
        # One padded batch per channel count, through the forward pass itself.
        for c in sorted({u.features.c for u in utts.values()}):
            group = [k for k, u in utts.items() if u.features.c == c]
            frames = [utts[k].features.t for k in group]
            x = np.zeros((len(group), c, max(frames), 8))
            if fill == "noise":
                x = np.random.default_rng(c).standard_normal(x.shape)
            for i, k in enumerate(group):
                x[i, :, :frames[i]] = utts[k].features.data
            embs, infos = _forward(model, x, [utts[k].scene for k in group], frames)
            for i, k in enumerate(group):
                assert np.max(np.abs(embs.data[i] - alone[k][0])) <= 1e-12
                assert infos[i]["selected_indices"] == alone[k][1]["selected_indices"]
        trials = all_pair_trials(utts)
        report = evaluate(model, utts, trials)
    expected = [cosine_score(alone[t.enroll_id][0], alone[t.test_id][0]) for t in trials.trials]
    assert np.max(np.abs(np.subtract(report.scores, expected))) <= 1e-12
    assert report.eer == eer_from_scores(*trials.with_scores(expected).split_scores())[0]


class TestBatchedEvaluate:
    CFG = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                      selection=SelectionConfig(kind="gpool"), seed=36)

    def _spy_forward(self, monkeypatch):
        shapes = []

        def spy(model, x, scenes, frames=None):
            shapes.append(x.shape)
            return _forward(model, x, scenes, frames)

        monkeypatch.setattr(trainer, "_forward", spy)
        return shapes

    def test_trial_order_does_not_change_a_score(self):
        model = Model.init(self.CFG, n_speakers=3)
        utts = ragged_utterances(RAGGED_SHAPES)
        trials = all_pair_trials(utts)
        order = np.random.default_rng(37).permutation(len(trials.trials))
        shuffled = TrialSet([trials.trials[i] for i in order])
        base = evaluate(model, utts, trials).scores
        again = evaluate(model, utts, shuffled).scores
        assert [again[j] for j in np.argsort(order)] == list(base)

    def test_unknown_id_raises_before_any_embedding(self, monkeypatch):
        model = Model.init(self.CFG, n_speakers=3)
        utts = ragged_utterances(RAGGED_SHAPES)
        shapes = self._spy_forward(monkeypatch)
        trials = TrialSet(all_pair_trials(utts).trials + [Trial("r0", "nope", "nontarget")])
        with pytest.raises(KeyError, match="nope"):
            evaluate(model, utts, trials)
        assert shapes == []

    def test_batches_stay_within_the_budget(self, monkeypatch):
        model = Model.init(self.CFG, n_speakers=3)
        utts = ragged_utterances([(4, t) for t in range(1, 41)])
        shapes = self._spy_forward(monkeypatch)
        evaluate(model, utts, all_pair_trials(utts))
        assert sum(b for b, *_ in shapes) == len(utts)
        assert 1 < len(shapes) < len(utts)
        for b, c, t, _ in shapes:
            assert b * c * t * (t + c) <= trainer.EVAL_BATCH_ENTRIES

    def test_feature_dim_mismatch_is_shape_error(self):
        model = Model.init(self.CFG, n_speakers=3)
        utts = ragged_utterances([(4, 5), (4, 6)])
        utts["r1"] = Utterance("r1", 1, FrameTensor(np.ones((4, 6, 4))))
        with pytest.raises(dc.ShapeError):
            evaluate(model, utts, TrialSet([Trial("r0", "r1", "nontarget")]))

    def test_utterance_over_the_budget_runs_alone(self, monkeypatch):
        model = Model.init(self.CFG, n_speakers=3)
        # 16 channels of 64 frames: 16 * 64 * 80 entries, over the budget on their own.
        utts = ragged_utterances([(16, 64), (16, 64), (16, 3), (16, 64)])
        assert 16 * 64 * 80 > trainer.EVAL_BATCH_ENTRIES
        shapes = self._spy_forward(monkeypatch)
        report = evaluate(model, utts, all_pair_trials(utts))
        assert shapes == [(1, 16, 3, 8)] + [(1, 16, 64, 8)] * 3
        alone = {k: embed(model, u.features, u.scene) for k, u in utts.items()}
        expected = [cosine_score(alone[t.enroll_id], alone[t.test_id])
                    for t in all_pair_trials(utts).trials]
        assert np.max(np.abs(np.subtract(report.scores, expected))) <= 1e-12


class TestTraining:
    def test_zero_learning_rate_freezes_parameters(self):
        dataset = toy_dataset(c=2, t=3, d=8)
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8, seed=11)
        model, _ = train_second_stage(dataset, cfg, TrainHyper(lr=0.0, epochs=3))
        reference = Model.init(cfg, n_speakers=2)
        for p, q in zip(model.params, reference.params):
            assert np.array_equal(p.data, q.data)

    def test_same_seed_bit_identical(self):
        dataset = toy_dataset(c=2, t=3, d=8)
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8, seed=12)
        hyper = TrainHyper(lr=1e-2, epochs=3)
        m1, c1 = train_second_stage(dataset, cfg, hyper)
        m2, c2 = train_second_stage(dataset, cfg, hyper)
        assert c1 == c2
        for p, q in zip(m1.params, m2.params):
            assert np.array_equal(p.data, q.data)

    def test_loss_decreases_on_fixed_batch_at_small_lr(self):
        dataset = toy_dataset(per_speaker=4, c=2, t=3, d=8)  # one batch of 8
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8, seed=13)
        _, curve = train_second_stage(dataset, cfg, TrainHyper(lr=1e-4, epochs=2, batch_size=8))
        assert curve[1] < curve[0]

    def test_overfits_toy_task(self):
        dataset = toy_dataset(n_speakers=2, per_speaker=8, c=4, t=10, d=16, seed=14)
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=16, seed=14)
        model, curve = train_second_stage(dataset, cfg, TrainHyper(epochs=200))
        assert min(curve) < 0.05
        assert curve[-1] < 0.05

    def test_single_speaker_rejected(self):
        dataset = toy_dataset(n_speakers=1, per_speaker=4, c=2, t=2, d=8)
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8)
        with pytest.raises(DegenerateTaskError):
            train_second_stage(dataset, cfg, TrainHyper(epochs=1))

    @pytest.mark.parametrize("mechanism", ["gcn", "mean"])
    def test_ragged_training_set_rejected(self, mechanism):
        dataset = toy_dataset(c=3, t=4, d=8) + toy_dataset(c=2, t=4, d=8, seed=1)[:1]
        cfg = ModelConfig(mechanism=mechanism, n_blocks=1, heads=2, d=8)
        with pytest.raises(DegenerateTaskError, match=r"\(2, 4, 8\).*\(3, 4, 8\)"):
            train_second_stage(dataset, cfg, TrainHyper(epochs=1))

    def test_mean_baseline_trains_only_head(self):
        dataset = toy_dataset(c=2, t=3, d=8)
        cfg = ModelConfig(mechanism="mean", d=8, seed=15)
        model, _ = train_second_stage(dataset, cfg, TrainHyper(epochs=2))
        assert model.params.names() == ["head.w", "head.b"]


class TestEvaluate:
    def _noise_free_setup(self):
        codebook = make_codebook(3, 8, seed=20)
        utts = {}
        for spk in range(3):
            for j in range(2):
                data = np.tile(codebook[spk], (2, 3, 1))
                utts[f"s{spk}_{j}"] = Utterance(utt_id=f"s{spk}_{j}", speaker=spk,
                                                features=FrameTensor(data))
        trials = TrialSet([
            Trial("s0_0", "s0_1", "target"),
            Trial("s1_0", "s1_1", "target"),
            Trial("s0_0", "s1_0", "nontarget"),
            Trial("s1_0", "s2_0", "nontarget"),
        ])
        model = Model.init(ModelConfig(mechanism="mean", d=8), n_speakers=3)
        return model, utts, trials

    def test_separable_trials_give_zero_eer(self):
        model, utts, trials = self._noise_free_setup()
        report = evaluate(model, utts, trials)
        assert report.eer == 0.0
        assert report.n_trials == 4

    def test_trial_order_invariance(self):
        model, utts, trials = self._noise_free_setup()
        shuffled = TrialSet(trials.trials[::-1])
        assert evaluate(model, utts, trials).eer == evaluate(model, utts, shuffled).eer

    def test_no_trials_is_protocol_error(self):
        model, utts, _ = self._noise_free_setup()
        with pytest.raises(ProtocolError):
            evaluate(model, utts, TrialSet([]))

    def test_scores_match_cosine_score_per_trial(self):
        utts = ragged_utterances(RAGGED_SHAPES, seed=39)
        trials = all_pair_trials(utts)
        model = Model.init(ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8, seed=39), 3)
        embs = trainer._embed_all(model, utts)
        report = evaluate(model, utts, trials)
        expected = [cosine_score(embs[t.enroll_id], embs[t.test_id]) for t in trials.trials]
        assert np.max(np.abs(np.array(report.scores) - expected)) <= 1e-12

    def test_zero_embedding_raises(self):
        model, utts, trials = self._noise_free_setup()
        utts["s2_0"] = Utterance("s2_0", 2, FrameTensor(np.zeros((2, 3, 8))))
        with pytest.raises(ValueError, match="zero embedding"):
            evaluate(model, utts, trials)

    def test_unknown_utterance(self):
        model, utts, _ = self._noise_free_setup()
        with pytest.raises(KeyError):
            evaluate(model, utts, TrialSet([Trial("nope", "s0_0", "target"),
                                            Trial("s0_0", "s1_0", "nontarget")]))


class TestTrials:
    def test_generate_counts_and_labels(self):
        utts = toy_dataset(n_speakers=3, per_speaker=3, c=2, t=2, d=8)
        trials = generate_trials(utts, n_target=10, n_nontarget=15,
                                 rng=np.random.default_rng(21))
        labels = [t.label for t in trials.trials]
        assert labels.count("target") == 10
        assert labels.count("nontarget") == 15
        by_id = {u.utt_id: u for u in utts}
        for t in trials.trials:
            same = by_id[t.enroll_id].speaker == by_id[t.test_id].speaker
            assert same == (t.label == "target")
            if t.label == "target":
                assert t.enroll_id != t.test_id

    def test_generate_requires_pairable_speakers(self):
        utts = toy_dataset(n_speakers=2, per_speaker=1, c=2, t=2, d=8)
        with pytest.raises(ProtocolError):
            generate_trials(utts, n_target=1, n_nontarget=0, rng=np.random.default_rng(0))

    def test_csv_round_trip(self, tmp_path):
        trials = TrialSet([Trial("a", "b", "target"), Trial("a", "c", "nontarget")])
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials)
        again = read_trials_csv(path)
        assert again.trials == trials.trials

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n")
        with pytest.raises(ValueError):
            read_trials_csv(path)

    @pytest.mark.parametrize("row", ["a,b", "a,b,target,extra"], ids=["short", "long"])
    def test_csv_row_without_three_fields(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"enroll_id,test_id,label\na,c,nontarget\n\n{row}\n")
        with pytest.raises(ValueError, match=r"bad\.csv, line 4: expected 3 fields"):
            read_trials_csv(path)


class TestModelIO:
    def test_save_load_preserves_embeddings(self, tmp_path):
        rng = np.random.default_rng(22)
        dataset = toy_dataset(c=3, t=4, d=8, seed=22)
        cfg = ModelConfig(mechanism="gcn", n_blocks=2, heads=2, d=8, seed=22)
        model, _ = train_second_stage(dataset, cfg, TrainHyper(epochs=2))
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        again = load_model(path)
        x = FrameTensor(rng.standard_normal((3, 4, 8)))
        assert np.array_equal(embed(model, x), embed(again, x))
        assert again.cfg == model.cfg
        assert again.n_speakers == model.n_speakers

    def test_seed_checkpoint_loads_and_embeds_identically(self):
        # Written before the removed settings were deleted: its config still
        # records warm_start, head, head_scale, selection.pool_all and
        # selection.orientation at their defaults.  The expected embedding was computed by that code,
        # whose softmax added and then subtracted the query term of the gcn
        # score; without that term the result moves by rounding only.
        model = load_model(SEED_CHECKPOINT)
        assert model.cfg == ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                                        selection=SelectionConfig(kind="gpool"), seed=41)
        x = FrameTensor(np.random.default_rng(40).standard_normal((5, 6, 8)))
        assert np.max(np.abs(embed(model, x) - SEED_EMBEDDING)) <= 1e-15

    def test_seed_checkpoint_drops_the_gcn_query_side(self):
        # Its gcn heads still hold wl and a beta of twice the head width.  It
        # holds an untrained model, so it also pins the draws of Model.init.
        _, blobs = load_checkpoint(SEED_CHECKPOINT)
        model = load_model(SEED_CHECKPOINT)
        fresh = Model.init(model.cfg, model.n_speakers)
        assert all(np.array_equal(p.data, fresh.params[p.name].data) for p in model.params)
        assert set(blobs) - set(model.params.names()) == {
            f"block0.{axis}.head{m}.wl" for axis in ("temporal", "spatial") for m in range(2)}
        for p in model.params:
            blob = blobs[p.name]
            if p.name.endswith(".beta"):
                assert blob.shape == (8,)
                blob = blob[4:]
            assert np.array_equal(p.data, blob), p.name

    # A gcn head whose beta lacks the query half, and a sam head with a gcn
    # query side, which sam must not read as one.
    @pytest.mark.parametrize("mechanism, beta_width", [("gcn", 4), ("gcn", 6), ("sam", 8)])
    def test_query_side_without_its_beta_half_rejected(self, tmp_path, mechanism, beta_width):
        model = Model.init(ModelConfig(mechanism=mechanism, n_blocks=1, heads=2, d=8), 2)
        head = "block0.spatial.head1"
        params = [p for p in model.params if p.name != f"{head}.beta"]
        params.append(Parameter(f"{head}.wl", np.ones((8, 4))))
        params.append(Parameter(f"{head}.beta", np.ones(beta_width)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ParamSet(params),
                        meta={"config": model_config_to_json(model.cfg), "n_speakers": 2})
        with pytest.raises(ValueError, match=f"{head}.wl"):
            load_model(path)

    @pytest.mark.parametrize("section,key,value", [
        (None, "head", "cosine"), (None, "head_scale", 30.0), (None, "warm_start", True),
        ("selection", "pool_all", True), ("selection", "orientation", True),
    ])
    def test_removed_setting_rejected(self, tmp_path, section, key, value):
        model = Model.init(ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8), n_speakers=2)
        config = model_config_to_json(model.cfg)
        (config if section is None else config[section])[key] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.params, meta={"config": config, "n_speakers": 2})
        with pytest.raises(ValueError, match=key):
            load_model(path)

    @pytest.mark.parametrize("selection", [
        SelectionConfig(), SelectionConfig(kind="prior", rho=0.5, noise=True),
        SelectionConfig(kind="gpool"), SelectionConfig(kind="gpool", k=3),
    ], ids=["none", "prior", "gpool", "gpool_k3"])
    @pytest.mark.parametrize("spatial", [GraphSpec(), GraphSpec("span", delta=2),
                                         GraphSpec("knn", k=3)], ids=lambda g: g.kind)
    def test_config_json_round_trip(self, selection, spatial):
        cfg = ModelConfig(n_blocks=1, heads=2, d=8, selection=selection,
                          temporal_graph=GraphSpec("span", delta=1), spatial_graph=spatial, seed=3)
        assert model_config_from_json(model_config_to_json(cfg)) == cfg

    def test_config_json_layout(self):
        # Checkpoints record this layout; its key order fixes their bytes.
        cfg = ModelConfig(mechanism="sam", n_blocks=3, heads=2, d=8,
                          selection=SelectionConfig(kind="gpool", k=2, rho=0.5, noise=True,
                                                    rho_noise=0.3),
                          temporal_graph=GraphSpec("span", delta=2),
                          spatial_graph=GraphSpec("knn", k=3), leaky_slope=0.1, seed=5)
        expected = {
            "mechanism": "sam", "n_blocks": 3, "heads": 2, "d": 8,
            "selection": {"kind": "gpool", "k": 2, "rho": 0.5, "noise": True,
                          "rho_noise": 0.3},
            "temporal_graph": {"kind": "span", "delta": 2, "k": 4},
            "spatial_graph": {"kind": "knn", "delta": 1, "k": 3},
            "leaky_slope": 0.1, "seed": 5,
        }
        assert json.dumps(model_config_to_json(cfg)) == json.dumps(expected)

    # A config that is not an object, a section that is not one, and a key
    # that is neither a field nor a removed setting.
    @pytest.mark.parametrize("config, named", [
        ([1, 2], "config must be an object"),
        ({"selection": "gpool"}, "config.selection must be an object"),
        ({"temporal_graph": {"kind": "span", "width": 3}}, "config.temporal_graph: ['width']"),
        ({"heads": "two"}, "config.heads"),
    ], ids=["config_list", "selection_string", "unknown_key", "heads_string"])
    def test_malformed_config_rejected(self, tmp_path, config, named):
        model = Model.init(ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8), n_speakers=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.params, meta={"config": config, "n_speakers": 2})
        with pytest.raises(ValueError, match=re.escape(named)):
            load_model(path)

    def test_gpool_params_round_trip(self, tmp_path):
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                          selection=SelectionConfig(kind="gpool", k=2), seed=23)
        model = Model.init(cfg, n_speakers=2)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        again = load_model(path)
        assert np.array_equal(again.gpool.p.data, model.gpool.p.data)


class TestChannelOps:
    def test_subsample_channels(self):
        rng = np.random.default_rng(24)
        scene = sample_scene(rng, SimConfig(n_nodes=6, d=4, t=2))
        codebook = make_codebook(1, 4, seed=24)
        ft = synth_features(scene, 0, codebook, rng, SimConfig(n_nodes=6, d=4, t=2))
        utt = Utterance("u", 0, ft, scene)
        sub = subsample_channels(utt, 3, np.random.default_rng(0))
        assert sub.features.c == 3
        assert sub.scene.n_nodes == 3
        rows = {tuple(r) for r in sub.scene.node_pos}
        assert rows <= {tuple(r) for r in scene.node_pos}

    def test_subsample_bounds(self):
        utt = toy_dataset(per_speaker=1, c=2, t=2, d=8)[0]
        with pytest.raises(ValueError):
            subsample_channels(utt, 5, np.random.default_rng(0))

    def test_per_node_rows(self):
        rng = np.random.default_rng(25)
        sim = SimConfig(n_nodes=3, d=8, t=2, n_speakers=2)
        codebook = make_codebook(2, 8, seed=25)
        utts = {}
        for spk in range(2):
            for j in range(2):
                scene = sample_scene(rng, sim)
                ft = synth_features(scene, spk, codebook, rng, sim)
                uid = f"p{spk}_{j}"
                utts[uid] = Utterance(uid, spk, ft, scene)
        trials = TrialSet([
            Trial("p0_0", "p0_1", "target"),
            Trial("p1_0", "p1_1", "target"),
            Trial("p0_0", "p1_0", "nontarget"),
        ])
        model = Model.init(ModelConfig(mechanism="mean", d=8), n_speakers=2)
        rows = eval_per_node(model, utts, trials)
        assert len(rows) == 3
        assert [r["node"] for r in rows] == [0, 1, 2]
        for r in rows:
            assert 0.0 <= r["eer"] <= 1.0
            assert np.isfinite(r["distance"])

    @pytest.mark.parametrize("selection", [{"kind": "none"}, {"kind": "prior"},
                                           {"kind": "gpool"}, {"kind": "gpool", "k": 2}],
                             ids=["none", "prior", "gpool", "gpool_k2"])
    def test_per_node_scores_each_channel_without_selection(self, selection):
        # The reference evaluates single-channel copies with the model itself,
        # or for k = 2, which a single channel cannot meet, with the same
        # parameters and k unset, which keeps and gates the one channel.
        utts = ragged_utterances([(3, t) for t in (1, 4, 9, 9, 2, 6)], seed=39)
        trials = all_pair_trials(utts)
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                          selection=SelectionConfig(**selection), seed=39)
        model = Model.init(cfg, n_speakers=3)
        reference = Model.init(ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                                           selection=SelectionConfig(kind=selection["kind"]),
                                           seed=39), n_speakers=3)
        rows = eval_per_node(model, utts, trials)
        assert [r["node"] for r in rows] == [0, 1, 2]
        for node, row in enumerate(rows):
            sub = {k: Utterance(k, u.speaker, FrameTensor(u.features.data[node:node + 1]),
                                u.scene.subset([node])) for k, u in utts.items()}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # prior fallbacks on one channel
                assert row["eer"] == evaluate(reference, sub, trials).eer

    def test_per_node_runs_on_a_knn_spatial_graph(self):
        # knn over one channel is its self-loop whatever k is, as is the
        # complete graph.
        utts = ragged_utterances([(3, t) for t in (1, 4, 9, 9, 2, 6)], seed=39)
        trials = all_pair_trials(utts)
        knn, complete = (Model.init(ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                                                spatial_graph=spec, seed=39), n_speakers=3)
                         for spec in (GraphSpec("knn", k=2), GraphSpec()))
        assert eval_per_node(knn, utts, trials) == eval_per_node(complete, utts, trials)

    def test_per_node_matches_single_channel_embeddings(self):
        utts = ragged_utterances([(3, t) for t in (1, 4, 9, 9, 2, 6)], seed=38)
        trials = all_pair_trials(utts)
        cfg = ModelConfig(mechanism="sam", n_blocks=1, heads=2, d=8,
                          selection=SelectionConfig(kind="prior"), seed=38)
        model = Model.init(cfg, n_speakers=3)
        rows = eval_per_node(model, utts, trials)
        for node, row in enumerate(rows):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                alone = {k: embed(model, FrameTensor(u.features.data[node:node + 1]),
                                  u.scene.subset([node])) for k, u in utts.items()}
            scores = [cosine_score(alone[t.enroll_id], alone[t.test_id]) for t in trials.trials]
            assert row["eer"] == eer_from_scores(*trials.with_scores(scores).split_scores())[0]
