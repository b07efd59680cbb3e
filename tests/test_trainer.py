"""Training loop, embedding composition, scoring and EER behavior."""

import json
import platform
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocsv import diffcore as dc
from adhocsv import trainer
from adhocsv.diffcore import Parameter, ParamSet, Tensor
from adhocsv.graphs import build_prior
from adhocsv.scenesim import FrameTensor, SimConfig, make_codebook, sample_scene, synth_features
from adhocsv.stagg import (
    CHECKPOINT_VERSION,
    GraphSpec,
    build_graph,
    load_checkpoint,
    restrict,
    save_checkpoint,
    st_stack,
)
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
    cosine_score,
    eer_from_scores,
    embed,
    embed_with_info,
    eval_per_node,
    evaluate,
    generate_trials,
    config_from_json,
    load_model,
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


def split_by_label(trials, scores):
    """(target scores, nontarget scores) of a trial set, in trial order."""
    target = np.array([t.label == "target" for t in trials.trials])
    scores = np.asarray(scores)
    return scores[target], scores[~target]


MEAN = ModelConfig(n_blocks=0)  # the MEAN baseline: no stack

SEED_CHECKPOINT = Path(__file__).parent / "data" / "seed_gcn_gpool.ckpt"
SEED_EMBEDDING = np.array([
    0.0335410289825484, -0.010554743908178517, 0.019718635200737352, 0.11365693349580103,
    -0.012693176372146397, -0.012267316453707183, -0.03699145546461838, 0.04944154501705522])
MEAN_CHECKPOINT = Path(__file__).parent / "data" / "mean_mechanism.ckpt"
MEAN_EMBEDDING = np.array([
    -0.32910246972349594, 0.0036810576706843125, 0.2830686627539886, 0.4050285097691052,
    0.03118813294292433, 0.0026462161273077987, -0.1298421794230406, 0.34785126829457064])


# float.hex of a seeded gcn + prior job: its per-epoch losses, and the
# embeddings of a 4-channel and a 7-channel utterance after training.
PINNED_CURVE = ["0x1.175911599d269p+0", "0x1.170b70ad069d1p+0", "0x1.16bbe5b40cd6dp+0"]
PINNED_EMBEDDINGS = {
    0: ["-0x1.0ae9f2badabcdp-8", "0x1.e86e469a06288p-6", "-0x1.6cb59a795809cp-6",
        "0x1.06d913c31a59dp-6", "-0x1.175116f64d874p-5", "-0x1.10bdc2e884e75p-8",
        "-0x1.653930c6f0d93p-5", "0x1.11dd71969aa4bp-6"],
    5: ["-0x1.36faa9164a1d3p-6", "-0x1.b62bf75a88ec0p-5", "0x1.181d304e1d496p-6",
        "-0x1.afe2b0675054dp-6", "0x1.903a7010d217bp-5", "-0x1.19720b6e1efefp-6",
        "0x1.ef3348b3863c5p-6", "-0x1.5b48cc9317428p-7"],
}


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
        model = Model.init(replace(MEAN, d=4), n_speakers=2)
        assert np.allclose(embed(model, x), v, atol=1e-12)

    @pytest.mark.parametrize("kind", ["gpool", "prior"])
    def test_selection_over_mean_pools_the_kept_channels(self, kind):
        # With no stack, the embedding is the gated mean of the kept
        # channels' valid-frame means: gpool gates its top k, prior keeps
        # its mask at gate 1.  Frames past each utterance's count are padding.
        rng = np.random.default_rng(9)
        b, c, t, d = 3, 6, 5, 8
        scenes = [sample_scene(rng, SimConfig(n_nodes=c, t=t, d=d)) for _ in range(b)]
        frames = [5, 2, 4]
        x = rng.standard_normal((b, c, t, d))
        model = Model.init(replace(MEAN, d=d, selection=SelectionConfig(kind=kind, rho=0.7)),
                           n_speakers=2)
        assert model.blocks == []
        embs, keep, _ = _forward(model, [x[i, :, :n] for i, n in enumerate(frames)], scenes)
        for i, n in enumerate(frames):
            zbar = x[i, :, :n].mean(axis=1)
            if kind == "prior":
                kept, gate = build_prior(scenes[i], 0.7), np.ones(c)
            else:
                q = zbar @ model.gpool.data / np.linalg.norm(model.gpool.data)
                kept, gate = np.isin(np.arange(c), np.argsort(-q)[:3]), 1 / (1 + np.exp(-q))
            assert np.array_equal(keep[i], kept)
            expected = (gate[kept, None] * zbar[kept]).mean(axis=0)
            assert np.max(np.abs(embs.data[i] - expected)) <= 1e-12

    def test_selection_none_equals_all_true_prior_select(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 8))
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8, seed=3)
        model = Model.init(cfg, n_speakers=2)
        via_embed = embed(model, FrameTensor(x))
        z = st_stack(Tensor(x[None]), model.blocks, build_graph(GraphSpec(), 5),
                     np.ones((1, 4, 4), bool))
        via_mask = z.data[0].mean(axis=(0, 1))
        assert np.allclose(via_embed, via_mask, atol=1e-12)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 8))
        cfg = ModelConfig(mechanism="sam", n_blocks=2, heads=2, d=8, seed=4)
        model = Model.init(cfg, n_speakers=2)
        z = st_stack(Tensor(x[None]), model.blocks, build_graph(GraphSpec(), 4),
                     np.ones((1, 3, 3), bool))
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
        assert info["selection"] == "prior"
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

    def test_mean_mechanism_and_negative_blocks_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism 'mean'"):
            ModelConfig(mechanism="mean")
        with pytest.raises(ValueError, match="n_blocks=-1"):
            ModelConfig(n_blocks=-1)
        # Heads are checked only when there are blocks to split over them.
        assert ModelConfig(n_blocks=0, heads=3, d=8) == ModelConfig(n_blocks=0, d=8)
        with pytest.raises(ValueError, match="heads"):
            ModelConfig(n_blocks=1, heads=3, d=8)

    def test_knn_temporal_graph_rejected(self):
        with pytest.raises(ValueError, match="temporal"):
            ModelConfig(temporal_graph=GraphSpec(kind="knn"))

    @pytest.mark.parametrize("n_blocks", [0, 2])
    def test_span_spatial_graph_rejected(self, n_blocks):
        # Span links channels by their index, and an ad-hoc array's channels
        # have no order; a MEAN config is refused it like a stack's.
        with pytest.raises(ValueError, match="spatial graph cannot be span: .* channel order"):
            ModelConfig(n_blocks=n_blocks, spatial_graph=GraphSpec("span", delta=1))


def forward_alone(model, features, scene):
    """One utterance through ``_forward``: its embedding, keep row and gate row (or None)."""
    emb, keep, gate = _forward(model, [np.asarray(features)], [scene])
    return emb.data[0], keep[0], None if gate is None else gate[0]


def assert_same_choice(keep, gate, alone_keep, alone_gate):
    """The same kept channels, and gates within 1e-12 (or None on both sides)."""
    assert keep.dtype == np.bool_ and np.array_equal(keep, alone_keep)
    assert (gate is None) == (alone_gate is None)
    if gate is not None:
        assert np.max(np.abs(gate - alone_gate)) <= 1e-12


PARITY_CASES = [(m, s, g) for m in ("sam", "gcn") for s in ("none", "prior", "gpool")
                for g in ("complete", "span")] + [("mean", s, "complete")
                                                  for s in ("none", "prior", "gpool")]


def parity_config(mechanism, selection, temporal, seed):
    """Two blocks of ``mechanism``, or none for "mean", with the given selection and graph."""
    stack = {"n_blocks": 0} if mechanism == "mean" else {"mechanism": mechanism, "n_blocks": 2}
    return ModelConfig(**stack, heads=2, d=8, selection=SelectionConfig(kind=selection),
                       temporal_graph=GraphSpec(kind=temporal, delta=1), seed=seed)


@pytest.mark.parametrize("mechanism,selection,temporal", PARITY_CASES)
def test_batch_forward_matches_each_utterance_alone(mechanism, selection, temporal):
    rng = np.random.default_rng(30)
    b, c, t, d = 4, 5, 6, 8
    sim = SimConfig(n_nodes=c, t=t, d=d)
    scenes = [sample_scene(rng, sim) for _ in range(b)]
    xs = rng.standard_normal((b, c, t, d))
    cfg = parity_config(mechanism, selection, temporal, seed=31)
    model = Model.init(cfg, n_speakers=2)
    embs, keep, gate = _forward(model, xs, scenes)
    assert embs.shape == (b, d) and keep.shape == (b, c)
    assert (gate is None) == (selection != "gpool")
    for i in range(b):
        alone, alone_keep, alone_gate = forward_alone(model, xs[i], scenes[i])
        assert np.max(np.abs(embs.data[i] - alone)) <= 1e-12
        assert_same_choice(keep[i], None if gate is None else gate[i], alone_keep, alone_gate)


def test_batched_prior_pooling_matches_per_utterance_reference():
    rng = np.random.default_rng(32)
    b, c, t, d = 4, 6, 3, 8
    sim = SimConfig(n_nodes=c, t=t, d=d)
    scenes = [sample_scene(rng, sim) for _ in range(b)]
    xs = rng.standard_normal((b, c, t, d))
    cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=d,
                      selection=SelectionConfig(kind="prior", rho=0.7), seed=32)
    model = Model.init(cfg, n_speakers=2)
    embs, keep, _ = _forward(model, xs, scenes)
    masks = [build_prior(scene, 0.7) for scene in scenes]
    z = st_stack(Tensor(xs), model.blocks, build_graph(GraphSpec(), t),
                 restrict(build_graph(GraphSpec(), c), np.stack(masks))).data
    for i, mask in enumerate(masks):
        assert np.array_equal(keep[i], mask)
        reference = z[i][mask].mean(axis=(0, 1))
        assert np.max(np.abs(embs.data[i] - reference)) <= 1e-12


def spy_on_stack(monkeypatch):
    """Record the (x, a_temporal, a_spatial) arrays of every ``st_stack`` call of ``_forward``."""
    seen = []

    def spy(x, blocks, a_temporal, a_spatial):
        seen.append((x.data, a_temporal, a_spatial))
        return st_stack(x, blocks, a_temporal, a_spatial)

    monkeypatch.setattr(trainer, "st_stack", spy)
    return seen


def assert_narrowed_stack_input(x, a_spatial, feats, scenes, spatial, rho):
    """The stack sees each utterance's prior channels only, bit for bit, and their graph.

    Utterance i's n kept channels fill rows :n, in their own order; its
    spatial mask's top-left n x n block is the configured graph over all of
    its channels narrowed to the kept rows and columns, and every padded
    channel sees only itself.
    """
    kept = [build_prior(scene, rho) for scene in scenes]
    c = max(k.sum() for k in kept)
    assert x.shape == (len(feats), c) + x.shape[2:] and a_spatial.shape == (len(feats), c, c)
    assert a_spatial.dtype == np.bool_
    for i, (f, scene, mask) in enumerate(zip(feats, scenes, kept)):
        n, t = mask.sum(), f.shape[1]
        assert x[i, :n, :t].tobytes() == f[mask].tobytes()
        assert not x[i, n:].any() and not x[i, :, t:].any()
        full = build_graph(spatial, f.shape[0], scene.node_pos)
        assert np.array_equal(a_spatial[i, :n, :n], full[np.ix_(mask, mask)])
        assert np.array_equal(a_spatial[i, n:], np.eye(c, dtype=bool)[n:])
        assert not a_spatial[i, :n, n:].any()
    return kept


@pytest.mark.parametrize("spatial", [GraphSpec(), GraphSpec("knn", k=2)], ids=lambda g: g.kind)
def test_prior_masks_the_configured_spatial_graph(spatial, monkeypatch):
    # Prior selection narrows each utterance to its kept channels before the
    # stack.  Its spatial mask is its configured graph narrowed to them; on a
    # complete graph that is the clique over them.
    rng = np.random.default_rng(42)
    b, c = 3, 8
    scenes = [sample_scene(rng, SimConfig(n_nodes=c)) for _ in range(b)]
    cfg = ModelConfig(n_blocks=1, heads=2, d=8, spatial_graph=spatial,
                      selection=SelectionConfig(kind="prior", rho=0.7))
    seen = spy_on_stack(monkeypatch)
    feats = list(rng.standard_normal((b, c, 3, 8)))
    _, keep, _ = _forward(Model.init(cfg, n_speakers=2), feats, scenes)
    ((x, _, a_spatial),) = seen
    kept = assert_narrowed_stack_input(x, a_spatial, feats, scenes, spatial, 0.7)
    assert len({int(k.sum()) for k in kept}) > 1  # some utterance's channels are padded
    cliques = [np.ones((k.sum(), k.sum()), dtype=bool) for k in kept]
    for i, mask in enumerate(kept):
        assert np.array_equal(keep[i], mask)
        if spatial.kind == "complete":
            assert np.array_equal(a_spatial[i, :mask.sum(), :mask.sum()], cliques[i])
    if spatial.kind != "complete":
        assert not all(np.array_equal(a_spatial[i, :k.sum(), :k.sum()], cliques[i])
                       for i, k in enumerate(kept))


NARROWING_CASES = [(m, g) for m in ("gcn", "sam") for g in ("complete", "knn")] + [
    ("mean", "complete")]


def prior_model(mechanism, spatial, seed, rho=0.7):
    """Two blocks of ``mechanism`` (none for "mean") with prior selection at ``rho``."""
    stack = {"n_blocks": 0} if mechanism == "mean" else {"mechanism": mechanism, "n_blocks": 2}
    cfg = ModelConfig(**stack, heads=2, d=8, spatial_graph=GraphSpec(spatial, k=2),
                      temporal_graph=GraphSpec("span", delta=1),
                      selection=SelectionConfig(kind="prior", rho=rho), seed=seed)
    return Model.init(cfg, n_speakers=2)


@pytest.mark.parametrize("mechanism,spatial", NARROWING_CASES)
def test_dropped_channels_change_no_embedding_bit_for_bit(mechanism, spatial):
    # No kernel reads a channel that the prior drops: new frames in every
    # dropped channel leave the embeddings and the choice exactly as they were.
    rng = np.random.default_rng(46)
    shapes = [(8, 5), (6, 9), (8, 9), (3, 2)]
    scenes = [sample_scene(rng, SimConfig(n_nodes=c)) for c, _ in shapes]
    feats = [rng.standard_normal((c, t, 8)) for c, t in shapes]
    model = prior_model(mechanism, spatial, seed=46)
    embs, keep, _ = _forward(model, feats, scenes)
    assert all(not keep[i, :f.shape[0]].all() for i, f in enumerate(feats))
    changed = [np.where(keep[i, :f.shape[0], None, None], f, 1e3 * rng.standard_normal(f.shape))
               for i, f in enumerate(feats)]
    again, keep_again, _ = _forward(model, changed, scenes)
    assert again.data.tobytes() == embs.data.tobytes() and np.array_equal(keep_again, keep)
    for f, g, scene in zip(feats, changed, scenes):
        assert embed(model, g, scene).tobytes() == embed(model, f, scene).tobytes()


@pytest.mark.parametrize("mechanism", ["gcn", "sam"])
@pytest.mark.parametrize("spatial", ["complete", "knn"])
@pytest.mark.parametrize("selection", ["none", "prior"])
def test_permuting_channels_with_their_nodes_changes_no_embedding(mechanism, spatial, selection):
    rng = np.random.default_rng(49)
    shapes = [(8, 5), (6, 9), (5, 3)]
    scenes = [sample_scene(rng, SimConfig(n_nodes=c)) for c, _ in shapes]
    feats = [rng.standard_normal((c, t, 8)) for c, t in shapes]
    cfg = ModelConfig(mechanism=mechanism, n_blocks=2, heads=2, d=8,
                      spatial_graph=GraphSpec(spatial, k=2),
                      temporal_graph=GraphSpec("span", delta=1),
                      selection=SelectionConfig(kind=selection, rho=0.7), seed=49)
    # Spatial span links channels by their index, so permuting them would
    # move the embedding: the config refuses it.
    with pytest.raises(ValueError, match="depend on channel order"):
        replace(cfg, spatial_graph=GraphSpec("span", delta=1))
    model = Model.init(cfg, n_speakers=2)
    embs, keep, _ = _forward(model, feats, scenes)
    perms = [rng.permutation(f.shape[0]) for f in feats]
    again, keep_again, _ = _forward(model, [f[p] for f, p in zip(feats, perms)],
                                    [scene.subset(p) for scene, p in zip(scenes, perms)])
    assert np.max(np.abs(again.data - embs.data)) <= 1e-12
    for i, p in enumerate(perms):
        assert np.array_equal(keep_again[i, :p.size], keep[i, p])


def test_knn_neighbours_are_picked_among_all_channels(monkeypatch):
    # A kept channel's knn neighbours are those it has among all of its
    # array's channels, narrowed to the kept ones, not a fresh knn among them.
    scene = sample_scene(np.random.default_rng(48), SimConfig(n_nodes=8))
    mask = build_prior(scene, 0.7)
    knn = GraphSpec("knn", k=2)
    narrowed = build_graph(knn, 8, scene.node_pos)[np.ix_(mask, mask)]
    fresh = build_graph(knn, int(mask.sum()), scene.node_pos[mask])
    assert not np.array_equal(narrowed, fresh)
    model = prior_model("gcn", "knn", seed=48)
    x = np.random.default_rng(48).standard_normal((8, 4, 8))
    seen = spy_on_stack(monkeypatch)
    emb = embed(model, x, scene)
    ((_, a_temporal, a_spatial),) = seen
    assert np.array_equal(a_spatial[0], narrowed)

    def reference(graph):
        z = st_stack(Tensor(x[mask][None]), model.blocks, a_temporal, graph[None]).data
        return z[0].mean(axis=(0, 1))

    assert np.max(np.abs(emb - reference(narrowed))) <= 1e-12
    assert np.max(np.abs(emb - reference(fresh))) > 1e-6


@pytest.mark.parametrize("kind", ["none", "prior", "gpool"])
def test_non_finite_frames_raise_in_any_channel(kind):
    # Prior selection leaves dropped channels out of the stack's input, so
    # every utterance's frames are checked before it is narrowed.
    scene = sample_scene(np.random.default_rng(48), SimConfig(n_nodes=8))
    mask = build_prior(scene, 0.7)
    x = np.random.default_rng(49).standard_normal((8, 3, 8))
    model = Model.init(ModelConfig(n_blocks=1, heads=2, d=8, selection=SelectionConfig(kind=kind),
                                   seed=49), n_speakers=2)
    for channel in (np.flatnonzero(~mask)[-1], np.flatnonzero(mask)[0]):
        for bad in (np.nan, -np.inf):
            y = x.copy()
            y[channel, 2, 5] = bad
            with pytest.raises(dc.NonFiniteError):
                embed(model, y, scene)
            with pytest.raises(dc.NonFiniteError, match="utterance 1 of the batch holds NaN"):
                _forward(model, [x, y], [scene, scene])


def test_selected_indices_are_the_utterances_own_channels():
    # The report names kept channels by their index in the utterance, not by
    # their row in the narrowed stack input.
    scene = sample_scene(np.random.default_rng(48), SimConfig(n_nodes=8))
    kept = np.flatnonzero(build_prior(scene, 0.7)).tolist()
    assert kept != list(range(len(kept)))
    x = np.random.default_rng(50).standard_normal((8, 4, 8))
    emb, info = embed_with_info(prior_model("gcn", "complete", seed=50), x, scene)
    assert info == {"selection": "prior", "selected_indices": kept, "gates": None}
    _, keep, _ = _forward(prior_model("gcn", "complete", seed=50), [x[:3], x],
                          [scene.subset([0, 1, 2]), scene])
    assert np.flatnonzero(keep[1]).tolist() == kept and not keep[0, 3:].any()


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
                      selection=SelectionConfig(kind="prior", rho_noise=0.2))
    with pytest.raises(MissingPriorError, match="noise source"):
        embed(Model.init(cfg, n_speakers=2), FrameTensor(np.ones((4, 3, 8))), scene)


def test_noise_threshold_checked_when_noise_is_on():
    # The JSON reader passes this None-default field's value as given, so
    # the config itself refuses what is no threshold.
    for bad in (5.0, 0.0, 0, 1.5, True, "0.2"):
        with pytest.raises(ValueError, match="rho_noise must lie in"):
            SelectionConfig(kind="prior", rho_noise=bad)
    # None, the default, is no noise test; an integer threshold is a number too.
    assert SelectionConfig(kind="prior").rho_noise is None
    assert SelectionConfig(kind="prior", rho_noise=1).rho_noise == 1


@pytest.mark.parametrize("selection", ["none", "prior", "gpool"])
def test_equal_frame_counts_take_the_unpadded_path_bit_for_bit(selection, monkeypatch):
    # Utterances of one shape need no frame padding: the stack receives every
    # frame valid, and each utterance's frames bit for bit with its own
    # channel graph.  Prior selection narrows each utterance to its kept
    # channels first, so only the channels past its own count are padding.
    rng = np.random.default_rng(33)
    b, c, t, d = 3, 5, 12, 8
    sim = SimConfig(n_nodes=c, t=t, d=d)
    scenes = [sample_scene(rng, sim) for _ in range(b)]
    xs = rng.standard_normal((b, c, t, d))
    cfg = ModelConfig(mechanism="gcn", n_blocks=2, heads=2, d=d,
                      selection=SelectionConfig(kind=selection),
                      temporal_graph=GraphSpec(kind="span", delta=1), seed=33)
    seen = spy_on_stack(monkeypatch)
    _forward(Model.init(cfg, n_speakers=2), list(xs), scenes)
    ((x, a_temporal, a_spatial),) = seen
    assert np.array_equal(a_temporal, np.broadcast_to(build_graph(cfg.temporal_graph, t),
                                                      (b, 1, t, t)))
    if selection == "prior":
        assert_narrowed_stack_input(x, a_spatial, list(xs), scenes, GraphSpec(),
                                    cfg.selection.rho)
    else:
        assert x.tobytes() == xs.tobytes()
        assert np.array_equal(a_spatial, np.ones((b, c, c), dtype=bool))


def test_forward_rejects_shapes_that_miss_the_model_or_scene():
    model = Model.init(ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8), n_speakers=2)
    scene = sample_scene(np.random.default_rng(40), SimConfig(n_nodes=6))
    good = np.zeros((6, 4, 8))
    for bad in (np.zeros((6, 4, 5)), np.zeros((6, 0, 8)), np.zeros((6, 4))):
        with pytest.raises(dc.ShapeError, match=r"utterance 1 of the batch"):
            _forward(model, [good, bad], [scene, None])
    with pytest.raises(dc.ShapeError, match=r"utterance 1 .* 4 channels, .* 6 nodes"):
        _forward(model, [good, np.zeros((4, 4, 8))], [scene, scene])


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


# Padding filled with zeros, as ``_forward`` pads, and with unit normal
# noise: the stack maps zero padding to zeros, so an unmasked frame or
# channel passes with zeros only.  The zero fill keeps the parity cases' ids.
PADDING_CASES = [pytest.param(*case, fill, id="-".join(case + (() if fill == "zeros" else (fill,))))
                 for case in PARITY_CASES for fill in ("zeros", "noise")]


def noisy_padding(monkeypatch, shapes, seed):
    """Make ``_forward`` fill its padding with unit normal noise instead of zeros.

    ``shapes`` holds each utterance's (channels it brings to the stack,
    frames); the noise goes everywhere else in the padded input array.
    Returns the list of noise entry counts, one per padded input built.
    """
    written = []

    def tensor(x):
        pad = np.ones(x.shape, dtype=bool)
        for i, (c, t) in enumerate(shapes):
            pad[i, :c, :t] = False
        written.append(int(pad.sum()))
        return Tensor(np.where(pad, np.random.default_rng(seed).standard_normal(x.shape), x))

    monkeypatch.setattr(trainer, "Tensor", tensor)
    return written


@pytest.mark.parametrize("mechanism,selection,temporal,fill", PADDING_CASES)
def test_padded_batch_matches_each_utterance_alone(mechanism, selection, temporal, fill,
                                                   monkeypatch):
    cfg = parity_config(mechanism, selection, temporal, seed=35)
    model = Model.init(cfg, n_speakers=3)
    utts = ragged_utterances(RAGGED_SHAPES)
    feats = [u.features.data for u in utts.values()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # prior fallbacks on one- and two-channel arrays
        alone = {k: forward_alone(model, u.features.data, u.scene) for k, u in utts.items()}
        # Every channel and frame count in one batch, padded by the forward pass itself.
        with monkeypatch.context() as patch:
            if fill == "noise":
                # Prior selection brings only each utterance's kept channels.
                widths = [build_prior(u.scene, cfg.selection.rho).sum() if selection == "prior"
                          else u.features.c for u in utts.values()]
                written = noisy_padding(patch, list(zip(widths, (f.shape[1] for f in feats))),
                                        seed=35)
            embs, keep, gate = _forward(model, feats, [u.scene for u in utts.values()])
        if fill == "noise":
            assert written[0] > 0
        for i, (k, u) in enumerate(utts.items()):
            assert np.max(np.abs(embs.data[i] - alone[k][0])) <= 1e-12
            assert not keep[i, u.features.c:].any()
            assert_same_choice(keep[i, :u.features.c],
                               None if gate is None else gate[i, :u.features.c], *alone[k][1:])
        trials = all_pair_trials(utts)
        report = evaluate(model, utts, trials)
    expected = [cosine_score(alone[t.enroll_id][0], alone[t.test_id][0]) for t in trials.trials]
    assert np.max(np.abs(np.subtract(report.scores, expected))) <= 1e-12
    assert report.eer == eer_from_scores(*split_by_label(trials, expected))[0]


def embeddings_and_gradients(model, utts, cotangent):
    """One batch's embeddings, and each parameter's gradient of sum(cotangent * logits)."""
    model.params.zero_grad()
    embs, _, _ = _forward(model, [u.features.data for u in utts], [u.scene for u in utts])
    dc.add(dc.matmul(embs, model.head_w), model.head_b).backward(cotangent)
    return embs.data, {p.name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                       for p in model.params}


GRADIENT_CASES = [(m, s, g) for m in ("sam", "gcn") for s in ("none", "prior", "gpool")
                  for g in ("complete", "knn")] + [("mean", s, "complete")
                                                   for s in ("none", "prior", "gpool")]


@pytest.mark.parametrize("mechanism,selection,spatial", GRADIENT_CASES)
def test_padded_batch_gradients_match_each_utterance_alone(mechanism, selection, spatial):
    # Mixed channel and frame counts in one batch: each embedding, and the
    # gradients summed over the batch, equal the per-utterance runs'.
    stack = {"n_blocks": 0} if mechanism == "mean" else {"mechanism": mechanism, "n_blocks": 2}
    cfg = ModelConfig(**stack, heads=2, d=8, selection=SelectionConfig(kind=selection),
                      temporal_graph=GraphSpec("span", delta=1),
                      spatial_graph=GraphSpec(spatial, k=2), seed=41)
    model = Model.init(cfg, n_speakers=3)
    utts = list(ragged_utterances(RAGGED_SHAPES, seed=41).values())
    cotangent = np.random.default_rng(41).standard_normal((len(utts), 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # prior fallbacks on one- and two-channel arrays
        embs, grads = embeddings_and_gradients(model, utts, cotangent)
        summed = {name: np.zeros_like(g) for name, g in grads.items()}
        for i, u in enumerate(utts):
            alone, alone_grads = embeddings_and_gradients(model, [u], cotangent[i:i + 1])
            assert np.max(np.abs(embs[i] - alone[0])) <= 1e-12
            for name, g in alone_grads.items():
                summed[name] += g
    # Under prior selection every array here keeps one or two channels, and
    # every graph over two nodes is complete.  So block 0's gcn spatial pass
    # gives the kept channels one output, block 1's temporal pass keeps them
    # equal, and the mean pool sends each the same cotangent: block 1's
    # spatial score cotangent, and with it beta's gradient, is exactly zero.
    zero = {"block1.spatial.beta"} if (mechanism, selection) == ("gcn", "prior") else set()
    for name, g in grads.items():
        assert np.any(g) != (name in zero), name
    for name, g in grads.items():
        assert np.max(np.abs(g - summed[name])) <= 1e-12, name


def test_gpool_never_keeps_a_padded_channel():
    # Zero padding scores q = 0, above every own channel's score here, so a
    # top k over whole padded rows would keep padding first.
    model = Model.init(replace(MEAN, d=2, selection=SelectionConfig(kind="gpool")), n_speakers=2)
    model.gpool.data = np.array([1.0, 0.0])
    rng = np.random.default_rng(45)
    feats = [-1.0 - rng.random((c, t, 2)) for c, t in [(2, 3), (5, 1), (3, 4), (6, 2), (1, 2)]]
    _, keep, _ = _forward(model, feats, [None] * len(feats))
    for i, f in enumerate(feats):
        c = f.shape[0]
        assert not keep[i, c:].any()
        assert keep[i].sum() == -(-c // 2)
        assert np.array_equal(keep[i, :c], forward_alone(model, f, None)[1])


class TestBatchedEvaluate:
    CFG = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                      selection=SelectionConfig(kind="gpool"), seed=36)

    def _spy_forward(self, monkeypatch):
        shapes = []

        def spy(model, feats, scenes):
            shapes.append((len(feats), max(f.shape[0] for f in feats),
                           max(f.shape[1] for f in feats), model.cfg.d))
            return _forward(model, feats, scenes)

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
        # Sorted by (channels, frames), a batch's longest utterance may come
        # before a wider one.
        utts = ragged_utterances([(c, t) for c in (4, 5, 6) for t in range(1, 41, 2)])
        shapes = self._spy_forward(monkeypatch)
        evaluate(model, utts, all_pair_trials(utts))
        assert sum(b for b, *_ in shapes) == len(utts)
        assert 1 < len(shapes) < len(utts)
        for b, c, t, _ in shapes:
            assert b * c * t * (t + c) <= trainer.EVAL_BATCH_ENTRIES

    @pytest.mark.parametrize("mechanism", ["gcn", "sam"])
    def test_inference_records_nothing(self, mechanism, monkeypatch):
        # evaluate and embed read the parameters as constants: their forward
        # records no edge, no parameter's grad changes, and the embeddings are
        # the recording forward's, bit for bit.
        model = Model.init(replace(self.CFG, mechanism=mechanism), n_speakers=3)
        utts = ragged_utterances(RAGGED_SHAPES)
        grads = {p.name: p.grad for p in model.params}
        calls = []

        def spy(m, feats, scenes):
            result = _forward(m, feats, scenes)
            calls.append((result[0], _forward(model, feats, scenes)[0]))
            return result

        monkeypatch.setattr(trainer, "_forward", spy)
        evaluate(model, utts, all_pair_trials(utts))
        embed(model, utts["r0"].features, utts["r0"].scene)
        assert [inference.shape[0] for inference, _ in calls] == [len(utts), 1]
        for inference, recording in calls:
            assert inference._edges == () and not inference.requires_grad
            assert recording.requires_grad
            assert np.array_equal(inference.data, recording.data)
        assert all(p.grad is grads[p.name] and not p.grad.any() for p in model.params)

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

    @pytest.mark.parametrize("hyper", [{"lr": -1e-3}, {"lr": float("nan")}, {"momentum": -0.1},
                                       {"momentum": 1.0}, {"momentum": 1.5}],
                             ids=["lr_negative", "lr_nan", "momentum_negative", "momentum_one",
                                  "momentum_over_one"])
    def test_hyper_out_of_range_rejected(self, hyper):
        with pytest.raises(ValueError, match=next(iter(hyper))):
            TrainHyper(**hyper)

    def test_hyper_bounds_are_inclusive_at_zero(self):
        hyper = TrainHyper(lr=0.0, momentum=0.0)  # lr 0 freezes; momentum 0 is plain SGD
        assert (hyper.lr, hyper.momentum) == (0.0, 0.0)

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

    @pytest.mark.parametrize("selection", ["none", "prior", "gpool"])
    @pytest.mark.parametrize("n_blocks", [1, 0], ids=["gcn", "mean"])
    def test_ragged_training_set_trains(self, n_blocks, selection):
        # Arrays of 2 to 8 channels and 3 or 5 frames, batched as they are drawn.
        utts = ragged_utterances([(c, t) for c in range(2, 9) for t in (3, 5)] * 2, seed=46)
        cfg = ModelConfig(n_blocks=n_blocks, heads=2, d=8,
                          selection=SelectionConfig(kind=selection), seed=16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # prior fallbacks on two-channel arrays
            model, curve = train_second_stage(list(utts.values()), cfg,
                                              TrainHyper(epochs=4, batch_size=4))
        assert len(curve) == 4 and np.all(np.isfinite(curve))
        assert curve[-1] < curve[0]

    def test_feature_width_checked_before_training(self):
        dataset = toy_dataset(c=3, t=4, d=8)
        dataset.append(Utterance("wide", 1, FrameTensor(np.ones((3, 4, 6)))))
        cfg = ModelConfig(n_blocks=1, heads=2, d=8)
        with pytest.raises(dc.ShapeError, match=r"model.d = 8.*'wide'"):
            train_second_stage(dataset, cfg, TrainHyper(epochs=1))

    def test_gcn_prior_training_is_pinned_bit_for_bit(self):
        # Freeing each graph inside its backward changes no arithmetic, so
        # the loss curve and the embeddings match these values exactly.
        utts = list(ragged_utterances([(c, t) for c in (4, 6, 7) for t in (3, 5)] * 2,
                                      seed=61).values())
        cfg = ModelConfig(mechanism="gcn", n_blocks=2, heads=2, d=8,
                          spatial_graph=GraphSpec("knn", k=2),
                          temporal_graph=GraphSpec("span", delta=1),
                          selection=SelectionConfig(kind="prior", rho=0.7), seed=61)
        model, curve = train_second_stage(utts, cfg, TrainHyper(epochs=3, batch_size=4))
        assert [v.hex() for v in curve] == PINNED_CURVE
        for i, pinned in PINNED_EMBEDDINGS.items():
            emb = embed(model, utts[i].features.data, utts[i].scene)
            assert [float(v).hex() for v in emb] == pinned

    def test_a_step_graph_dies_in_its_backward(self):
        # The next step's forward never runs beside the last step's graph, so
        # a second step adds nothing to a job's traced peak.
        utts = list(ragged_utterances([(12, 30)] * 8, d=16, seed=5).values())
        cfg = ModelConfig(mechanism="gcn", n_blocks=2, heads=2, d=16, seed=3)
        peaks = []
        for epochs in (1, 2):
            tracemalloc.start()
            try:
                train_second_stage(utts, cfg, TrainHyper(epochs=epochs, batch_size=8))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.3 * peaks[0]

    def test_mean_baseline_trains_only_head(self):
        dataset = toy_dataset(c=2, t=3, d=8)
        cfg = replace(MEAN, d=8, seed=15)
        model, _ = train_second_stage(dataset, cfg, TrainHyper(epochs=2))
        assert model.params.names() == ["head.w", "head.b"]


class TestFinitenessChecks:
    """A step checks the parameters its update wrote, and the forward pass its embeddings."""

    def test_an_update_that_overflows_is_refused_naming_epoch_and_step(self):
        # Features of order 100 give head.w a gradient over 1.8, so lr * v
        # overflows in the first update.  The suite turns numpy's overflow
        # warning into an error, so the typed error must come first.
        dataset = [replace(u, features=FrameTensor(100.0 * u.features.data))
                   for u in toy_dataset(per_speaker=4, c=2, t=3, d=8)]
        with pytest.raises(dc.NonFiniteError,
                           match=r"training diverged at epoch 0, step 0: .*'head\.w'"):
            train_second_stage(dataset, replace(MEAN, d=8),
                               TrainHyper(lr=1e308, epochs=1, batch_size=8))

    def test_a_nan_embedding_is_refused_naming_epoch_and_step(self, monkeypatch):
        init = Model.init.__func__

        def poisoned(cls, cfg, n_speakers):
            model = init(cls, cfg, n_speakers)
            model.params["block0.spatial.wr"].data[0, 0] = np.nan
            return model

        monkeypatch.setattr(Model, "init", classmethod(poisoned))
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8, seed=17)
        with pytest.raises(dc.NonFiniteError, match="training diverged at epoch 0, step 0: "
                                                    "utterance 0 of the batch has a NaN"):
            train_second_stage(toy_dataset(c=2, t=3, d=8), cfg, TrainHyper(epochs=1))

    @pytest.mark.parametrize("n_blocks, mechanism, selection", [
        (1, "gcn", "none"), (1, "gcn", "gpool"), (1, "gcn", "prior"),
        (1, "sam", "none"), (1, "sam", "gpool"), (1, "sam", "prior"), (0, "gcn", "gpool"),
    ], ids=["gcn-none", "gcn-gpool", "gcn-prior", "sam-none", "sam-gpool", "sam-prior",
            "mean-gpool"])
    def test_a_nan_parameter_makes_embed_and_evaluate_raise(self, n_blocks, mechanism, selection):
        utts = ragged_utterances([(4, 5)] * 6, seed=62)
        cfg = ModelConfig(mechanism=mechanism, n_blocks=n_blocks, heads=2, d=8,
                          selection=SelectionConfig(kind=selection, rho=0.7), seed=62)
        model, _ = train_second_stage(list(utts.values()), cfg, TrainHyper(epochs=1, batch_size=4))
        trials = all_pair_trials(utts)
        read = [p for p in model.params if not p.name.startswith("head.")]  # the head trains only
        assert read
        for p in read:
            kept = p.data.flat[0]
            p.data.flat[0] = np.nan
            with pytest.raises(dc.NonFiniteError):
                embed(model, utts["r0"].features, utts["r0"].scene)
            with pytest.raises(dc.NonFiniteError):
                evaluate(model, utts, trials)
            p.data.flat[0] = kept


class FakeLibc:
    """A C library whose ``mallopt`` records its calls and returns ``result``."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result
        self.mallopt = mallopt


class TestAllocatorPolicy:
    @pytest.fixture
    def fresh_process(self, monkeypatch):
        """Makes the process look new, with the given C library, until the test ends."""
        def start(libc):
            monkeypatch.setattr(trainer, "_allocator_policy_set", False)
            monkeypatch.setattr(trainer, "_libc", lambda: libc)
        return start

    def test_both_thresholds_are_set_once_per_process(self, fresh_process):
        libc = FakeLibc()
        fresh_process(libc)
        utts = toy_dataset(c=3, t=4, d=8)
        train_second_stage(utts, ModelConfig(n_blocks=1, heads=2, d=8), TrainHyper(epochs=2))
        embed(Model.init(ModelConfig(n_blocks=1, heads=2, d=8), n_speakers=2), utts[0].features)
        assert libc.calls == [(-3, 32 << 20), (-1, 256 << 20)]

    @pytest.mark.parametrize("libc, calls", [
        (object(), None),  # no mallopt
        (FakeLibc(result=0), [(-3, 32 << 20)]),  # refuses: the trim threshold is left alone
    ], ids=["no_mallopt", "mallopt_refuses"])
    def test_a_libc_without_the_policy_trains_as_before(self, fresh_process, libc, calls):
        utts = toy_dataset(c=3, t=4, d=8)
        cfg = ModelConfig(n_blocks=1, heads=2, d=8, seed=4)
        model, curve = train_second_stage(utts, cfg, TrainHyper(epochs=2))
        fresh_process(libc)
        again, curve_again = train_second_stage(utts, cfg, TrainHyper(epochs=2))
        assert [v.hex() for v in curve_again] == [v.hex() for v in curve]
        assert all(np.array_equal(p.data, q.data) for p, q in zip(model.params, again.params))
        assert getattr(libc, "calls", None) == calls and trainer._allocator_policy_set

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    def test_a_second_training_job_reuses_the_freed_heap(self):
        # At train-small's size (C=8, T=20, D=16, gcn, gpool, batch 8), glibc's
        # default thresholds trim the heap after every step, and each step
        # then faults its pages back in: about 5.8k minor faults in this job.
        import resource  # POSIX only, like the skip condition

        rng = np.random.default_rng(71)
        codebook = make_codebook(4, 16, seed=71)
        sim = SimConfig(n_nodes=8, t=20, d=16, n_speakers=4)
        utts = [Utterance(f"u{i}", i % 4, synth_features(sample_scene(rng, sim), i % 4,
                                                         codebook, rng, sim))
                for i in range(64)]
        cfg = ModelConfig(mechanism="gcn", n_blocks=2, heads=4, d=16,
                          selection=SelectionConfig(kind="gpool"), seed=71)
        train_second_stage(utts, cfg, TrainHyper(epochs=1, batch_size=8))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_second_stage(utts, cfg, TrainHyper(epochs=1, batch_size=8))
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


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
        model = Model.init(replace(MEAN, d=8), n_speakers=3)
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
        with pytest.raises(ProtocolError, match="utterance 's2_0' has a zero embedding"):
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
        assert [t.label for t in trials.trials] == ["target"] * 10 + ["nontarget"] * 15
        by_id = {u.utt_id: u for u in utts}
        for t in trials.trials:
            same = by_id[t.enroll_id].speaker == by_id[t.test_id].speaker
            assert same == (t.label == "target")
            assert t.enroll_id != t.test_id

    def test_generate_pairs_only_pairable_utterances(self):
        # Speaker 2 has one utterance: it is never a target speaker, but it
        # is a nontarget speaker; utterance lists are not grouped by speaker.
        utts = [Utterance(f"x{i}", spk, FrameTensor(np.ones((1, 1, 2))))
                for i, spk in enumerate([7, 2, 7, 0, 0, 7, 0])]
        trials = generate_trials(utts, n_target=200, n_nontarget=200,
                                 rng=np.random.default_rng(4))
        speaker = {u.utt_id: u.speaker for u in utts}
        targets = [t for t in trials.trials if t.label == "target"]
        assert all(speaker[t.enroll_id] == speaker[t.test_id] != 2 for t in targets)
        assert all(t.enroll_id != t.test_id for t in targets)
        nontargets = [t for t in trials.trials if t.label == "nontarget"]
        assert all(speaker[t.enroll_id] != speaker[t.test_id] for t in nontargets)
        assert any("x1" in (t.enroll_id, t.test_id) for t in nontargets)

    def test_generate_is_seeded(self):
        utts = toy_dataset(n_speakers=4, per_speaker=3, c=1, t=1, d=4)
        a, b, c = (generate_trials(utts, 20, 30, np.random.default_rng(seed))
                   for seed in (8, 8, 9))
        assert a == b and a != c

    def test_generate_draws_uniform_pairs(self):
        # 15000 + 15000 trials on 3 speakers x 3 utterances: each ordered
        # pair of one speaker's utterances is expected 15000 / 18 times,
        # each ordered pair of speakers 15000 / 6 times.
        utts = toy_dataset(n_speakers=3, per_speaker=3, c=1, t=1, d=4)
        trials = generate_trials(utts, 15000, 15000, np.random.default_rng(2026))
        speaker = {u.utt_id: u.speaker for u in utts}
        targets, nontargets = Counter(), Counter()
        for t in trials.trials:
            if t.label == "target":
                targets[t.enroll_id, t.test_id] += 1
            else:
                nontargets[speaker[t.enroll_id], speaker[t.test_id]] += 1
        assert sorted(targets) == sorted((a.utt_id, b.utt_id) for a in utts for b in utts
                                         if a.speaker == b.speaker and a is not b)
        assert sorted(nontargets) == [(i, j) for i in range(3) for j in range(3) if i != j]
        for count in targets.values():
            assert abs(count - 15000 / 18) <= 0.15 * 15000 / 18
        for count in nontargets.values():
            assert abs(count - 15000 / 6) <= 0.15 * 15000 / 6

    @pytest.mark.parametrize("n_target, n_nontarget, name", [(-2, 3, "n_target"),
                                                              (3, -1, "n_nontarget")])
    def test_generate_refuses_negative_counts(self, n_target, n_nontarget, name):
        utts = toy_dataset(n_speakers=2, per_speaker=2, c=1, t=1, d=4)
        with pytest.raises(ValueError, match=f"{name} must be nonnegative, got -"):
            generate_trials(utts, n_target, n_nontarget, np.random.default_rng(0))

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
        # The expected embedding was computed by code whose softmax added and
        # then subtracted the query term of the gcn score, and whose heads were
        # Parameters of their own; the file holds the same numbers with each
        # module's heads stacked, and the result moves by rounding only.
        model = load_model(SEED_CHECKPOINT)
        assert model.cfg == ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                                        selection=SelectionConfig(kind="gpool"), seed=41)
        x = FrameTensor(np.random.default_rng(40).standard_normal((5, 6, 8)))
        assert np.max(np.abs(embed(model, x) - SEED_EMBEDDING)) <= 1e-15

    def test_mean_mechanism_checkpoint_loads_as_zero_blocks(self):
        # First written when MEAN was its own mechanism, and now recorded as the
        # stack of zero blocks.  It holds the head after 2 epochs on the toy
        # set below, and MEAN_EMBEDDING is what that code embedded.
        model = load_model(MEAN_CHECKPOINT)
        assert model.cfg == replace(MEAN, d=8, seed=5) and model.blocks == []
        x = FrameTensor(np.random.default_rng(40).standard_normal((5, 6, 8)))
        assert embed(model, x).tobytes() == MEAN_EMBEDDING.tobytes()
        dataset = toy_dataset(n_speakers=3, per_speaker=4, c=4, t=5, d=8)
        retrained, _ = train_second_stage(dataset, model.cfg, TrainHyper(epochs=2))
        for p in model.params:
            assert p.data.tobytes() == retrained.params[p.name].data.tobytes(), p.name

    def test_seed_checkpoint_holds_the_draws_of_model_init(self):
        # It holds an untrained model, so it pins the draws of Model.init:
        # each head's weights, drawn in turn before the heads were stacked.
        model = load_model(SEED_CHECKPOINT)
        fresh = Model.init(model.cfg, model.n_speakers)
        for p in model.params:
            assert p.data.tobytes() == fresh.params[p.name].data.tobytes(), p.name

    def test_version_1_checkpoint_refused(self, tmp_path):
        header = json.dumps({"format": "adhocsv-checkpoint", "version": 1, "params": [],
                             "config": {}, "n_speakers": 2}).encode()
        path = tmp_path / "model.ckpt"
        path.write_bytes(len(header).to_bytes(8, "little") + header)
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_model(path)

    # Checkpoints record one Parameter per role of each aggregation module.
    @pytest.mark.parametrize("cfg, layout", [
        (ModelConfig(n_blocks=1, heads=2, d=8), {
            "block0.temporal.wr": (8, 8), "block0.temporal.beta": (2, 4),
            "block0.spatial.wr": (8, 8), "block0.spatial.beta": (2, 4)}),
        (ModelConfig(mechanism="sam", n_blocks=1, heads=2, d=8), {
            f"block0.{axis}.{role}": (2, 8, 4)
            for axis in ("temporal", "spatial") for role in ("wq", "wk", "wv")}),
        (ModelConfig(n_blocks=2, heads=4, d=8, selection=SelectionConfig(kind="gpool")), {
            **{f"block{b}.{axis}.{role}": shape for b in range(2)
               for axis in ("temporal", "spatial")
               for role, shape in (("wr", (8, 8)), ("beta", (4, 2)))},
            "gpool.p": (8,)}),
        (ModelConfig(n_blocks=0, d=8), {}),
    ], ids=["gcn", "sam", "gcn_gpool", "mean"])
    def test_version_2_parameter_layout(self, tmp_path, cfg, layout):
        path = tmp_path / "model.ckpt"
        save_model(path, Model.init(cfg, n_speakers=3))
        manifest, _ = load_checkpoint(path)
        assert manifest["version"] == CHECKPOINT_VERSION == 2
        assert {e["name"]: tuple(e["shape"]) for e in manifest["params"]} == {
            **layout, "head.w": (8, 3), "head.b": (3,)}

    # A version-1 query side (wl and a beta of twice the head width per
    # head) is no parameter of any model, so it is refused by name.
    @pytest.mark.parametrize("mechanism, beta_width", [("gcn", 4), ("gcn", 6), ("sam", 8)])
    def test_query_side_without_its_beta_half_rejected(self, tmp_path, mechanism, beta_width):
        model = Model.init(ModelConfig(mechanism=mechanism, n_blocks=1, heads=2, d=8), 2)
        head = "block0.spatial.head1"
        params = list(model.params)
        params.append(Parameter(f"{head}.wl", np.ones((8, 4))))
        params.append(Parameter(f"{head}.beta", np.ones(beta_width)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ParamSet(params),
                        meta={"config": model_config_to_json(model.cfg), "n_speakers": 2})
        with pytest.raises(ValueError, match=f"{head}.wl"):
            load_model(path)

    @pytest.mark.parametrize("section,key,value", [
        (None, "head", "cosine"), (None, "head_scale", 30.0), (None, "warm_start", True),
        (None, "leaky_slope", 0.1),
        ("selection", "pool_all", True), ("selection", "orientation", True),
        ("selection", "k", None), ("selection", "k", 2),
    ])
    def test_removed_setting_rejected(self, tmp_path, section, key, value):
        model = Model.init(ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8), n_speakers=2)
        config = model_config_to_json(model.cfg)
        (config if section is None else config[section])[key] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.params, meta={"config": config, "n_speakers": 2})
        where = "config" if section is None else f"config.{section}"
        with pytest.raises(ValueError, match=re.escape(f"unknown keys in {where}: [{key!r}]")):
            load_model(path)

    @pytest.mark.parametrize("selection", [
        SelectionConfig(), SelectionConfig(kind="prior", rho=0.5, rho_noise=0.2),
        SelectionConfig(kind="gpool"),
    ], ids=["none", "prior", "gpool"])
    @pytest.mark.parametrize("spatial", [GraphSpec(), GraphSpec("knn", k=3)],
                             ids=lambda g: g.kind)
    def test_config_json_round_trip(self, selection, spatial):
        cfg = ModelConfig(n_blocks=1, heads=2, d=8, selection=selection,
                          temporal_graph=GraphSpec("span", delta=1), spatial_graph=spatial, seed=3)
        assert config_from_json(ModelConfig, model_config_to_json(cfg), "config") == cfg

    def test_config_json_layout(self):
        # Checkpoints record this layout; its key order fixes their bytes.
        cfg = ModelConfig(mechanism="sam", n_blocks=3, heads=2, d=8,
                          selection=SelectionConfig(kind="prior", rho=0.5, rho_noise=0.3),
                          temporal_graph=GraphSpec("span", delta=2),
                          spatial_graph=GraphSpec("knn", k=3), seed=5)
        expected = {
            "mechanism": "sam", "n_blocks": 3, "heads": 2, "d": 8,
            "selection": {"kind": "prior", "rho": 0.5, "rho_noise": 0.3},
            "temporal_graph": {"kind": "span", "delta": 2, "k": 4},
            "spatial_graph": {"kind": "knn", "delta": 1, "k": 3},
            "seed": 5,
        }
        assert json.dumps(model_config_to_json(cfg)) == json.dumps(expected)

    # Settings that the model never reads under the others take their
    # defaults, so they cannot tell two configs of one model apart.
    @pytest.mark.parametrize("config, same", [
        (ModelConfig(n_blocks=0), ModelConfig(n_blocks=0, mechanism="sam", heads=2)),
        (ModelConfig(n_blocks=0), ModelConfig(n_blocks=0, temporal_graph=GraphSpec("span"),
                                              spatial_graph=GraphSpec("knn", k=2))),
        (SelectionConfig(kind="none", rho=0.3), SelectionConfig(rho_noise=0.3)),
        (SelectionConfig(kind="gpool"), SelectionConfig(kind="gpool", rho_noise=0.5)),
        (GraphSpec("complete", delta=3), GraphSpec()),
        (GraphSpec("span", delta=2), GraphSpec("span", delta=2, k=1)),
        (GraphSpec("knn", k=2), GraphSpec("knn", delta=0, k=2)),
    ], ids=["mean_mechanism", "mean_graphs", "none_rho", "gpool_noise", "complete_delta",
            "span_k", "knn_delta"])
    def test_unread_settings_do_not_change_equality(self, config, same):
        assert config == same and hash(config) == hash(same)

    @pytest.mark.parametrize("config, other", [
        (ModelConfig(n_blocks=1), ModelConfig(n_blocks=1, mechanism="sam")),
        (SelectionConfig(kind="prior"), SelectionConfig(kind="prior", rho=0.3)),
        (SelectionConfig(kind="prior", rho_noise=0.2), SelectionConfig(kind="prior",
                                                                       rho_noise=0.5)),
        (GraphSpec("span"), GraphSpec("span", delta=3)),
        (GraphSpec("knn"), GraphSpec("knn", k=2)),
    ], ids=["mechanism", "prior_rho", "prior_rho_noise", "span_delta", "knn_k"])
    def test_read_settings_change_equality(self, config, other):
        assert config != other

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
                          selection=SelectionConfig(kind="gpool"), seed=23)
        model = Model.init(cfg, n_speakers=2)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        again = load_model(path)
        assert np.array_equal(again.gpool.data, model.gpool.data)


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
        model = Model.init(replace(MEAN, d=8), n_speakers=2)
        rows = eval_per_node(model, utts, trials)
        assert len(rows) == 3
        assert [r["node"] for r in rows] == [0, 1, 2]
        for r in rows:
            assert 0.0 <= r["eer"] <= 1.0
            assert np.isfinite(r["distance"])

    @pytest.mark.parametrize("kind", ["none", "prior", "gpool"])
    def test_per_node_scores_each_channel_without_selection(self, kind):
        # The reference evaluates single-channel copies with the model itself.
        # gpool keeps 2 of a whole array's 3 channels, and the one channel of
        # each copy, which its gate only scales.
        utts = ragged_utterances([(3, t) for t in (1, 4, 9, 9, 2, 6)], seed=39)
        trials = all_pair_trials(utts)
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8,
                          selection=SelectionConfig(kind=kind), seed=39)
        model = Model.init(cfg, n_speakers=3)
        rows = eval_per_node(model, utts, trials)
        assert [r["node"] for r in rows] == [0, 1, 2]
        for node, row in enumerate(rows):
            sub = {k: Utterance(k, u.speaker, FrameTensor(u.features.data[node:node + 1]),
                                u.scene.subset([node])) for k, u in utts.items()}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # prior fallbacks on one channel
                assert row["eer"] == evaluate(model, sub, trials).eer

    def test_per_node_error_names_its_node(self):
        # Channel 1 of every array is zero, so only its single-channel pass
        # meets a zero embedding; the error keeps its type and names the node.
        utts = ragged_utterances([(3, t) for t in (1, 4, 9, 9, 2, 6)], seed=39)
        for utt_id, u in utts.items():
            data = u.features.data.copy()
            data[1] = 0.0
            utts[utt_id] = replace(u, features=FrameTensor(data))
        trials = all_pair_trials(utts)
        model = Model.init(replace(MEAN, d=8), n_speakers=3)
        evaluate(model, utts, trials)  # the whole arrays embed
        with pytest.raises(ProtocolError, match=r"^node 1: utterance '\w+' has a zero embedding"):
            eval_per_node(model, utts, trials)

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
            assert row["eer"] == eer_from_scores(*split_by_label(trials, scores))[0]
