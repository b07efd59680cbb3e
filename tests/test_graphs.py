"""Graph constructors against brute-force geometry oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocsv import graphs
from adhocsv.graphs import (
    MissingPriorError,
    adjacency_from_mask,
    adjacency_to_json,
    build_complete,
    build_knn,
    build_prior,
    build_temporal_span,
)
from adhocsv.scenesim import Scene
from adhocsv.stagg import GraphSpec, build_graph


def adjacency_from_json(doc: dict) -> np.ndarray:
    """Inverse of ``adjacency_to_json``, validating the document."""
    n = int(doc["n"])
    rows = doc["rows"]
    if len(rows) != n or any(len(r) != n or set(r) - {"0", "1"} for r in rows):
        raise ValueError("malformed adjacency document")
    return np.array([[c == "1" for c in r] for r in rows], dtype=bool)


def make_scene(nodes, speaker=(5.0, 5.0, 2.0), noise=None):
    return Scene(
        room=(10.0, 14.0, 5.0),
        speaker_pos=np.array(speaker),
        noise_pos=None if noise is None else np.array(noise),
        node_pos=np.array(nodes, dtype=float),
        snr_db=10.0,
    )


def line_scene(distances, **kwargs):
    """Nodes along +x from the speaker at the given distances."""
    speaker = np.array([1.0, 7.0, 2.0])
    nodes = [speaker + np.array([d, 0.0, 0.0]) for d in distances]
    return make_scene(nodes, speaker=tuple(speaker), **kwargs)


def random_scene(rng, n_nodes, with_noise=True):
    room = np.array([10.0, 14.0, 5.0])
    return make_scene(
        nodes=rng.uniform(0.2, room - 0.2, size=(n_nodes, 3)),
        speaker=tuple(rng.uniform(0.2, room - 0.2)),
        noise=tuple(rng.uniform(0.2, room - 0.2)) if with_noise else None,
    )


class TestComplete:
    def test_all_ones(self):
        a = build_complete(3)
        assert a.all() and np.array_equal(a, a.T)

    def test_single_node(self):
        assert np.array_equal(build_complete(1), [[True]])

    def test_counting(self):
        a = build_complete(40)
        assert int(a.sum()) == 1600
        assert np.array_equal(a, a.T)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_complete(0)


class TestTemporalSpan:
    def test_zero_span_is_identity(self):
        a = build_temporal_span(4, 0)
        assert np.array_equal(a, np.eye(4, dtype=bool))

    def test_unit_span_is_tridiagonal(self):
        a = build_temporal_span(4, 1)
        expected = np.eye(4, dtype=bool) | np.eye(4, k=1, dtype=bool) | np.eye(4, k=-1, dtype=bool)
        assert np.array_equal(a, expected)

    def test_wide_span_clips_to_complete(self):
        assert build_temporal_span(3, 5).all()

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=15))
    @settings(max_examples=50, deadline=None)
    def test_span_at_least_t_minus_one_is_complete(self, t, delta):
        a = build_temporal_span(t, delta)
        if delta >= t - 1:
            assert np.array_equal(a, build_complete(t))
        assert np.array_equal(a, a.T)
        assert np.all(np.diagonal(a))


class TestKnn:
    def test_nearest_neighbor_rows(self):
        # Nodes on a line: 0 --- 1 - 2 (1 and 2 close together).
        pos = np.array([[0.0, 0, 0], [3.0, 0, 0], [4.0, 0, 0]])
        a = build_knn(pos, k=1)
        assert np.array_equal(a[0], [True, True, False])  # 0's nearest is 1
        assert np.array_equal(a[1], [False, True, True])
        assert np.array_equal(a[2], [False, True, True])

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 10, size=(12, 3))
        k = 4
        a = build_knn(pos, k)
        for u in range(12):
            d = np.linalg.norm(pos - pos[u], axis=1)
            d[u] = np.inf
            nearest = set(np.argsort(d, kind="stable")[:k]) | {u}
            assert set(np.flatnonzero(a[u])) == nearest

    def test_k_over_node_count_links_every_node(self):
        pos = np.array([[0.0, 0, 0], [3.0, 0, 0], [4.0, 0, 0]])
        assert np.array_equal(build_knn(pos, k=4), build_knn(pos, k=2))
        assert build_knn(pos, k=4).all()
        assert np.array_equal(build_knn(pos[:1], k=4), [[True]])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            build_knn(np.zeros((3, 3)), k=-1)


class TestPrior:
    def test_forced_selection_example(self):
        scene = line_scene([1.0, 2.0, 3.0, 4.0])
        mask = build_prior(scene, rho=0.6)
        assert mask.tolist() == [True, True, False, False]
        assert int(mask.sum()) == 2

    def test_rho_one_excludes_farthest(self):
        scene = line_scene([1.0, 2.0, 3.0, 4.0])
        mask = build_prior(scene, rho=1.0)
        adjacency = adjacency_from_mask(mask)
        assert mask.tolist() == [True, True, True, False]
        # The farthest channel keeps only its self-loop.
        assert np.flatnonzero(adjacency[3]).tolist() == [3]
        assert np.flatnonzero(adjacency[0]).tolist() == [0, 1, 2]

    def test_selected_subgraph_complete_and_symmetric(self):
        scene = line_scene([1.0, 1.5, 2.0, 8.0])
        mask = build_prior(scene, rho=0.5)
        adjacency = adjacency_from_mask(mask)
        idx = np.flatnonzero(mask)
        sub = adjacency[np.ix_(idx, idx)]
        assert sub.all()
        assert np.array_equal(adjacency, adjacency.T)

    def test_matches_sort_threshold_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scene = random_scene(rng, n_nodes=40)
            rho = 0.3
            mask = build_prior(scene, rho)
            d = np.linalg.norm(scene.node_pos - scene.speaker_pos, axis=1)
            oracle = {i for i in range(40) if d[i] / d.max() < rho}
            if not oracle:
                oracle = {int(np.argmin(d))}
            assert set(np.flatnonzero(mask)) == oracle

    def test_empty_selection_falls_back_to_nearest(self):
        scene = line_scene([3.0, 4.0, 5.0])
        with pytest.warns(UserWarning):
            mask = build_prior(scene, rho=0.1)
        assert np.flatnonzero(mask).tolist() == [0]

    def test_rho_domain(self):
        scene = line_scene([1.0, 2.0])
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                build_prior(scene, bad)


def reference_prior(scene, rho, rho_noise=None):
    """The prior by its definition, one channel at a time, and whether it fell back."""
    d_spk = [float(np.linalg.norm(p - scene.speaker_pos)) for p in scene.node_pos]
    kept = [d == 0.0 or d / max(d_spk) < rho for d in d_spk]
    if rho_noise is not None:
        d_noise = [float(np.linalg.norm(p - scene.noise_pos)) for p in scene.node_pos]
        kept = [k and (max(d_noise) == 0.0 or not d / max(d_noise) < rho_noise)
                for k, d in zip(kept, d_noise)]
    if any(kept):
        return kept, False
    return [i == d_spk.index(min(d_spk)) for i in range(len(d_spk))], True


def prior_and_warnings(scene, rho, rho_noise=None):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mask = build_prior(scene, rho, rho_noise)
    return mask, caught


class TestNoiseMask:
    """The noise test of :func:`build_prior`, given ``rho_noise``."""

    def test_on_noise_removed_farthest_kept(self):
        # Nodes 0 and 1 pass the speaker test (node 2 is the farthest from
        # the speaker); the noise sits on node 0, and node 1 is the farthest from it.
        noise = (5.0, 5.0, 2.0)
        nodes = [noise, (9.0, 13.0, 4.0), (1.0, 1.0, 1.0)]
        scene = make_scene(nodes, speaker=(7.0, 9.0, 3.0), noise=noise)
        assert build_prior(scene, rho=1.0).tolist() == [True, True, False]
        assert build_prior(scene, rho=1.0, rho_noise=0.2).tolist() == [False, True, False]

    def test_ratio_one_survives_strict_inequality(self):
        # Node 0 is the farthest from the speaker; node 1 the farthest from the noise.
        noise = (1.0, 1.0, 1.0)
        nodes = [(2.0, 1.0, 1.0), (9.0, 13.0, 4.0), (1.0, 12.0, 1.0)]
        scene = make_scene(nodes, speaker=(8.0, 12.0, 4.0), noise=noise)
        assert build_prior(scene, rho=1.0).tolist() == [False, True, True]
        assert build_prior(scene, rho=1.0, rho_noise=1.0).tolist() == [False, True, False]

    def test_matches_threshold_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            scene = random_scene(rng, n_nodes=20)
            out = build_prior(scene, rho=1.0, rho_noise=0.2)
            d = np.linalg.norm(scene.node_pos - scene.speaker_pos, axis=1)
            dn = np.linalg.norm(scene.node_pos - scene.noise_pos, axis=1)
            oracle = {i for i in range(20) if d[i] / d.max() < 1.0 and not dn[i] / dn.max() < 0.2}
            if oracle:
                assert set(np.flatnonzero(out)) == oracle

    def test_requires_noise_source(self):
        # The one node is the farthest from the speaker, so the speaker test
        # alone keeps nothing; the missing source is reported before any fallback.
        scene = make_scene([(2.0, 2.0, 2.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MissingPriorError, match="noise source"):
                build_prior(scene, 1.0, rho_noise=0.2)
        assert issubclass(MissingPriorError, ValueError)

    def test_never_adds_channels(self):
        scene = make_scene([(7.0, 5.0, 2.0), (8.0, 5.0, 2.0), (6.0, 5.0, 2.0)],
                           noise=(1.0, 1.0, 1.0))
        base = build_prior(scene, rho=1.0)
        assert base.tolist() == [True, False, True]
        for rho_noise in (0.1, 0.5, 0.8):
            out = build_prior(scene, rho=1.0, rho_noise=rho_noise)
            assert not (out & ~base).any()

    def test_empty_fallback(self):
        # Nodes 0 and 1 pass the speaker test and sit by the noise source;
        # node 0 is the nearest to the speaker.  The fallback warns once.
        nodes = [(3.0, 5.0, 2.0), (3.0, 5.5, 2.0), (9.0, 13.0, 4.0)]
        scene = make_scene(nodes, speaker=(5.0, 5.0, 2.0), noise=(3.0, 5.0, 2.0))
        assert build_prior(scene, rho=0.6).tolist() == [True, True, False]
        out, caught = prior_and_warnings(scene, 0.6, rho_noise=0.2)
        assert np.flatnonzero(out).tolist() == [0]
        assert len(caught) == 1 and issubclass(caught[0].category, UserWarning)


class TestOnePrior:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from(["random", "on_speaker", "node_on_noise", "no_noise"]),
           st.floats(min_value=0.01, max_value=1.0),
           st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_definition_and_warns_at_most_once(self, n, seed, layout, rho,
                                                            rho_noise):
        rng = np.random.default_rng(seed)
        scene = random_scene(rng, n_nodes=n)
        if layout == "on_speaker":
            scene = make_scene([scene.speaker_pos] * n, speaker=scene.speaker_pos,
                               noise=scene.noise_pos)
        elif layout == "node_on_noise":
            nodes = scene.node_pos.copy()
            nodes[rng.integers(n)] = scene.noise_pos
            scene = make_scene(nodes, speaker=scene.speaker_pos, noise=scene.noise_pos)
        elif layout == "no_noise":
            scene = make_scene(scene.node_pos, speaker=scene.speaker_pos)
        if scene.noise_pos is None and rho_noise is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # checked before any fallback could warn
                with pytest.raises(MissingPriorError):
                    build_prior(scene, rho, rho_noise)
            return
        mask, caught = prior_and_warnings(scene, rho, rho_noise)
        expected, fell_back = reference_prior(scene, rho, rho_noise)
        assert mask.dtype == np.bool_ and mask.tolist() == expected
        assert len(caught) == int(fell_back)

    def test_noise_threshold_domain(self):
        scene = random_scene(np.random.default_rng(7), n_nodes=3, with_noise=False)
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="rho_noise must lie in"):
                build_prior(scene, 0.5, rho_noise=bad)


class TestMaskComposition:
    @given(st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_masks_never_add_channels(self, seed):
        # The noise test only removes channels from the speaker test's mask,
        # or leaves the nearest channel, which that mask keeps whenever it keeps any.
        rng = np.random.default_rng(seed)
        scene = random_scene(rng, n_nodes=10)
        before = set(np.flatnonzero(build_prior(scene, rho=0.8)))
        after, _ = prior_and_warnings(scene, 0.8, rho_noise=0.3)
        assert set(np.flatnonzero(after)) <= before


class TestGraphArrays:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_bool_square_with_self_loops(self, n, param, seed):
        # param is the span half-window and the knn k, so k >= n is drawn too.
        rng = np.random.default_rng(seed)
        scene = random_scene(rng, n_nodes=n)
        prior, _ = prior_and_warnings(scene, rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
        for a in (build_graph(GraphSpec("complete"), n),
                  build_graph(GraphSpec("span", delta=param), n),
                  build_graph(GraphSpec("knn", k=param), n, scene.node_pos),
                  adjacency_from_mask(prior),
                  adjacency_from_mask(rng.random(n) < 0.5)):
            assert a.dtype == np.bool_ and a.shape == (n, n)
            assert np.diagonal(a).all()


class TestNeighborsAndJson:
    def test_json_round_trip(self):
        a = build_temporal_span(5, 1)
        doc = adjacency_to_json(a)
        assert doc["n"] == 5 and len(doc["rows"]) == 5
        b = adjacency_from_json(doc)
        assert np.array_equal(a, b)
        assert b.dtype == bool and np.array_equal(b, b.T)

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            adjacency_from_json({"n": 2, "rows": ["10"]})
        with pytest.raises(ValueError):
            adjacency_from_json({"n": 2, "rows": ["1x", "01"]})

    def test_adjacency_from_mask(self):
        mask = np.array([True, False, True])
        a = adjacency_from_mask(mask)
        expected = np.array([
            [True, False, True],
            [False, True, False],
            [True, False, True],
        ])
        assert np.array_equal(a, expected)
