"""Channel selection: hand-evaluated gates, tie policy, pooling oracles."""

import numpy as np
import pytest

from adhocsv import diffcore as dc
from adhocsv.chansel import (
    ChannelBudgetError,
    DegenerateProjectionError,
    channel_scores,
    gpool_weights,
    init_gpool_params,
    weighted_pool,
)
from adhocsv.diffcore import Parameter, Tensor, vjp_check


def gp(vec, name="p"):
    return Parameter(name, np.asarray(vec, dtype=float))


def gpool_one(zbar, params, k):
    """gpool on one utterance's (C, D) frame means: selected indices, their gates, the embedding."""
    zbar = Tensor(np.asarray(zbar, dtype=float)[None])
    keep, gate = gpool_weights(zbar, params, k)
    idx = np.flatnonzero(keep[0])
    return idx, gate.data[0, idx], weighted_pool(zbar, keep, gate).data[0]


def pool_one(zbar, selected=None):
    """weighted_pool of one utterance's (C, D) frame means over the selected channels.

    Without ``selected``, every channel is kept.
    """
    zbar = np.asarray(zbar, dtype=float)
    keep = np.ones((1, zbar.shape[0])) if selected is None else np.asarray(selected, float)[None]
    return weighted_pool(Tensor(zbar[None]), keep, 1.0).data[0]


class TestGPool:
    def test_hand_evaluated_gates(self):
        # p = [1, 0]; rows score 3, 1, 2; k = 2 keeps channels 0 and 2,
        # gated to 3*sigmoid(3) and 2*sigmoid(2) and averaged.
        z = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # (C=3, D=2)
        idx, gates, emb = gpool_one(z, gp([1.0, 0.0]), k=2)
        assert idx.tolist() == [0, 2]
        assert abs(3.0 * gates[0] - 2.857722) < 1e-6
        assert abs(2.0 * gates[1] - 1.761594) < 1e-6
        assert abs(emb[0] - (2.857722 + 1.761594) / 2) < 1e-6
        assert emb[1] == 0.0

    def test_k_one_keeps_unique_max(self):
        z = np.array([[0.0], [5.0], [1.0]])
        idx, _, _ = gpool_one(z, gp([1.0]), k=1)
        assert idx.tolist() == [1]

    def test_tie_breaks_to_lower_index(self):
        z = np.array([[2.0], [1.0], [2.0]])  # channels 0 and 2 tie
        idx, _, _ = gpool_one(z, gp([1.0]), k=1)
        assert idx.tolist() == [0]

    def test_identical_channels_keep_the_first_k(self):
        # Identical channels must score exactly equal, wherever they sit in the
        # batch, so that the tie rule alone picks the first k.  A BLAS
        # matrix-vector product can round equal rows differently by their
        # position (three identical channels, k = 2, kept [0, 2]).
        rng = np.random.default_rng(12)
        for _ in range(200):
            c, d = int(rng.integers(2, 17)), int(rng.integers(1, 33))
            k = int(rng.integers(1, c + 1))
            rows = rng.standard_normal((2, 1, d))
            z = np.repeat(rows, c, axis=1)  # two utterances, each with c identical channels
            keep, gate = gpool_weights(Tensor(z), gp(rng.standard_normal(d)), k)
            assert keep.tolist() == [[1.0] * k + [0.0] * (c - k)] * 2
            assert np.all(gate.data == gate.data[:, :1])

    def test_scores_from_time_average(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 6, 3))
        p = gp(rng.standard_normal(3))
        q = channel_scores(Tensor(z.mean(axis=1)[None]), p).data[0]
        expected = z.mean(axis=1) @ p.data / np.linalg.norm(p.data)
        assert np.allclose(q, expected, atol=1e-12)

    def test_frame_axis_rejected(self):
        # chansel takes frame means; a (B, C, T, D) batch is the caller's to average.
        z = Tensor(np.zeros((1, 2, 3, 4)))
        with pytest.raises(dc.ShapeError):
            channel_scores(z, gp([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(dc.ShapeError):
            weighted_pool(z, np.ones((1, 2)), 1.0)

    def test_selection_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 5))
        base = rng.standard_normal(5)
        reference, _, _ = gpool_one(z, gp(base), k=3)
        for c in (0.5, 2.0, 173.25):
            scaled, _, _ = gpool_one(z, gp(c * base), k=3)
            assert np.array_equal(scaled, reference)
            order_ref = np.argsort(channel_scores(Tensor(z[None]), gp(base)).data[0],
                                   kind="stable")
            order_scaled = np.argsort(channel_scores(Tensor(z[None]), gp(c * base)).data[0],
                                      kind="stable")
            assert np.array_equal(order_ref, order_scaled)

    def test_gates_strictly_attenuate(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((5, 4))
        idx, gates, emb = gpool_one(z, gp(rng.standard_normal(4)), k=3)
        assert np.all(gates > 0.0) and np.all(gates < 1.0)
        assert np.allclose(emb, (z[idx] * gates[:, None]).mean(axis=0), atol=1e-12)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            c = int(rng.integers(2, 9))
            z = rng.standard_normal((c, 6))
            p = rng.standard_normal(6)
            k = int(rng.integers(1, c + 1))
            idx, _, _ = gpool_one(z, gp(p), k=k)
            q = z @ (p / np.linalg.norm(p))
            oracle = sorted(sorted(range(c), key=lambda i: (-q[i], i))[:k])
            assert idx.tolist() == oracle

    def test_zero_projection_rejected(self):
        z = np.zeros((2, 3))
        with pytest.raises(DegenerateProjectionError):
            gpool_one(z, gp([0.0, 0.0, 0.0]), k=1)

    def test_non_vector_projection_rejected(self):
        z = Tensor(np.zeros((1, 2, 3)))
        for bad in (np.ones((3, 1)), np.ones(())):
            with pytest.raises(dc.ShapeError, match="vector"):
                channel_scores(z, gp(bad))
            with pytest.raises(dc.ShapeError, match="vector"):
                gpool_weights(z, gp(bad), 1)

    def test_k_out_of_range(self):
        z = np.zeros((2, 3))
        params = gp([1.0, 0.0, 0.0])
        for bad in (0, 3):
            with pytest.raises(ValueError):
                gpool_one(z, params, k=bad)

    def test_k_over_channel_count_names_both(self):
        with pytest.raises(ChannelBudgetError, match=r"k=4 .* C=2"):
            gpool_weights(Tensor(np.zeros((3, 2, 3))), gp([1.0, 0.0, 0.0]), 4)

    def test_gradients_at_stable_topk(self):
        rng = np.random.default_rng(4)
        c, d, k = 4, 4, 2
        while True:
            z = rng.standard_normal((c, d))
            p = rng.standard_normal(d)
            q = z @ (p / np.linalg.norm(p))
            gap = np.sort(q)[::-1]
            if gap[k - 1] - gap[k] > 1e-2:  # top-k set stable under FD perturbation
                break
        params = gp(p)

        def fn(zt, pt):
            keep, gate = gpool_weights(zt, params, k)
            return weighted_pool(zt, keep, gate)

        err = vjp_check(fn, [z[None], params], rng=rng)
        assert err < 1e-5

    def test_batched_gradients_at_stable_topk(self):
        # Two utterances scored, chosen and pooled in one batch.
        rng = np.random.default_rng(14)
        b, c, d, k = 2, 4, 4, 2
        while True:
            z = rng.standard_normal((b, c, d))
            p = rng.standard_normal(d)
            gaps = []
            for i in range(b):
                ranked = np.sort(z[i] @ (p / np.linalg.norm(p)))[::-1]
                gaps.append(ranked[k - 1] - ranked[k])
            if min(gaps) > 1e-2:  # both top-k sets stable under FD perturbation
                break
        params = gp(p)

        def fn(zt, pt):
            keep, gate = gpool_weights(zt, params, k)
            return weighted_pool(zt, keep, gate)

        err = vjp_check(fn, [z, params], rng=rng)
        assert err < 1e-5


class TestPriorSelect:
    """Prior selection is weighted_pool with the mask as ``keep`` and no gate."""

    def test_all_true_is_identity(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 2))
        assert np.allclose(pool_one(z, np.ones(4)), z.mean(axis=0), atol=1e-12)

    def test_single_channel(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((4, 2))
        out = pool_one(z, [1.0, 0.0, 0.0, 0.0])
        assert out.shape == (2,)
        assert np.allclose(out, z[0], atol=1e-12)

    def test_matches_row_filter_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = int(rng.integers(2, 9))
            z = rng.standard_normal((c, 4))
            selected = rng.random(c) < 0.5
            if not selected.any():
                selected[int(rng.integers(c))] = True
            oracle = np.stack([z[i] for i in range(c) if selected[i]]).mean(axis=0)
            assert np.allclose(pool_one(z, selected), oracle, atol=1e-12)

    def test_mask_size_mismatch(self):
        z = np.zeros((3, 2))
        with pytest.raises(dc.ShapeError):
            pool_one(z, [1.0, 0.0])

    def test_empty_selection_rejected(self):
        with pytest.raises(dc.ShapeError):
            pool_one(np.zeros((3, 2)), [0.0, 0.0, 0.0])


class TestUtterancePool:
    def test_constant_rows(self):
        r = np.array([1.5, -2.0, 0.25])
        z = np.tile(r, (4, 1))
        assert np.allclose(pool_one(z), r, atol=1e-12)

    def test_two_row_average(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(pool_one(z), [0.5, 0.5])

    def test_matches_loop_sum_oracle(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((3, 4))
        out = pool_one(z)
        acc = np.zeros(4)
        for kk in range(3):
            acc += z[kk]
        assert np.max(np.abs(out - acc / 3)) < 1e-12

    def test_pool_after_select_matches_masked_mean(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((6, 3))
        selected = np.array([True, False, True, True, False, False])
        oracle = z[selected].mean(axis=0)
        assert np.allclose(pool_one(z, selected), oracle, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        err = vjp_check(lambda zt: weighted_pool(zt, np.ones((1, 2)), 1.0),
                        [rng.standard_normal((1, 2, 4))], rng=rng)
        assert err < 1e-8


def test_init_gpool_params_nonzero():
    p = init_gpool_params(8, np.random.default_rng(11))
    assert isinstance(p, Parameter) and p.name == "gpool.p" and p.data.shape == (8,)
    assert np.linalg.norm(p.data) > 0.0
