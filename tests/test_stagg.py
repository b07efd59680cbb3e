"""Aggregation mechanisms against loop-level reference implementations."""

import json
import math

import numpy as np
import pytest

from adhocsv import diffcore as dc
from adhocsv.diffcore import Parameter, ParamSet, Tensor, vjp_check
from adhocsv.scenesim import FrameTensor
from adhocsv.stagg import (
    AggParams,
    GraphSpec,
    build_graph,
    gcn_agg,
    init_agg_params,
    init_stack_params,
    load_checkpoint,
    restrict,
    sam_agg,
    save_checkpoint,
    st_stack,
)


def reference_masked_attention(x, adj, heads):
    """Loop-level multi-head attention with a row-masked softmax.

    ``heads`` is a list of (wq, wk, wv) arrays.  Written step by step
    with explicit sums; deliberately unvectorized.
    """
    n = x.shape[0]
    outs = []
    for wq, wk, wv in heads:
        d = wq.shape[1]
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                scores[a, b] = sum(q[a, c] * k[b, c] for c in range(d)) / math.sqrt(d)
        weights = np.zeros((n, n))
        for a in range(n):
            den = sum(math.exp(scores[a, j]) for j in range(n) if adj[a, j])
            for b in range(n):
                if adj[a, b]:
                    weights[a, b] = math.exp(scores[a, b]) / den
        outs.append(weights @ v)
    return np.concatenate(outs, axis=1)


def reference_additive_attention(x, adj, heads, slope):
    """Loop-level additive attention: score = beta . LeakyReLU([g_l_i; g_r_j])."""
    n = x.shape[0]
    outs = []
    for wl, wr, beta in heads:
        gl, gr = x @ wl, x @ wr
        scores = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                cat = np.concatenate([gl[i], gr[j]])
                act = np.where(cat >= 0, cat, slope * cat)
                scores[i, j] = float(beta @ act)
        h = np.zeros((n, gr.shape[1]))
        for a in range(n):
            den = sum(math.exp(scores[a, j]) for j in range(n) if adj[a, j])
            for i in range(n):
                if adj[a, i]:
                    h[a] += math.exp(scores[a, i]) / den * gr[i]
        outs.append(h)
    return np.concatenate(outs, axis=1)


def reference_unmasked_mha(x, heads):
    """Plain multi-head self-attention (no mask) for the complete-graph check."""
    outs = []
    for wq, wk, wv in heads:
        d = wq.shape[1]
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = q @ k.T / math.sqrt(d)
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        outs.append(weights @ v)
    return np.concatenate(outs, axis=1)


def head_arrays(params):
    """Per-head arrays for the loop references.

    A gcn head holds only the key side (its column block of wr and its row of
    beta).  It is padded with a random query side (wl and the query half of
    beta), which the reference scores with and the softmax must cancel.
    """
    w = {role: p.data for role, p in params.weights.items()}
    if params.mechanism == "sam":
        return list(zip(w["wq"], w["wk"], w["wv"]))
    rng = np.random.default_rng(100)
    h, d_head = w["beta"].shape
    wr = np.split(w["wr"], h, axis=1)
    return [(rng.standard_normal(wr[m].shape), wr[m],
             np.concatenate([rng.standard_normal(d_head), w["beta"][m]])) for m in range(h)]


def temporal_spatial_vjp(agg, x, a_t, a_s, temporal, spatial, leaves, rng):
    """vjp_check of a temporal then a spatial call on (B, C, T, D) ``x``.

    ``leaves`` is "x" (the weights held constant) or "weights" (x constant).
    """
    if leaves == "x":
        temporal, spatial = (
            AggParams(params.mechanism, {role: Parameter(p.name, p.data, requires_grad=False)
                                         for role, p in params.weights.items()})
            for params in (temporal, spatial))

    def fn(*args):
        xt = args[0] if leaves == "x" else Tensor(x)
        mid = dc.transpose(agg(xt, a_t, temporal), (0, 2, 1, 3))
        return dc.transpose(agg(mid, a_s, spatial), (0, 2, 1, 3))

    inputs = [x] if leaves == "x" else temporal.parameters() + spatial.parameters()
    return vjp_check(fn, inputs, rng=rng)


def padded_and_per_utterance_masks(rng, c, t):
    """Masks for two utterances: a (2, 1, T, T) span mask whose utterance 1 pads
    its last two frames, and a (2, 1, C, C) mask holding each one's channel graph."""
    a_t = restrict(build_graph(GraphSpec("span", delta=1), t),
                   np.arange(t) < np.array([[t], [t - 2]]))[:, None]
    return a_t, np.stack([random_mask(rng, c) for _ in range(2)])[:, None]


def random_mask(rng, n):
    mask = rng.random((n, n)) < 0.5
    np.fill_diagonal(mask, True)
    return mask


def make_sam_params(weights):
    """sam weights from a list of per-head (wq, wk, wv) arrays."""
    return AggParams("sam", {role: Parameter(f"t.{role}", np.stack(w))
                             for role, w in zip(("wq", "wk", "wv"), zip(*weights))})


def make_gcn_params(weights):
    """gcn weights from a list of per-head (wr, beta) arrays."""
    wr, beta = zip(*weights)
    return AggParams("gcn", {"wr": Parameter("t.wr", np.concatenate(wr, axis=1)),
                             "beta": Parameter("t.beta", np.stack(beta))})


def assert_unseen_nodes_leave_rows(agg, x, mask, params, tol):
    """Perturbing node j leaves every output row i with no edge (i, j) within ``tol``.

    ``x`` is (..., N, D) and ``mask`` broadcasts to (..., N, N).  Row j
    itself sees j, so each perturbation also checks that it moves the output.
    """
    n = x.shape[-2]
    mask = np.broadcast_to(mask, x.shape[:-1] + (n,))
    base = agg(Tensor(x), mask, params).data
    for j in range(n):
        moved = x.copy()
        moved[..., j, :] += 1.0
        out = agg(Tensor(moved), mask, params).data
        unseen = ~mask[..., :, j]
        assert np.max(np.abs(out - base)[unseen], initial=0.0) <= tol
        assert np.all(np.abs(out - base)[..., j, :].max(axis=-1) > 0.0)


class TestInitAggParams:
    @pytest.mark.parametrize("mechanism", ["gcn", "sam"])
    def test_heads_stack_their_draws_in_turn(self, mechanism):
        # Each head draws its weights in turn (gcn also draws and drops a query
        # side), so a seed gives the numbers it gave heads of their own.
        d, h, d_head = 8, 2, 4
        params = init_agg_params(mechanism, d, h, np.random.default_rng(47), "t")
        rng = np.random.default_rng(47)
        b = 1.0 / math.sqrt(d)
        for m in range(h):
            if mechanism == "sam":
                for role in ("wq", "wk", "wv"):
                    want = rng.uniform(-b, b, (d, d_head))
                    assert np.array_equal(params.weights[role].data[m], want), role
            else:
                beta = rng.uniform(-1 / math.sqrt(2 * d_head), 1 / math.sqrt(2 * d_head),
                                   2 * d_head)
                rng.uniform(-b, b, (d, d_head))
                wr = rng.uniform(-b, b, (d, d_head))
                assert np.array_equal(params.weights["beta"].data[m], beta[d_head:])
                assert np.array_equal(np.split(params.weights["wr"].data, h, axis=1)[m], wr)
        roles = ("wq", "wk", "wv") if mechanism == "sam" else ("wr", "beta")
        assert [p.name for p in params.parameters()] == [f"t.{role}" for role in roles]


class TestSamAgg:
    def test_single_node_returns_value_row(self):
        d = 3
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, d))
        params = make_sam_params([(rng.standard_normal((d, d)), rng.standard_normal((d, d)),
                                   np.eye(d))])
        out = sam_agg(Tensor(x), build_graph(GraphSpec(), 1), params)
        assert np.allclose(out.data, x, atol=1e-12)

    def test_identical_rows_give_identical_outputs(self):
        rng = np.random.default_rng(1)
        d = 4
        row = rng.standard_normal(d)
        x = np.stack([row, row])
        params = init_agg_params("sam", d, 2, rng, "t")
        out = sam_agg(Tensor(x), build_graph(GraphSpec(), 2), params).data
        assert np.allclose(out[0], out[1], atol=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, d, m = 5, 8, 2
            x = rng.standard_normal((n, d))
            adj = random_mask(rng, n)
            params = init_agg_params("sam", d, m, rng, "t")
            out = sam_agg(Tensor(x), adj, params).data
            ref = reference_masked_attention(x, adj, head_arrays(params))
            assert np.max(np.abs(out - ref)) < 1e-10

    def test_complete_graph_equals_unmasked_mha(self):
        rng = np.random.default_rng(3)
        n, d, m = 6, 8, 4
        x = rng.standard_normal((n, d))
        params = init_agg_params("sam", d, m, rng, "t")
        out = sam_agg(Tensor(x), build_graph(GraphSpec(), n), params).data
        ref = reference_unmasked_mha(x, head_arrays(params))
        assert np.max(np.abs(out - ref)) < 1e-10

    def test_masked_pairs_get_zero_weight(self):
        # The softmax shifts each row by the max over its own neighbors, so a
        # node outside the row's neighborhood leaves it unchanged bit for bit.
        rng = np.random.default_rng(4)
        n, d = 5, 4
        adj = random_mask(rng, n)
        params = init_agg_params("sam", d, 2, rng, "t")
        assert_unseen_nodes_leave_rows(sam_agg, rng.standard_normal((n, d)), adj, params, 0.0)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        n, d, m = 4, 6, 2
        x = rng.standard_normal((n, d))
        adj = random_mask(rng, n)
        params = init_agg_params("sam", d, m, rng, "t")

        def fn(xt, *ps):
            return sam_agg(xt, adj, params)

        err = vjp_check(fn, [x] + params.parameters(), rng=rng)
        assert err < 1e-5

    @pytest.mark.parametrize("leaves", ["x", "weights"])
    def test_batched_gradients_with_padded_and_per_utterance_masks(self, leaves):
        # A temporal then a spatial call on (B, C, T, D), as in the gcn test.
        b, c, t, d = 2, 3, 5, 4
        rng = np.random.default_rng(47)
        a_t, a_s = padded_and_per_utterance_masks(rng, c, t)
        x = rng.standard_normal((b, c, t, d))
        temporal, spatial = (init_agg_params("sam", d, 2, rng, f"block0.{axis}")
                             for axis in ("temporal", "spatial"))
        assert temporal_spatial_vjp(sam_agg, x, a_t, a_s, temporal, spatial, leaves, rng) < 1e-5

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        params = init_agg_params("sam", 4, 2, rng, "t")
        with pytest.raises(dc.ShapeError):
            sam_agg(Tensor(rng.standard_normal((3, 5))), build_graph(GraphSpec(), 3), params)


class TestGcnAgg:
    def test_single_node_with_identity_key(self):
        d = 3
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, d))
        params = make_gcn_params([(np.eye(d), rng.standard_normal(d))])
        out = gcn_agg(Tensor(x), build_graph(GraphSpec(), 1), params)
        assert np.allclose(out.data, x, atol=1e-12)

    def test_zero_beta_gives_neighborhood_mean(self):
        rng = np.random.default_rng(8)
        n, d = 4, 4
        x = rng.standard_normal((n, d))
        wr = rng.standard_normal((d, d))
        params = make_gcn_params([(wr, np.zeros(d))])
        out = gcn_agg(Tensor(x), build_graph(GraphSpec(), n), params).data
        gr = x @ wr
        assert np.allclose(out, np.tile(gr.mean(axis=0), (n, 1)), atol=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, d, m = 6, 4, 4
            x = rng.standard_normal((n, d))
            adj = random_mask(rng, n)
            params = init_agg_params("gcn", d, m, rng, "t")
            out = gcn_agg(Tensor(x), adj, params).data
            ref = reference_additive_attention(x, adj, head_arrays(params), 0.2)
            assert np.max(np.abs(out - ref)) < 1e-10

    def test_masked_pairs_get_zero_weight(self):
        # The weights shift by the max over the whole slice, which a
        # perturbed node can move, so unseen rows agree up to rounding.
        rng = np.random.default_rng(10)
        n, d = 5, 4
        adj = random_mask(rng, n)
        params = init_agg_params("gcn", d, 2, rng, "t")
        assert_unseen_nodes_leave_rows(gcn_agg, rng.standard_normal((n, d)), adj, params, 1e-12)

    def test_gradients_away_from_activation_kinks(self):
        rng = np.random.default_rng(11)
        n, d, m = 4, 4, 2
        adj = random_mask(rng, n)
        while True:
            x = rng.standard_normal((n, d))
            params = init_agg_params("gcn", d, m, rng, "t")
            if np.abs(x @ params.weights["wr"].data).min() > 1e-3:
                break

        def fn(xt, *ps):
            return gcn_agg(xt, adj, params)

        err = vjp_check(fn, [x] + params.parameters(), rng=rng)
        assert err < 1e-5

    def test_mask_not_broadcasting_over_the_batch_raises(self):
        rng = np.random.default_rng(45)
        params = init_agg_params("gcn", 4, 2, rng, "t")
        with pytest.raises(dc.ShapeError):
            gcn_agg(Tensor(rng.standard_normal((2, 5, 4))), np.ones((3, 5, 5), dtype=bool), params)

    def test_empty_row_in_one_batch_slice_raises(self):
        rng = np.random.default_rng(46)
        params = init_agg_params("gcn", 4, 2, rng, "t")
        mask = np.ones((3, 1, 5, 5), dtype=bool)
        mask[1, 0, 2, :] = False
        with pytest.raises(dc.EmptyNeighborhoodError):
            gcn_agg(Tensor(rng.standard_normal((3, 2, 5, 4))), mask, params)

    def test_underflowing_neighborhood_raises(self):
        # Node 0 scores 900 above every other node, so the weights of nodes
        # 1..5 underflow to zero and nodes 2..5, which do not see node 0 on
        # a delta = 1 span graph, are left with no weight at all.
        x = np.zeros((6, 2))
        x[0, 0] = 1.0
        params = make_gcn_params([(np.eye(2), np.array([900.0, 1.0]))])
        with pytest.raises(dc.NonFiniteError, match="gcn"):
            gcn_agg(Tensor(x), build_graph(GraphSpec("span", delta=1), 6), params)

    @pytest.mark.parametrize("leaves", ["x", "weights"])
    def test_batched_gradients_with_padded_and_per_utterance_masks(self, leaves):
        # A temporal then a spatial call on (B, C, T, D): utterance 1 pads its
        # last two frames, and each utterance brings its own channel graph.
        b, c, t, d = 2, 3, 5, 4
        rng = np.random.default_rng(48)
        a_t, a_s = padded_and_per_utterance_masks(rng, c, t)
        while True:  # away from the LeakyReLU kinks of both calls
            x = rng.standard_normal((b, c, t, d))
            temporal, spatial = (init_agg_params("gcn", d, 2, rng, f"block0.{axis}")
                                 for axis in ("temporal", "spatial"))
            mid = gcn_agg(Tensor(x), a_t, temporal).data
            g = [x @ temporal.weights["wr"].data, mid @ spatial.weights["wr"].data]
            if min(np.abs(v).min() for v in g) > 1e-3:
                break
        assert temporal_spatial_vjp(gcn_agg, x, a_t, a_s, temporal, spatial, leaves, rng) < 1e-5

    @pytest.mark.parametrize("needs", [("x",), ("wr", "beta"), ("x", "wr", "beta"), ()],
                             ids=["x", "weights", "all", "none"])
    def test_one_call_records_one_tensor(self, needs, monkeypatch):
        rng = np.random.default_rng(49)
        params = init_agg_params("gcn", 4, 2, rng, "t")
        operands = {"x": Tensor(rng.standard_normal((2, 5, 4)), requires_grad="x" in needs)}
        for role, p in params.weights.items():
            operands[role] = Parameter(p.name, p.data, requires_grad=role in needs)
        params = AggParams("gcn", {role: operands[role] for role in ("wr", "beta")})
        built = []
        real = Tensor.__init__

        def counting(obj, *args, **kwargs):
            real(obj, *args, **kwargs)
            built.append(obj)

        monkeypatch.setattr(Tensor, "__init__", counting)
        out = gcn_agg(operands["x"], random_mask(rng, 5), params)
        monkeypatch.undo()
        assert built == [out]
        assert [parent for parent, _ in out._edges] == [operands[name] for name in needs]
        assert out.requires_grad == bool(needs)

    @pytest.mark.parametrize("kind", ["complete", "span"])
    def test_batch_gradients_equal_each_utterance_alone(self, kind):
        # Utterance i holds frames[i] frames zero-padded to t, its graph in the
        # top-left corner of its mask; the batch's parameter gradients are the
        # sum of the utterances' own.
        rng = np.random.default_rng(50)
        frames, c, t, d = [2, 5, 7], 3, 7, 8
        x = np.zeros((len(frames), c, t, d))
        for i, n in enumerate(frames):
            x[i, :, :n] = rng.standard_normal((c, n, d))
        valid = np.arange(t) < np.array(frames)[:, None]
        mask = restrict(build_graph(GraphSpec(kind, delta=1), t), valid)[:, None]
        params = init_agg_params("gcn", d, 2, rng, "t")
        u = rng.standard_normal(x.shape) * valid[:, None, :, None]
        joint = run_agg(gcn_agg, x, mask, params, u)
        summed = [np.zeros_like(p.data) for p in params.parameters()]
        for i, n in enumerate(frames):
            alone = run_agg(gcn_agg, x[i, :, :n], build_graph(GraphSpec(kind, delta=1), n), params,
                            u[i, :, :n])
            for got, want in zip(joint[:2], alone[:2]):
                assert np.max(np.abs(got[i, :, :n] - want)) <= 1e-12
            summed = [s + g for s, g in zip(summed, alone[2:])]
        for got, want in zip(joint[2:], summed):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_every_block_parameter_gets_a_gradient(self):
        # No parameter is cancelled by the softmax: each one moves the output.
        rng = np.random.default_rng(44)
        b, c, t, d = 2, 5, 6, 8
        x = rng.standard_normal((b, c, t, d))
        blocks = init_stack_params("gcn", 1, d, 2, rng)
        spatial = np.stack([random_mask(rng, c) for _ in range(b)])
        out = st_stack(Tensor(x), blocks, random_mask(rng, t), spatial)
        out.backward(rng.standard_normal(out.shape))
        for p in blocks[0].parameters():
            assert np.max(np.abs(p.grad)) > 1e-8, p.name


def run_agg(agg, x, mask, params, cotangent=None):
    """[output, input gradient, *parameter gradients] of one call."""
    xt = Tensor(x, requires_grad=True)
    out = agg(xt, mask, params)
    out.backward(np.random.default_rng(0).standard_normal(out.shape) if cotangent is None
                 else cotangent)
    grads = [p.grad.copy() for p in params.parameters()]
    for p in params.parameters():
        p.zero_grad()
    return [out.data, xt.grad, *grads]


def trailing_band(t, delta):
    """Asymmetric banded graph: frame i sees frames i - delta .. i."""
    idx = np.arange(t)
    diff = idx[:, None] - idx[None, :]
    return (diff >= 0) & (diff <= delta)


class TestBlockLayout:
    """A single banded graph shared by every slice equals a batched copy of its mask."""

    # (t, delta, blocked): blocked marks 2 * (4 delta + 1) <= t, the span graphs
    # an earlier block-local attention layout ran on.
    CASES = [(9, 0, True), (1, 0, False), (10, 1, True), (9, 1, False), (26, 3, True),
             (25, 3, False), (40, 3, True)]

    @pytest.mark.parametrize("mechanism", ["sam", "gcn"])
    @pytest.mark.parametrize("t, delta, blocked", CASES)
    def test_matches_dense(self, mechanism, t, delta, blocked):
        rng = np.random.default_rng(40 + t + delta)
        d = 8
        x = rng.standard_normal((2, 3, t, d))
        params = init_agg_params(mechanism, d, 2, rng, "block0.temporal")
        agg = sam_agg if mechanism == "sam" else gcn_agg
        adj = build_graph(GraphSpec("span", delta=delta), t)
        local = run_agg(agg, x, adj, params)
        dense = run_agg(agg, x, adj[None], params)
        for a, b in zip(local, dense, strict=True):
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.parametrize("mechanism", ["sam", "gcn"])
    def test_asymmetric_band_follows_the_mask(self, mechanism):
        rng = np.random.default_rng(41)
        t, d, delta = 23, 4, 2
        x = rng.standard_normal((t, d))
        params = init_agg_params(mechanism, d, 2, rng, "block0.temporal")
        agg = sam_agg if mechanism == "sam" else gcn_agg
        adj = trailing_band(t, delta)
        out = agg(Tensor(x), adj, params)
        if mechanism == "sam":
            ref = reference_masked_attention(x, adj, head_arrays(params))
        else:
            ref = reference_additive_attention(x, adj, head_arrays(params), 0.2)
        assert np.max(np.abs(out.data - ref)) < 1e-10
        assert_unseen_nodes_leave_rows(agg, x, adj, params, 0.0 if mechanism == "sam" else 1e-12)

    def test_both_layouts_follow_the_mask(self):
        rng = np.random.default_rng(42)
        t, d = 31, 4
        x = rng.standard_normal((3, t, d))
        params = init_agg_params("gcn", d, 2, rng, "t")
        adj = build_graph(GraphSpec("span", delta=2), t)
        local = gcn_agg(Tensor(x), adj, params).data
        dense = gcn_agg(Tensor(x), adj[None], params).data
        assert local.shape == dense.shape == (3, t, d)
        assert np.max(np.abs(local - dense)) <= 1e-15
        for mask in (adj, adj[None]):
            assert_unseen_nodes_leave_rows(gcn_agg, x, mask, params, 1e-12)

    @pytest.mark.parametrize("mechanism", ["sam", "gcn"])
    def test_stack_with_span_graph_matches_dense(self, mechanism):
        rng = np.random.default_rng(43)
        b, c, t, d = 2, 3, 24, 8
        x = rng.standard_normal((b, c, t, d))
        blocks = init_stack_params(mechanism, 2, d, 2, rng)
        masks = np.stack([random_mask(rng, c) for _ in range(b)])
        a_t = build_graph(GraphSpec("span", delta=2), t)
        leaves = [p for blk in blocks for p in blk.parameters()]
        results = []
        for temporal in (a_t, a_t[None, None]):
            xt = Tensor(x, requires_grad=True)
            out = st_stack(xt, blocks, temporal, masks)
            out.backward(np.random.default_rng(0).standard_normal(out.shape))
            results.append([out.data, xt.grad] + [p.grad.copy() for p in leaves])
            for p in leaves:
                p.zero_grad()
        for a, b_ in zip(*results):
            assert np.max(np.abs(a - b_)) <= 1e-12


def per_frame_agg(agg, y, a_s, params):
    """Spatial pass over a (C, T, D) tensor: one aggregation per frame."""
    by_frame = dc.transpose(Tensor(y), (1, 0, 2))
    return dc.transpose(agg(by_frame, a_s, params), (1, 0, 2))


def all_channels(b, c):
    return np.ones((b, c, c), dtype=bool)


class TestModules:
    """Leading axes of the aggregations are independent slices."""

    def test_temporal_equals_per_channel_loop(self):
        rng = np.random.default_rng(12)
        c, t, d = 3, 4, 8
        x = rng.standard_normal((c, t, d))
        a_t = build_graph(GraphSpec("span", delta=1), t)
        params = init_agg_params("sam", d, 2, rng, "t")
        joint = sam_agg(Tensor(x), a_t, params).data
        for ch in range(c):
            single = sam_agg(Tensor(x[ch]), a_t, params).data
            assert np.max(np.abs(joint[ch] - single)) < 1e-12

    def test_identical_channels_share_outputs(self):
        rng = np.random.default_rng(13)
        t, d = 4, 4
        slice_ = rng.standard_normal((t, d))
        x = np.stack([slice_, slice_])
        params = init_agg_params("gcn", d, 2, rng, "t")
        out = gcn_agg(Tensor(x), build_graph(GraphSpec(), t), params).data
        assert np.allclose(out[0], out[1], atol=1e-12)

    def test_spatial_equals_per_frame_loop(self):
        rng = np.random.default_rng(14)
        c, t, d = 4, 3, 4
        y = rng.standard_normal((c, t, d))
        a_s = build_graph(GraphSpec(), c)
        params = init_agg_params("gcn", d, 2, rng, "s")
        joint = per_frame_agg(gcn_agg, y, a_s, params).data
        for fr in range(t):
            single = gcn_agg(Tensor(y[:, fr, :]), a_s, params).data
            assert np.max(np.abs(joint[:, fr, :] - single)) < 1e-12

    def test_spatial_single_frame_reduces_to_one_call(self):
        rng = np.random.default_rng(15)
        c, d = 5, 4
        y = rng.standard_normal((c, 1, d))
        a_s = build_graph(GraphSpec(), c)
        params = init_agg_params("sam", d, 2, rng, "s")
        joint = per_frame_agg(sam_agg, y, a_s, params).data
        single = sam_agg(Tensor(y[:, 0, :]), a_s, params).data
        assert np.max(np.abs(joint[:, 0, :] - single)) < 1e-12

    def test_spatial_permutation_equivariance(self):
        rng = np.random.default_rng(16)
        c, t, d = 5, 3, 4
        y = rng.standard_normal((c, t, d))
        adj = random_mask(rng, c)
        params = init_agg_params("gcn", d, 2, rng, "s")
        perm = rng.permutation(c)
        permuted_adj = adj[np.ix_(perm, perm)]
        base = per_frame_agg(gcn_agg, y, adj, params).data
        permuted = per_frame_agg(gcn_agg, y[perm], permuted_adj, params).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-10

    def test_temporal_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        c, t, d = 3, 5, 4
        x = rng.standard_normal((c, t, d))
        adj = random_mask(rng, t)
        params = init_agg_params("sam", d, 2, rng, "t")
        perm = rng.permutation(t)
        permuted_adj = adj[np.ix_(perm, perm)]
        base = sam_agg(Tensor(x), adj, params).data
        permuted = sam_agg(Tensor(x[:, perm, :]), permuted_adj, params).data
        assert np.max(np.abs(permuted - base[:, perm, :])) < 1e-10


class TestStack:
    def test_one_block_is_temporal_then_spatial(self):
        rng = np.random.default_rng(18)
        c, t, d = 3, 4, 8
        x = rng.standard_normal((c, t, d))
        blocks = init_stack_params("sam", 1, d, 2, rng)
        a_t = build_graph(GraphSpec(), t)
        stacked = st_stack(Tensor(x[None]), blocks, a_t, all_channels(1, c)).data
        temporal = np.stack([sam_agg(Tensor(x[ch]), a_t, blocks[0].temporal).data
                             for ch in range(c)])
        manual = np.stack([sam_agg(Tensor(temporal[:, fr]), build_graph(GraphSpec(), c),
                                   blocks[0].spatial).data for fr in range(t)], axis=1)
        assert np.max(np.abs(stacked[0] - manual)) < 1e-12

    def test_two_blocks_preserve_shape(self):
        rng = np.random.default_rng(19)
        b, c, t, d = 2, 8, 10, 16
        x = rng.standard_normal((b, c, t, d))
        blocks = init_stack_params("gcn", 2, d, 4, rng)
        out = st_stack(Tensor(x), blocks, build_graph(GraphSpec(), t), all_channels(b, c))
        assert out.shape == (b, c, t, d)

    def test_matches_manual_composition(self):
        rng = np.random.default_rng(20)
        c, t, d = 4, 5, 8
        x = rng.standard_normal((c, t, d))
        blocks = init_stack_params("gcn", 2, d, 2, rng)
        a_t = build_graph(GraphSpec("span", delta=1), t)
        a_s = build_graph(GraphSpec(), c)
        stacked = st_stack(Tensor(x[None]), blocks, a_t, all_channels(1, c)).data
        cur = Tensor(x)
        for block in blocks:
            cur = dc.transpose(gcn_agg(cur, a_t, block.temporal), (1, 0, 2))
            cur = dc.transpose(gcn_agg(cur, a_s, block.spatial), (1, 0, 2))
        assert np.max(np.abs(stacked[0] - cur.data)) < 1e-12

    @pytest.mark.parametrize("mechanism", ["sam", "gcn"])
    def test_batch_equals_each_utterance_alone(self, mechanism):
        rng = np.random.default_rng(25)
        b, c, t, d = 3, 5, 4, 8
        x = rng.standard_normal((b, c, t, d))
        masks = np.stack([random_mask(rng, c) for _ in range(b)])
        a_t = build_graph(GraphSpec("span", delta=1), t)
        blocks = init_stack_params(mechanism, 2, d, 2, rng)
        joint = st_stack(Tensor(x), blocks, a_t, masks).data
        for i in range(b):
            alone = st_stack(Tensor(x[i:i + 1]), blocks, a_t, masks[i:i + 1]).data
            assert np.max(np.abs(joint[i] - alone[0])) < 1e-12

    @pytest.mark.parametrize("mechanism", ["sam", "gcn"])
    @pytest.mark.parametrize("kind", ["complete", "span"])
    def test_padded_temporal_masks_match_each_utterance_alone(self, mechanism, kind):
        # Utterance i holds frames[i] frames zero-padded to t; its temporal graph
        # fills the top-left frames[i] x frames[i] corner and padded frames see
        # only themselves.
        rng = np.random.default_rng(26)
        frames, c, t, d = [1, 4, 7, 12], 3, 12, 8
        x = np.zeros((len(frames), c, t, d))
        mask = np.zeros((len(frames), 1, t, t), dtype=bool)
        mask[:, 0, np.arange(t), np.arange(t)] = True
        alone_graphs = []
        for i, n in enumerate(frames):
            x[i, :, :n] = rng.standard_normal((c, n, d))
            graph = build_graph(GraphSpec(kind, delta=1), n)
            mask[i, 0, :n, :n] = graph
            alone_graphs.append(graph)
        spatial = np.stack([random_mask(rng, c) for _ in frames])
        blocks = init_stack_params(mechanism, 2, d, 2, rng)
        joint = st_stack(Tensor(x), blocks, mask, spatial).data
        for i, n in enumerate(frames):
            alone = st_stack(Tensor(x[i:i + 1, :, :n]), blocks, alone_graphs[i],
                             spatial[i:i + 1]).data
            assert np.max(np.abs(joint[i, :, :n] - alone[0])) <= 1e-12
            assert np.all(joint[i, :, n:] == 0.0)  # zero padding stays exactly zero

    def test_block_count_mismatch(self, tmp_path):
        from adhocsv.trainer import Model, ModelConfig, load_model, model_config_to_json

        rng = np.random.default_rng(21)
        assert init_stack_params("sam", 0, 4, 2, rng) == []
        with pytest.raises(ValueError, match="-1"):
            init_stack_params("sam", -1, 4, 2, rng)
        one_block = Model.init(ModelConfig(mechanism="sam", n_blocks=1, heads=2, d=4), 2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, one_block.params, meta={
            "config": model_config_to_json(ModelConfig(mechanism="sam", n_blocks=2, heads=2, d=4)),
            "n_speakers": 2})
        with pytest.raises(ValueError, match="block1"):
            load_model(path)

    def test_shape_errors(self):
        rng = np.random.default_rng(27)
        blocks = init_stack_params("gcn", 1, 4, 2, rng)
        x = Tensor(rng.standard_normal((2, 3, 5, 4)))
        with pytest.raises(dc.ShapeError):
            st_stack(Tensor(rng.standard_normal((3, 5, 4))), blocks, build_graph(GraphSpec(), 5),
                     all_channels(1, 3))
        with pytest.raises(dc.ShapeError):
            st_stack(x, blocks, build_graph(GraphSpec(), 5), all_channels(1, 3))
        with pytest.raises(dc.ShapeError):
            st_stack(x, blocks, build_graph(GraphSpec(), 4), all_channels(2, 3))

    def test_stack_gradients(self):
        rng = np.random.default_rng(22)
        b, c, t, d = 2, 2, 3, 4
        x = rng.standard_normal((b, c, t, d))
        blocks = init_stack_params("sam", 1, d, 2, rng)
        masks = np.stack([random_mask(rng, c) for _ in range(b)])
        leaves = [x] + [p for blk in blocks for p in blk.parameters()]

        def fn(xt, *ps):
            return st_stack(xt, blocks, build_graph(GraphSpec("span", delta=1), t), masks)

        err = vjp_check(fn, leaves, rng=rng)
        assert err < 1e-5


class TestGraphSpec:
    @pytest.mark.parametrize("kwargs", [{"kind": "bogus"}, {"kind": "span", "delta": -1},
                                        {"kind": "knn", "k": -1}, {"kind": "complete", "k": -2}])
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(ValueError):
            GraphSpec(**kwargs)

    def test_builds_each_kind(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        assert build_graph(GraphSpec("complete"), 3).all()
        assert np.array_equal(build_graph(GraphSpec("span", delta=0), 3), np.eye(3, dtype=bool))
        assert np.array_equal(build_graph(GraphSpec("knn", k=1), 3, pos),
                              [[True, True, False], [True, True, False], [False, True, True]])
        with pytest.raises(ValueError, match="positions"):
            build_graph(GraphSpec("knn", k=1), 3)
        for spec in (GraphSpec(), GraphSpec("span"), GraphSpec("knn")):
            with pytest.raises(ValueError, match="at least one node"):
                build_graph(spec, 0, np.zeros((0, 3)))

    def test_restrict_broadcasts_a_node_array_over_a_graph(self):
        # One span graph, restricted to each row's nodes: an edge stays iff
        # both ends are used, and every node keeps its self-loop.
        graph = build_graph(GraphSpec("span", delta=1), 4)
        nodes = np.array([[True, True, True, False], [False, True, False, True]])
        out = restrict(graph, nodes)
        assert out.dtype == np.bool_ and out.shape == (2, 4, 4)
        for row, used in zip(out, nodes):
            for i in range(4):
                for j in range(4):
                    assert row[i, j] == (i == j or (graph[i, j] and used[i] and used[j]))
        assert np.array_equal(restrict(graph, np.ones(4, bool)), graph)


class TestFrameTensor:
    def test_validates_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            FrameTensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            FrameTensor(np.full((1, 1, 1), np.nan))

    def test_properties(self):
        ft = FrameTensor(np.zeros((2, 3, 4)))
        assert (ft.c, ft.t, ft.d) == (2, 3, 4)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        blocks = init_stack_params("gcn", 1, 8, 2, rng)
        params = ParamSet(p for b in blocks for p in b.parameters())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta={"seed": 3, "config": {"mechanism": "gcn"}})
        manifest, values = load_checkpoint(path)
        assert manifest["seed"] == 3
        assert manifest["config"] == {"mechanism": "gcn"}
        assert set(values) == {p.name for p in params}
        for p in params:
            assert np.array_equal(values[p.name], p.data)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"\x10\x00\x00\x00\x00\x00\x00\x00" + b"{" + b"x" * 15)
        with pytest.raises(ValueError, match="bad.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header_len, manifest, tail", [
        (10**12, {"params": []}, b""),
        (None, {"params": [{"name": "w", "shape": [10**7, 10**6]}]}, bytes(64)),
        (None, {"params": [{"name": "w", "shape": [2, 2]}]}, bytes(24)),
        (None, {"params": [{"name": "w", "shape": [2, 2.5]}]}, bytes(40)),
        (None, {"params": "w"}, b""),
        (None, {"params": [], "version": 3}, b""),
    ], ids=["huge_header", "huge_param", "truncated_param", "fractional_shape", "params_not_a_list",
            "unknown_version"])
    def test_declared_sizes_are_bounded_by_the_file(self, tmp_path, header_len, manifest, tail):
        header = json.dumps({"format": "adhocsv-checkpoint", "version": 2, **manifest}).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes((header_len or len(header)).to_bytes(8, "little") + header + tail)
        with pytest.raises(ValueError, match="bad.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("size", [0, 3, 7])
    def test_rejects_file_shorter_than_header_length(self, tmp_path, size):
        path = tmp_path / "short.ckpt"
        path.write_bytes(bytes(size))
        with pytest.raises(ValueError, match="short.ckpt"):
            load_checkpoint(path)

    def test_byte_identical_saves(self, tmp_path):
        rng = np.random.default_rng(24)
        params = ParamSet([Parameter("w", rng.standard_normal((3, 3)))])
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, meta={"seed": 0})
        save_checkpoint(p2, params, meta={"seed": 0})
        assert p1.read_bytes() == p2.read_bytes()
