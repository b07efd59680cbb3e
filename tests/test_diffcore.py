"""Kernel forwards against independent oracles, plus VJP finite-difference checks."""

import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocsv import diffcore as dc
from adhocsv.diffcore import (
    EmptyNeighborhoodError,
    GraphConsumedError,
    Parameter,
    ParamSet,
    ShapeError,
    Tensor,
    vjp_check,
)


def loop_matmul(a, b):
    """Triple-loop reference product."""
    n, p = a.shape
    p2, q = b.shape
    assert p == p2
    out = np.zeros((n, q))
    for i in range(n):
        for j in range(q):
            s = 0.0
            for k in range(p):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


class TestTensor:
    def test_kernels_leave_finiteness_to_their_callers(self, monkeypatch):
        # Values are checked where they enter the program and where training
        # keeps them (see the module docstring); a kernel scans nothing, so a
        # NaN or Inf flows on through the forward and the backward pass.
        calls = []
        isfinite = np.isfinite

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return isfinite(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        w = Parameter("w", [[1.0, np.nan, 2.0], [np.inf, 0.0, 1.0]])
        out = dc.sum_axis(dc.scale(dc.reshape(dc.transpose(w, (1, 0)), (6,)), 2.0), 0)
        out.backward()
        assert math.isnan(out.item()) and np.array_equal(w.grad, np.full((2, 3), 2.0))
        assert calls == []

    def test_parameter_grad_zero_initialized(self):
        p = Parameter("w", np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0.0)

    def test_paramset_rejects_duplicates(self):
        ps = ParamSet([Parameter("a", [1.0])])
        with pytest.raises(ValueError):
            ps.add(Parameter("a", [2.0]))

    def test_backward_needs_scalar_or_cotangent(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = dc.scale(x, 2.0)
        with pytest.raises(ShapeError):
            y.backward()
        y.backward(np.ones((2, 2)))
        assert np.allclose(x.grad, 2.0)


class TestRecording:
    """A kernel records an edge only for the operands that need a gradient."""

    @pytest.mark.parametrize("kernel", [dc.add, dc.mul, dc.div, dc.matmul],
                             ids=["add", "mul", "div", "matmul"])
    @pytest.mark.parametrize("leaf_first", [True, False], ids=["leaf_first", "leaf_second"])
    def test_constant_operand_gets_no_gradient_product(self, kernel, leaf_first, monkeypatch):
        rng = np.random.default_rng(12)
        leaf = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        const = Tensor(rng.uniform(1.0, 2.0, (3, 3)))
        out = kernel(*((leaf, const) if leaf_first else (const, leaf)))
        assert [parent for parent, _ in out._edges] == [leaf]
        # Each of these kernels' pullbacks makes one gradient product: matmul's
        # is one np.matmul, the elementwise kernels' one _unbroadcast.
        owner, name = (np, "matmul") if kernel is dc.matmul else (dc, "_unbroadcast")
        calls = []
        real = getattr(owner, name)

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)
        out.backward(np.ones(out.shape))
        assert len(calls) == 1
        assert leaf.grad.shape == leaf.shape

    def test_constants_only_record_nothing(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.standard_normal((2, 3, 3)))
        outs = [dc.add(a, 1.0), dc.mul(a, a), dc.div(a, 2.0), dc.scale(a, 3.0), dc.matmul(a, a),
                dc.transpose(a, (0, 2, 1)), dc.reshape(a, (6, 3)),
                dc.sum_axis(a, 1), dc.mean_axis(a, 1), dc.l2_norm(a.data.ravel()), dc.sigmoid(a),
                dc.masked_softmax(a, np.ones((3, 3), dtype=bool)),
                dc.softmax_cross_entropy(a.data[0], [0, 1, 2])]
        assert all(out._edges == () and not out.requires_grad for out in outs)

    def test_leaf_on_two_paths_keeps_its_summed_grad(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        h = dc.scale(x, 2.0)  # an intermediate that is also reached twice
        y = dc.add(dc.mul(h, x), dc.add(h, x))  # 2x^2 + 3x
        dc.sum_axis(y, 0).backward()
        assert np.array_equal(x.grad, 4.0 * x.data + 3.0)
        assert h.grad is None  # intermediates do not keep grads


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = dc.matmul(Tensor(np.eye(2)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_projection(self):
        proj = np.array([[1.0, 0.0], [0.0, 0.0]])
        v = np.array([[5.0], [7.0]])
        out = dc.matmul(Tensor(proj), Tensor(v))
        assert np.array_equal(out.data, [[5.0], [0.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = dc.matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - loop_matmul(a, b))) < 1e-12

    def test_associative_against_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 5))
            c = rng.standard_normal((5, 2))
            left = dc.matmul(dc.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
            right = dc.matmul(Tensor(a), dc.matmul(Tensor(b), Tensor(c))).data
            oracle = loop_matmul(loop_matmul(a, b), c)
            assert np.max(np.abs(left - right)) < 1e-10
            assert np.max(np.abs(left - oracle)) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched_equals_per_slice(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 2))
        batched = dc.matmul(Tensor(a), Tensor(b)).data
        for i in range(5):
            assert np.allclose(batched[i], a[i] @ b)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        err = vjp_check(dc.matmul, [rng.standard_normal((3, 3)), rng.standard_normal((3, 3))],
                        rng=rng)
        assert err < 1e-7

    def test_gradient_shared_operand_over_batch(self):
        rng = np.random.default_rng(11)
        err = vjp_check(dc.matmul, [rng.standard_normal((4, 3, 2)), rng.standard_normal((2, 5))],
                        rng=rng)
        assert err < 1e-6

    def test_gradient_equal_batch_axes(self):
        rng = np.random.default_rng(14)
        err = vjp_check(dc.matmul, [rng.standard_normal((2, 3, 4, 5)),
                                    rng.standard_normal((2, 3, 5, 2))], rng=rng)
        assert err < 1e-6

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 1, 4, 5), (6, 5, 3)),
                                                  ((3, 1, 4, 5), (1, 2, 5, 6)),
                                                  ((4, 5), (2, 3, 5, 2))],
                             ids=["over-heads", "each-over-the-other", "shared-left"])
    def test_other_batch_broadcasts_raise(self, a_shape, b_shape):
        # Only equal batch axes, or a 2-D right operand shared by every slice.
        with pytest.raises(ShapeError):
            dc.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    def test_constant_operand_gets_no_gradient_product(self, monkeypatch):
        rng = np.random.default_rng(12)
        calls = []
        real = np.matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for (a_shape, b_shape), leaf_first in itertools.product(
                [((4, 3, 3), (4, 3, 2)), ((4, 3, 3), (3, 2))], (True, False)):
            leaf = Tensor(rng.standard_normal(a_shape if leaf_first else b_shape),
                          requires_grad=True)
            const = Tensor(rng.standard_normal(b_shape if leaf_first else a_shape))
            out = dc.matmul(*((leaf, const) if leaf_first else (const, leaf)))
            calls.clear()
            monkeypatch.setattr(np, "matmul", counting)
            out.backward(np.ones(out.shape))
            monkeypatch.undo()
            assert len(calls) == 1
            assert leaf.grad.shape == leaf.shape


class TestMaskedSoftmax:
    def test_equal_logits_partial_mask(self):
        logits = np.array([[1.0, 1.0, 1.0]] * 3)
        mask = np.ones((3, 3), dtype=bool)
        mask[:, 1] = False
        mask[1, 1] = True  # keep the diagonal nonempty
        out = dc.masked_softmax(Tensor(logits), mask)
        assert np.allclose(out.data[0], [0.5, 0.0, 0.5])
        assert np.allclose(out.data[2], [0.5, 0.0, 0.5])

    def test_uniform_row(self):
        out = dc.masked_softmax(Tensor(np.zeros((2, 2))), np.ones((2, 2), dtype=bool))
        assert np.allclose(out.data, 0.25 * 0 + 0.5)

    def test_matches_extended_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 40
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((5, 5)) * 3
        mask = rng.random((5, 5)) < 0.5
        np.fill_diagonal(mask, True)
        out = dc.masked_softmax(Tensor(logits), mask).data
        for i in range(5):
            exps = [mpmath.exp(mpmath.mpf(logits[i, j])) if mask[i, j] else mpmath.mpf(0)
                    for j in range(5)]
            total = sum(exps)
            for j in range(5):
                assert abs(out[i, j] - float(exps[j] / total)) < 1e-12

    def test_masked_out_exactly_zero(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((4, 4)) * 50  # large: stabilization must hold
        mask = np.eye(4, dtype=bool)
        mask[0, 3] = True
        out = dc.masked_softmax(Tensor(logits), mask).data
        assert np.all(out[~mask] == 0.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_row_raises(self):
        mask = np.ones((2, 2), dtype=bool)
        mask[1, :] = False
        with pytest.raises(EmptyNeighborhoodError):
            dc.masked_softmax(Tensor(np.zeros((2, 2))), mask)

    def test_huge_masked_out_logits_do_not_contaminate(self):
        logits = np.array([[0.0, 1000.0], [0.0, 0.0]])
        mask = np.array([[True, False], [True, True]])
        out = dc.masked_softmax(Tensor(logits), mask).data
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0

    def test_gradient(self):
        rng = np.random.default_rng(14)
        mask = rng.random((4, 4)) < 0.6
        np.fill_diagonal(mask, True)
        err = vjp_check(lambda l: dc.masked_softmax(l, mask),
                        [rng.standard_normal((4, 4))], rng=rng)
        assert err < 1e-6

    def test_empty_row_in_one_batch_slice_raises(self):
        mask = np.ones((3, 1, 4, 4), dtype=bool)
        mask[1, 0, 2, :] = False
        with pytest.raises(EmptyNeighborhoodError):
            dc.masked_softmax(Tensor(np.zeros((3, 2, 4, 4))), mask)

    @pytest.mark.parametrize("logits_shape, mask_shape", [
        ((4, 2, 5), (4, 3, 5)), ((2, 5), (3, 5)), ((1, 4), (3, 5)), ((2, 1, 3), (3, 3, 3)),
        ((3, 3), (3,)), ((2, 3, 1, 5), (5, 5)),
    ])
    def test_mismatched_shapes_raise(self, logits_shape, mask_shape):
        with pytest.raises(dc.ShapeError):
            dc.masked_softmax(Tensor(np.zeros(logits_shape)), np.ones(mask_shape, dtype=bool))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_rows_stochastic_over_neighbors(self, n, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n, n)) * 4
        mask = rng.random((n, n)) < 0.5
        np.fill_diagonal(mask, True)
        out = dc.masked_softmax(Tensor(logits), mask).data
        assert np.all(out >= 0.0)
        assert np.all(out[~mask] == 0.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12


class TestGraphLifetime:
    """A recorded graph is freed by its one backward pass, and refuses a second."""

    def test_second_backward_raises_and_accumulates_nothing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = dc.sum_axis(dc.mul(x, x), 0)
        y.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(GraphConsumedError, match="one backward per recorded graph"):
            y.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert y.item() == 5.0 and y.grad == 1.0  # the output keeps its value and cotangent

    def test_new_graph_on_a_consumed_intermediate_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        h = dc.scale(x, 2.0)
        dc.sum_axis(h, 0).backward()
        z = dc.sum_axis(dc.mul(h, w), 0)  # its data is still there to compute with
        assert z.item() == 22.0
        with pytest.raises(GraphConsumedError):
            z.backward()
        # Refused before any pullback ran: w, reached first, got nothing either.
        assert np.array_equal(x.grad, [2.0, 2.0]) and w.grad is None

    def test_leaves_are_never_consumed(self):
        x = Parameter("x", [1.0, 2.0])
        for _ in range(2):
            dc.sum_axis(dc.scale(x, 3.0), 0).backward()
        assert np.array_equal(x.grad, [6.0, 6.0])
        leaf = Tensor([1.0], requires_grad=True)
        leaf.backward(np.ones(1))
        leaf.backward(np.ones(1))
        assert np.array_equal(leaf.grad, [2.0])

    def test_intermediate_data_dies_in_backward(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        w = Tensor(np.ones(4), requires_grad=True)
        h = dc.mul(x, x)
        y = dc.sum_axis(dc.mul(h, w), 0)  # w's pullback reads h.data
        ref = weakref.ref(h.data)
        del h
        assert ref() is not None  # the recorded graph holds it
        y.backward()
        assert ref() is None
        assert np.array_equal(w.grad, np.arange(4.0) ** 2)

    def test_static_attention_saved_g_dies_in_backward(self, monkeypatch):
        rng = np.random.default_rng(16)
        x, wr, beta = (Tensor(rng.standard_normal(shape), requires_grad=True)
                       for shape in ((2, 5, 4), (4, 4), (2, 2)))
        products = []
        real = np.matmul

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            products.append(weakref.ref(out))
            return out

        monkeypatch.setattr(np, "matmul", recording)
        out = dc.static_attention(x, wr, beta, np.ones((5, 5), dtype=bool), 0.2)
        monkeypatch.undo()
        g = products[0]  # x wr, the array the pullbacks read g from
        assert g() is not None
        out.backward(rng.standard_normal(out.shape))
        assert g() is None
        assert all(t.grad is not None for t in (x, wr, beta))


class TestStaticAttention:
    """The fused kernel behind gcn; its values and VJP are checked through ``stagg.gcn_agg``."""

    def test_shape_mismatches_raise(self):
        x, wr, beta, mask = np.ones((2, 3, 4)), np.ones((4, 4)), np.ones((2, 2)), np.eye(3)
        for args in [(x[0, 0], wr, beta), (x, wr[:3], beta), (x, wr, beta[:1]),
                     (x, wr, beta.ravel())]:
            with pytest.raises(ShapeError):
                dc.static_attention(*args, mask, 0.2)
        with pytest.raises(EmptyNeighborhoodError):
            dc.static_attention(x, wr, beta, np.zeros((3, 3)), 0.2)

    @pytest.mark.parametrize("leaves, products", [("x wr beta", 4), ("wr", 3), ("beta", 2)])
    def test_backward_shares_its_mask_products(self, leaves, products, monkeypatch):
        # Two products with the transposed mask serve every operand; x and wr
        # add one product each.
        rng = np.random.default_rng(15)
        operands = [Tensor(rng.standard_normal(shape), requires_grad=name in leaves.split())
                    for name, shape in (("x", (2, 5, 4)), ("wr", (4, 4)), ("beta", (2, 2)))]
        out = dc.static_attention(*operands, np.ones((5, 5), dtype=bool), 0.2)
        calls = []
        real = np.matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        out.backward(rng.standard_normal(out.shape))
        assert len(calls) == products
        assert all((t.grad is not None) == t.requires_grad for t in operands)

    def test_shared_terms_are_computed_once_per_cotangent(self):
        calls = []
        terms = dc._shared(lambda g: calls.append(g) or 2.0 * g)
        g = np.ones(3)
        assert terms(g) is terms(g) is terms(g)
        assert len(calls) == 1
        terms(np.ones(3))  # an equal cotangent, but another object
        assert len(calls) == 2

    def test_shared_terms_are_dropped_after_their_last_use(self, monkeypatch):
        # The memo lives in the node's pullbacks, which backward() drops once
        # they have run: the terms are gone before the next node's pullback.
        refs, shared = [], dc._shared

        def recording(fn):
            def recorded(g):
                value = fn(g)
                refs.append(weakref.ref(value[0]))
                return value
            return shared(recorded)

        monkeypatch.setattr(dc, "_shared", recording)
        rng = np.random.default_rng(17)
        leaf = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        alive = []
        x = Tensor(leaf.data.copy(), _edges=((leaf, lambda g: alive.append(refs[0]() is not None)
                                              or g),))
        out = dc.static_attention(x, Tensor(rng.standard_normal((4, 4)), requires_grad=True),
                                  Tensor(rng.standard_normal((2, 2)), requires_grad=True),
                                  np.ones((5, 5), dtype=bool), 0.2)
        out.backward(rng.standard_normal(out.shape))
        assert len(refs) == 1 and alive == [False]


class TestActivations:
    def test_sigmoid_values(self):
        out = dc.sigmoid(Tensor([0.0, 3.0]))
        assert out.data[0] == 0.5
        assert abs(out.data[1] - 0.952574) < 1e-6

    def test_sigmoid_monotone_saturation(self):
        xs = np.array([10.0, 50.0, 200.0, 800.0])
        out = dc.sigmoid(Tensor(xs)).data
        assert np.all(np.diff(out) >= 0.0)
        assert out[-1] <= 1.0 and out[-1] > 1.0 - 1e-12

    def test_sigmoid_gradient_at_zero(self):
        err = vjp_check(dc.sigmoid, [np.zeros(3)], rng=np.random.default_rng(16))
        assert err < 1e-9


class TestPlumbingKernels:
    def test_mean_axis_tuple(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 3, 4))
        out = dc.mean_axis(Tensor(x), axis=(0, 1))
        assert np.allclose(out.data, x.mean(axis=(0, 1)))
        err = vjp_check(lambda t: dc.mean_axis(t, axis=(0, 1)), [x], rng=rng)
        assert err < 1e-8

    def test_transpose_reshape_mul_gradient(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 3))
        err = vjp_check(lambda xt: dc.reshape(dc.transpose(dc.mul(xt, xt), (1, 0)), (12,)),
                        [x], rng=rng)
        assert err < 1e-7

    def test_normalized_projection_gradient(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 3))
        v = rng.standard_normal(3) + 2.0
        err = vjp_check(lambda xt, vt: dc.div(dc.sum_axis(dc.mul(xt, vt), -1), dc.l2_norm(vt)),
                        [x, v], rng=rng)
        assert err < 1e-7

    def test_l2_norm_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            dc.l2_norm(Tensor(np.zeros(3)))

    def test_softmax_cross_entropy_matches_log_oracle(self):
        rng = np.random.default_rng(21)
        logits = rng.standard_normal((5, 3)) * 2
        labels = rng.integers(0, 3, size=5)
        loss = dc.softmax_cross_entropy(Tensor(logits), labels)
        expected = 0.0
        for i in range(5):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            expected -= math.log(p[labels[i]])
        assert abs(loss.item() - expected / 5) < 1e-12
        err = vjp_check(lambda t: dc.softmax_cross_entropy(t, labels), [logits], rng=rng)
        assert err < 1e-7


class TestPurity:
    def test_kernels_do_not_mutate_inputs(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        ta, tb = Tensor(a.copy()), Tensor(b.copy())
        dc.matmul(ta, tb)
        dc.masked_softmax(ta, np.ones((3, 3), dtype=bool))
        dc.sigmoid(ta)
        assert np.array_equal(ta.data, a)
        assert np.array_equal(tb.data, b)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4))
        mask = rng.random((4, 4)) < 0.5
        np.fill_diagonal(mask, True)
        one = dc.masked_softmax(dc.matmul(Tensor(a), Tensor(a)), mask).data
        two = dc.masked_softmax(dc.matmul(Tensor(a), Tensor(a)), mask).data
        assert np.array_equal(one, two)
