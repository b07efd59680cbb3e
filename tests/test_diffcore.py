"""Kernel forwards against independent oracles, plus VJP finite-difference checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocsv import diffcore as dc
from adhocsv.diffcore import (
    EmptyNeighborhoodError,
    NonFiniteError,
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
    def test_rejects_nonfinite_in_checked_mode(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

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

    def test_constant_operand_gets_no_gradient_product(self, monkeypatch):
        rng = np.random.default_rng(12)
        leaf = Tensor(rng.standard_normal((4, 3, 2)), requires_grad=True)
        out = dc.matmul(Tensor(rng.standard_normal((3, 3))), leaf)
        calls = []
        real = np.matmul

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        out.backward(np.ones(out.shape))
        assert len(calls) == 1


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


class TestActivations:
    def test_leaky_relu_values(self):
        out = dc.leaky_relu(Tensor([2.0, -1.0, 0.0]), slope=0.2)
        assert np.allclose(out.data, [2.0, -0.2, 0.0])

    def test_leaky_relu_slope_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                dc.leaky_relu(Tensor([1.0]), slope=bad)

    def test_leaky_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(12)
        x[np.abs(x) < 0.1] += 0.2  # keep clear of the kink
        err = vjp_check(lambda t: dc.leaky_relu(t, 0.2), [x], rng=rng)
        assert err < 1e-8

    def test_leaky_relu_kink_skipped(self):
        x = np.array([0.0, 1.0, -1.0])
        err = vjp_check(lambda t: dc.leaky_relu(t, 0.2), [x],
                        skip=[np.abs(x) < 1e-3], rng=np.random.default_rng(0))
        assert err < 1e-8

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

    def test_exp_values_and_gradient(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((3, 4)) * 3
        assert np.array_equal(dc.exp(Tensor(x)).data, np.exp(x))
        err = vjp_check(dc.exp, [x], rng=rng)
        assert err < 1e-8

    def test_exp_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            dc.exp(Tensor([1000.0]))


class TestPlumbingKernels:
    def test_concat_and_gradient(self):
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((3, 4))
        out = dc.concat([Tensor(a), Tensor(b)], axis=-1)
        assert out.shape == (3, 6)
        err = vjp_check(lambda x, y: dc.concat([x, y], axis=-1), [a, b], rng=rng)
        assert err < 1e-8

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
        dc.leaky_relu(tb, 0.2)
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
