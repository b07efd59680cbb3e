"""Differentiable dense-tensor kernels.

Every kernel here is a pure function: it evaluates its forward result and
records a hand-derived vector-Jacobian product (VJP) so that gradients can
be pulled back through arbitrary compositions of kernels.  The recorded
graph is the minimum needed by the aggregation, selection and training
code; this is deliberately not a general autodiff engine.

Shapes: kernels accept an optional leading batch axis (written ``...``).
The batched forms are what the aggregation stack runs on; they are
defined so that the batched result equals stacking the unbatched results
slice by slice.

All arithmetic is float64 (gradient checks need the headroom).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "ParamSet",
    "ShapeError",
    "EmptyNeighborhoodError",
    "NonFiniteError",
    "add",
    "mul",
    "div",
    "scale",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "sum_axis",
    "mean_axis",
    "l2_norm",
    "leaky_relu",
    "sigmoid",
    "exp",
    "check_mask",
    "masked_softmax",
    "softmax_cross_entropy",
    "vjp_check",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the kernel's contract."""


class EmptyNeighborhoodError(ValueError):
    """A neighbor-mask row has no masked-in entries to normalize over."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared where only finite values are allowed."""


class Tensor:
    """A dense array node in the kernel graph.

    Tensors are immutable by convention: kernels never write into an
    input's ``data``.  The only sanctioned mutation is an optimizer (or
    finite-difference probe) updating a leaf ``Parameter`` between two
    recorded graphs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor holds NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = tuple(_parents)
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self, cotangent=None) -> None:
        """Accumulate cotangents into every reachable leaf's ``grad``.

        ``cotangent`` defaults to 1 for scalar outputs.  One call per
        recorded graph; leaves keep their accumulated grads until cleared.
        """
        if cotangent is None:
            if self.size != 1:
                raise ShapeError("backward() without cotangent needs a scalar output")
            cotangent = np.ones_like(self.data)
        cotangent = np.asarray(cotangent, dtype=self.data.dtype)
        if cotangent.shape != self.data.shape:
            raise ShapeError(f"cotangent shape {cotangent.shape} != output shape {self.data.shape}")

        order = self._toposort()
        self.grad = cotangent if self.grad is None else self.grad + cotangent
        for node in order:
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
            if node is not self:
                node.grad = None  # intermediates do not keep grads

    def _toposort(self):
        # Iterative DFS; only nodes that require grad can carry a cotangent.
        order, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        order.reverse()
        return order

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named leaf tensor with a zero-initialized gradient accumulator."""

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParamSet:
    """Ordered, name-unique collection of parameters."""

    def __init__(self, params=()):
        self._params: dict[str, Parameter] = {}
        for p in params:
            self.add(p)

    def add(self, param: Parameter) -> Parameter:
        if param.name in self._params:
            raise ValueError(f"duplicate parameter name {param.name!r}")
        self._params[param.name] = param
        return param

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self) -> None:
        for p in self:
            p.zero_grad()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverses numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out_data, _parents=(a, b), _vjp=vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out_data, _parents=(a, b), _vjp=vjp)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data / b.data

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor(out_data, _parents=(a, b), _vjp=vjp)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def vjp(g):
        return (g * c,)

    return Tensor(a.data * c, _parents=(a,), _vjp=vjp)


def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b`` with shapes (..., N, P) x (..., P, Q).

    A 2-D operand is shared across the other operand's batch axes; its
    gradient sums over those axes.  An operand that needs no gradient (a
    constant such as a graph mask) gets none, so its product is never formed.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return Tensor(out_data, _parents=(a, b), _vjp=vjp)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return Tensor(np.transpose(a.data, axes), _parents=(a,), _vjp=vjp)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return Tensor(a.data.reshape(shape), _parents=(a,), _vjp=vjp)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out_data, _parents=tuple(tensors), _vjp=vjp)


def sum_axis(a, axis, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axis = axis if isinstance(axis, tuple) else (axis,)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out_data, _parents=(a,), _vjp=vjp)


def mean_axis(a, axis, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axis_t = axis if isinstance(axis, tuple) else (axis,)
    n = int(np.prod([a.shape[ax] for ax in axis_t]))
    return scale(sum_axis(a, axis_t, keepdims=keepdims), 1.0 / n)


def l2_norm(v) -> Tensor:
    """Euclidean norm of a vector as a scalar tensor."""
    v = _as_tensor(v)
    nrm = float(np.sqrt(np.dot(v.data, v.data)))
    if nrm == 0.0:
        raise ValueError("l2_norm of the zero vector is not differentiable")

    def vjp(g):
        return (g * (v.data / nrm),)

    return Tensor(np.asarray(nrm), _parents=(v,), _vjp=vjp)


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    """Elementwise x if x >= 0 else slope * x.

    The subgradient at the kink x = 0 is taken from the x >= 0 branch.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0, 1), got {slope}")
    x = _as_tensor(x)
    positive = x.data >= 0
    out_data = np.where(positive, x.data, slope * x.data)

    def vjp(g):
        return (np.where(positive, g, slope * g),)

    return Tensor(out_data, _parents=(x,), _vjp=vjp)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    # Branch on sign so neither exp overflows.
    pos = x.data >= 0
    z = np.exp(np.where(pos, -x.data, x.data))
    out_data = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))

    def vjp(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor(out_data, _parents=(x,), _vjp=vjp)


def exp(x) -> Tensor:
    """Elementwise e**x; an overflow to Inf raises ``NonFiniteError``."""
    x = _as_tensor(x)
    with np.errstate(over="ignore"):  # the Tensor below raises on Inf
        out_data = np.exp(x.data)

    def vjp(g):
        return (g * out_data,)

    return Tensor(out_data, _parents=(x,), _vjp=vjp)


def check_mask(mask, shape) -> np.ndarray:
    """A boolean neighbor mask, checked against the (..., R, K) array it masks.

    ``mask``'s last two axes must be (R, K), and it must broadcast to
    ``shape`` without adding axes: one (R, K) graph shared across all
    leading batch axes, or one graph per batch slice broadcast over the
    axes of size 1, such as a (B, 1, N, N) mask holding the per-utterance
    spatial graphs.  Raises ``ShapeError`` for any other mask and
    ``EmptyNeighborhoodError`` when a row has no masked-in entry.
    """
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        mask = mask.astype(bool)
    shape = tuple(shape)
    try:
        if (mask.ndim < 2 or mask.ndim > len(shape) or mask.shape[-2:] != shape[-2:]
                or np.broadcast_shapes(mask.shape, shape) != shape):
            raise ValueError
    except ValueError:
        raise ShapeError(f"mask shape {mask.shape} does not broadcast over {shape}") from None
    if not mask.any(axis=-1).all():
        raise EmptyNeighborhoodError("mask has a row with no neighbors")
    return mask


def masked_softmax(logits, mask) -> Tensor:
    """Row-wise softmax over masked-in entries only.

    ``logits`` has shape (..., R, K): R query rows scored against K keys.
    ``mask`` is a boolean neighbor mask over them (see :func:`check_mask`).
    Masked-out entries of the result are exactly zero; each row sums to
    one over its masked-in entries.  Stabilized by subtracting the
    per-row max over masked-in entries, so masked-out logits never
    contaminate the result.
    """
    logits = _as_tensor(logits)
    mask = check_mask(mask, logits.shape)

    out_data = np.where(mask, logits.data, -np.inf)
    out_data -= out_data.max(axis=-1, keepdims=True)
    np.exp(out_data, out=out_data)  # exp(-inf) is exactly 0 for masked-out entries
    out_data /= out_data.sum(axis=-1, keepdims=True)

    def vjp(g):
        grad = g - (g * out_data).sum(axis=-1, keepdims=True)
        grad *= out_data
        return (grad,)

    return Tensor(out_data, _parents=(logits,), _vjp=vjp)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of a softmax layer.

    ``logits``: (B, S); ``labels``: int array (B,) of class indices.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"cross entropy shapes disagree: {logits.shape} vs {labels.shape}")
    b = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    picked = logits.data[np.arange(b), labels]
    out_data = np.asarray((lse - picked).mean())
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)

    def vjp(g):
        gl = probs.copy()
        gl[np.arange(b), labels] -= 1.0
        return (gl * (g / b),)

    return Tensor(out_data, _parents=(logits,), _vjp=vjp)


def vjp_check(fn, inputs, h: float = 1e-5, skip=None, rng=None) -> float:
    """Compare a kernel's analytic VJP against central finite differences.

    ``fn`` maps len(inputs) tensors to one output tensor.  ``inputs`` may
    be ndarrays (wrapped as leaves) or existing leaf tensors/parameters.
    A fixed random cotangent u is drawn and the analytic gradient of
    <u, fn(x)> is compared element by element against central differences
    with a relative step ``h``.  ``skip`` optionally holds one boolean
    array per input marking elements to leave unchecked (used near
    non-differentiable points such as activation kinks or top-k ties).

    Returns the maximum relative error over all checked elements, where
    the error is |analytic - numeric| / max(|analytic|, |numeric|, 1).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    leaves = []
    for x in inputs:
        if isinstance(x, Tensor):
            if not x.requires_grad:
                raise ValueError("tensor inputs to vjp_check must require grad")
            leaves.append(x)
        else:
            leaves.append(Tensor(np.asarray(x, dtype=np.float64), requires_grad=True))
    if skip is None:
        skip = [None] * len(leaves)

    for leaf in leaves:
        leaf.grad = None
    out = fn(*leaves)
    u = rng.standard_normal(out.shape)
    out.backward(u)
    analytic = [np.zeros_like(l.data) if l.grad is None else np.array(l.grad) for l in leaves]

    def objective() -> float:
        return float(np.sum(u * fn(*leaves).data))

    max_err = 0.0
    for leaf, ana, skp in zip(leaves, analytic, skip):
        skp_flat = None if skp is None else np.asarray(skp, dtype=bool).reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(leaf.data.size):
            if skp_flat is not None and skp_flat[i]:
                continue
            pos = np.unravel_index(i, leaf.data.shape)
            orig = leaf.data[pos]
            step = h * max(1.0, abs(orig))
            leaf.data[pos] = orig + step
            f_plus = objective()
            leaf.data[pos] = orig - step
            f_minus = objective()
            leaf.data[pos] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(ana_flat[i] - numeric) / max(abs(ana_flat[i]), abs(numeric), 1.0)
            if err > max_err:
                max_err = err
    for leaf in leaves:
        if isinstance(leaf, Parameter):
            leaf.zero_grad()
        else:
            leaf.grad = None
    return max_err
