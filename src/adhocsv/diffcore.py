"""Differentiable dense-tensor kernels.

Every kernel here is a pure function: it evaluates its forward result and
passes, for each operand, a pullback: the hand-derived vector-Jacobian
product (VJP) that maps the result's cotangent to that operand's.  One
rule decides what is recorded: a result keeps the (operand, pullback)
edges of the operands that need a gradient, and a tensor needs one when it
is a leaf made with ``requires_grad`` or keeps an edge.  So a constant's
pullback never runs, a result of constants only records nothing, and no
kernel checks ``requires_grad`` itself.  The recorded graph is the minimum
needed by the aggregation, selection and training code; this is
deliberately not a general autodiff engine.

A recorded graph lives until its one backward pass: :meth:`Tensor.backward`
drops each node's edges as soon as their pullbacks have run, so the
pullbacks and the arrays they saved are freed while the pass walks on, and
a training step's graph is gone when its backward returns.  A result keeps
its ``data``; only what it recorded is dropped.  The rule is one backward
per graph: a second backward through any consumed node, including one
from a new graph built on a consumed intermediate, raises
``GraphConsumedError``.  Leaves are never consumed.

Shapes: kernels accept optional leading batch axes (written ``...``).
The batched forms are what the aggregation stack runs on; they are
defined so that the batched result equals stacking the unbatched results
slice by slice.  ``add``, ``mul`` and ``div`` follow numpy broadcasting;
``matmul`` takes equal batch axes or one 2-D right operand shared by
every slice, and nothing else; a neighbor mask holds one graph for all
slices or one per slice (see :func:`check_mask`).

All arithmetic is float64 (gradient checks need the headroom).

Finiteness is checked where values enter the program and where it keeps
or returns what it made, not in the kernels.  Frames
(``scenesim.FrameTensor`` and ``trainer._forward``), scene fields,
checkpoints (``stagg.load_checkpoint``) and config floats are checked as
they are read; ``trainer._forward`` checks the embeddings it returns, and
each training step the parameters its update wrote.  A kernel computes on
whatever it is given, so a NaN or Inf flows on to one of those checks.
The errors a kernel raises are those where its result is undefined:
``ShapeError`` for operands outside its contract,
``EmptyNeighborhoodError`` for a mask row with no neighbor,
``NonFiniteError`` from :func:`static_attention` when a row's weights
all underflow to zero, and :func:`l2_norm`'s ``ValueError`` for the zero
vector.
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
    "GraphConsumedError",
    "add",
    "mul",
    "div",
    "scale",
    "matmul",
    "transpose",
    "reshape",
    "sum_axis",
    "mean_axis",
    "l2_norm",
    "sigmoid",
    "check_mask",
    "masked_softmax",
    "static_attention",
    "softmax_cross_entropy",
    "vjp_check",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the kernel's contract."""


class EmptyNeighborhoodError(ValueError):
    """A neighbor-mask row has no masked-in entries to normalize over."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared where only finite values are allowed."""


class GraphConsumedError(RuntimeError):
    """A backward pass reached a graph that an earlier backward pass consumed."""


class Tensor:
    """A dense array node in the kernel graph.

    Tensors are immutable by convention: kernels never write into an
    input's ``data``.  The only sanctioned mutation is an optimizer (or
    finite-difference probe) updating a leaf ``Parameter`` between two
    recorded graphs.  A tensor's data is not checked to be finite (see the
    module docstring for where that is checked).
    """

    __slots__ = ("data", "grad", "requires_grad", "_edges")

    def __init__(self, data, requires_grad: bool = False, _edges=()):
        self.data = np.asarray(data, dtype=np.float64)
        # (parent, pullback) pairs; a parent that needs no gradient is dropped.
        self._edges = tuple([edge for edge in _edges if edge[0].requires_grad])
        self.requires_grad = bool(requires_grad) or bool(self._edges)
        self.grad = None

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

        ``cotangent`` defaults to 1 for scalar outputs.  Leaves keep their
        accumulated grads until cleared; this tensor keeps its cotangent.

        One call per recorded graph: the pass consumes every non-leaf node
        it reaches, dropping its edges once their pullbacks have run, so
        the graph is freed as it is walked.  Raises ``GraphConsumedError``,
        before any pullback runs, when the graph reaches a node that an
        earlier call consumed.
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
        while order:
            node = order.pop()  # the walk drops its reference as it goes
            if not node._edges:
                continue  # a leaf keeps its grad
            for parent, pullback in node._edges:
                g = pullback(node.grad)
                parent.grad = g if parent.grad is None else parent.grad + g
            node._edges = None  # consumed: the pullbacks and what they saved die here
            if node is not self:
                node.grad = None  # intermediates do not keep grads

    def _toposort(self):
        # Iterative DFS over the recorded edges.
        order, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._edges is None:
                raise GraphConsumedError("backward() reached a node whose recorded graph was "
                                         "already consumed by an earlier backward(); "
                                         "the rule is one backward per recorded graph")
            stack.append((node, True))
            for parent, _ in node._edges:
                stack.append((parent, False))
        return order  # parents first: the walk pops its tail end, the output, first

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named leaf tensor with a zero-initialized gradient accumulator.

    With ``requires_grad=False`` it is a named constant instead: it has no
    accumulator, and no kernel records an edge to it.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, value, requires_grad: bool = True):
        super().__init__(value, requires_grad=requires_grad)
        self.name = name
        self.grad = np.zeros_like(self.data) if requires_grad else None

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
    return Tensor(a.data + b.data, _edges=((a, lambda g: _unbroadcast(g, a.shape)),
                                           (b, lambda g: _unbroadcast(g, b.shape))))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(a.data * b.data, _edges=((a, lambda g: _unbroadcast(g * b.data, a.shape)),
                                           (b, lambda g: _unbroadcast(g * a.data, b.shape))))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(a.data / b.data, _edges=(
        (a, lambda g: _unbroadcast(g / b.data, a.shape)),
        (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape))))


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return Tensor(a.data * c, _edges=((a, lambda g: g * c),))


def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b`` of (..., N, P) x (..., P, Q) operands.

    Two shape pairs are accepted: equal batch axes, or a 2-D ``b`` shared
    by every batch slice of ``a``.  In the shared case b's gradient is one
    2-D product over all of a's rows, ``a.reshape(-1, P)' g.reshape(-1, Q)``.
    Any other pair raises ``ShapeError``.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
            or (b.ndim > 2 and a.shape[:-2] != b.shape[:-2])):
        raise ShapeError(f"matmul needs (..., N, P) x (..., P, Q) with equal batch axes or a 2-D "
                         f"right operand, got {a.shape} x {b.shape}")

    def pull_b(g):
        if b.ndim == 2:
            return np.matmul(a.data.reshape(-1, b.shape[0]).T, g.reshape(-1, b.shape[1]))
        return np.matmul(np.swapaxes(a.data, -1, -2), g)

    return Tensor(np.matmul(a.data, b.data), _edges=(
        (a, lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2))), (b, pull_b)))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return Tensor(np.transpose(a.data, axes), _edges=((a, lambda g: np.transpose(g, inverse)),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    return Tensor(a.data.reshape(shape), _edges=((a, lambda g: g.reshape(a.shape)),))


def sum_axis(a, axis, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axis = axis if isinstance(axis, tuple) else (axis,)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def pullback(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape).copy()

    return Tensor(out_data, _edges=((a, pullback),))


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
    return Tensor(np.asarray(nrm), _edges=((v, lambda g: g * (v.data / nrm)),))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    # Branch on sign so neither exp overflows.
    pos = x.data >= 0
    z = np.exp(np.where(pos, -x.data, x.data))
    out_data = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))
    return Tensor(out_data, _edges=((x, lambda g: g * out_data * (1.0 - out_data)),))


def _shared(fn):
    """``fn`` of a node's cotangent, computed once for all of its pullbacks.

    The first pullback to ask computes it.  The memo lives in the
    pullbacks' closures, which :meth:`Tensor.backward` drops once they
    have run, so it dies with them.
    """
    memo = []

    def terms(g):
        if not memo or memo[0] is not g:
            memo[:] = [g, fn(g)]
        return memo[1]

    return terms


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

    def pullback(g):
        grad = g - (g * out_data).sum(axis=-1, keepdims=True)
        grad *= out_data
        return grad

    return Tensor(out_data, _edges=((logits, pullback),))


def static_attention(x, wr, beta, mask, slope: float) -> Tensor:
    """Multi-head attention whose scores depend on the key alone, as one masked, normalized pool.

    ``x`` is (..., N, D), ``wr`` (D, H * d) and ``beta`` (H, d).  With
    g = x wr, split into H heads of width d, key j's head-h score is
    s_jh = beta_h . lr_jh with lr = max(g, slope * g) (LeakyReLU), and its
    weight is w_jh = exp(s_jh - max_j s_jh), the max taken per batch slice
    and head and held constant.  Node i's head-h output is
    out_ih = sum_j M_ij w_jh g_jh / den_ih with den_ih = sum_j M_ij w_jh,
    for the bool neighbor mask M (see :func:`check_mask`); the heads lie
    side by side, so the result is (..., N, H * d).  A row whose weights
    all underflow to zero raises ``NonFiniteError``.

    VJP, for the result's cotangent u split into heads like g: the shared
    terms a = M' (u / den), the score cotangent
    ds = w * (sum_d a * g - M' sum_d (u / den) * out) and the slope factor
    1 where g >= 0, else ``slope``, give
    dg = a * w + ds beta * slope factor.  Then dx = dg wr',
    dwr = x' dg and dbeta = sum_j ds_j lr_j, each summed over the batch
    axes.  The shared terms are computed once, whichever operands need a
    gradient.
    """
    x, wr, beta = _as_tensor(x), _as_tensor(wr), _as_tensor(beta)
    if x.ndim < 2 or wr.ndim != 2 or beta.ndim != 2:
        raise ShapeError(f"static attention needs (..., N, D), (D, H * d) and (H, d) operands, "
                         f"got {x.shape}, {wr.shape} and {beta.shape}")
    (h, d), n = beta.shape, x.shape[-2]
    if x.shape[-1] != wr.shape[0] or wr.shape[1] != h * d:
        raise ShapeError(f"static attention shapes disagree: {x.shape}, {wr.shape}, {beta.shape}")
    m = check_mask(mask, x.shape[:-1] + (n,)).astype(np.float64)
    mt = np.swapaxes(m, -1, -2)
    flat = x.shape[:-2] + (n, h * d)
    # A fresh array of g's size costs more than a pass over it, so the passes
    # below write into the few arrays of that size this kernel owns.
    g = np.matmul(x.data, wr.data).reshape(flat[:-1] + (h, d))
    buf = np.multiply(g, slope)
    np.maximum(buf, g, out=buf)  # lr
    s = np.einsum("...hd,hd->...h", buf, beta.data)  # (..., N, H)
    w = np.exp(s - s.max(axis=-2, keepdims=True))
    out = np.matmul(m, np.multiply(g, w[..., None], out=buf).reshape(flat)).reshape(g.shape)
    den = np.matmul(m, w)
    if den.min() < np.finfo(np.float64).tiny:
        raise NonFiniteError("a node's neighbors all score too far below the max of its slice; "
                             "their weights underflow to zero")
    out /= den[..., None]

    def terms(u):
        c = u.reshape(g.shape) / den[..., None]
        a = np.matmul(mt, c.reshape(flat)).reshape(g.shape)
        ds = w * (np.einsum("...d,...d->...", a, g)
                  - np.matmul(mt, np.einsum("...d,...d->...", c, out)))
        np.maximum(np.multiply(g, slope, out=c), g, out=c)  # lr
        dbeta = np.einsum("mh,mhd->hd", ds.reshape(-1, h), c.reshape(-1, h, d))
        np.multiply(g >= 0, 1.0 - slope, out=c)
        c += slope  # the slope factor: exactly 1 or slope
        c *= beta.data
        c *= ds[..., None]
        a *= w[..., None]
        a += c
        return a.reshape(flat), dbeta

    shared = _shared(terms)
    return Tensor(out.reshape(flat), _edges=(
        (x, lambda u: np.matmul(shared(u)[0], wr.data.T)),
        (wr, lambda u: np.matmul(x.data.reshape(-1, wr.shape[0]).T,
                                 shared(u)[0].reshape(-1, h * d))),
        (beta, lambda u: shared(u)[1])))


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

    def pullback(g):
        gl = probs.copy()
        gl[np.arange(b), labels] -= 1.0
        return gl * (g / b)

    return Tensor(out_data, _edges=((logits, pullback),))


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
