"""Graph-based spatial-temporal aggregation.

The stack transforms a batch of B x C x T x D frame tensors.  Each block
runs a temporal pass (one graph over the frames of each channel, shared
weights across channels) and then a spatial pass (one graph over the
channels of each frame, shared weights across frames; every utterance
brings its own channel graph).  Two interchangeable mechanisms are
provided: masked multi-head self-attention ("sam") and an additive
attention aggregation with LeakyReLU edge scores ("gcn"); :func:`st_stack`
is the one place that picks between them.  A stack may hold zero blocks:
it then returns its input, and the model pools the frame features as
they are (the MEAN baseline, ``model.n_blocks: 0``).

Every graph the stack reads is built here as a bool (N, N) mask, entry
(i, j) True when node i sees node j: :func:`build_graph` makes each kind,
and :func:`restrict` narrows one to the frames or channels an utterance
uses.  Both keep a self-loop on every node, so no attention row is empty.

gcn's attention is static: the paper's score beta . LeakyReLU([W_l h_i ||
W_r h_j]) for edge (i, j) splits into a term of node i plus a term of key
j, because LeakyReLU acts on each half on its own, and the softmax over
each node's neighbors cancels the node's own term.  So a gcn head scores
edge (i, j) from key j alone and holds no query weights (Brody et al.,
arXiv:2105.14491, call this static attention).  Its softmax is then a
masked, normalized pool: with w_j = exp(s_j - max s), node i's output is
sum_j M_ij w_j g_j / sum_j M_ij w_j, two products with the mask M and no
(..., N, N) attention.  The whole module is one recorded kernel,
:func:`diffcore.static_attention`, with a hand-derived VJP that needs two
products with M' (see :func:`gcn_agg` for both formulas).  One
consequence: on a complete graph every node of a slice has the same
neighbors and so gets the same output, so one gcn block on complete
temporal and spatial graphs maps every channel and frame of an utterance
to one vector.

Output width equals input width (head dim = D / heads), so blocks stack
without projections.  There are no residuals or inter-block
nonlinearities; blocks are plain compositions with unshared parameters.
A module's widths are those of its weights; its LeakyReLU slope is GAT's
0.2 (Velickovic et al., arXiv:1710.10903).

A module holds one Parameter per role, with every head stacked in it
(:class:`AggParams`), named ``block{b}.{temporal,spatial}.{role}``:
gcn's ``wr`` and ``beta``, sam's ``wq``, ``wk`` and ``wv``.  Checkpoints
record these names (version ``CHECKPOINT_VERSION``, 2), and only the
current version loads.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Parameter, ParamSet, Tensor

__all__ = [
    "AggParams",
    "BlockParams",
    "GraphSpec",
    "init_agg_params",
    "init_stack_params",
    "sam_agg",
    "gcn_agg",
    "st_stack",
    "build_graph",
    "restrict",
    "save_checkpoint",
    "load_checkpoint",
]

MECHANISMS = ("sam", "gcn")
CHECKPOINT_VERSION = 2
GRAPH_KINDS = ("complete", "span", "knn")
LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class GraphSpec:
    """How to build one adjacency: complete, span(delta), or knn(k).

    The setting a kind does not read keeps its default, so specs that build
    the same graph compare equal.
    """

    kind: str = "complete"
    delta: int = 1
    k: int = 4

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}; expected one of {GRAPH_KINDS}")
        if self.delta < 0:
            raise ValueError(f"graph delta must be nonnegative, got {self.delta}")
        if self.k < 0:
            raise ValueError(f"graph k must be nonnegative, got {self.k}")
        if self.kind != "span":
            object.__setattr__(self, "delta", GraphSpec.delta)
        if self.kind != "knn":
            object.__setattr__(self, "k", GraphSpec.k)


@dataclass
class AggParams:
    """The learnable weights of one aggregation module, one Parameter per role.

    For H heads of width D / H over D-wide inputs, gcn holds ``wr``, (D, D),
    whose column block h projects head h's keys, and ``beta``, (H, D / H),
    whose row h scores them; sam holds ``wq``, ``wk`` and ``wv``, each
    (H, D, D / H), the query, key and value projections stacked over heads.
    """

    mechanism: str
    weights: dict[str, Parameter]

    def parameters(self) -> list[Parameter]:
        return list(self.weights.values())


@dataclass
class BlockParams:
    temporal: AggParams
    spatial: AggParams

    def parameters(self) -> list[Parameter]:
        return self.temporal.parameters() + self.spatial.parameters()


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_agg_params(
    mechanism: str,
    d_in: int,
    n_heads: int,
    rng: np.random.Generator,
    prefix: str,
) -> AggParams:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if d_in % n_heads != 0:
        raise ValueError(f"embedding dim {d_in} must split evenly over {n_heads} heads")
    d_head = d_in // n_heads
    # Each head draws its weights in turn and the draws are stacked, so a seed
    # gives the same numbers whatever the layout.
    draws = []
    for _ in range(n_heads):
        if mechanism == "sam":
            draws.append([_uniform(rng, (d_in, d_head), d_in) for _ in range(3)])
        else:
            # The query half of beta and the query weights are drawn and dropped
            # (the softmax cancels them), so a seed yields the same wr and key
            # half of beta as the full score's parameters would.
            beta = _uniform(rng, (2 * d_head,), 2 * d_head)[d_head:]
            _uniform(rng, (d_in, d_head), d_in)
            draws.append([_uniform(rng, (d_in, d_head), d_in), beta])
    if mechanism == "sam":
        stacked = {role: np.stack(w) for role, w in zip(("wq", "wk", "wv"), zip(*draws))}
    else:
        wr, beta = zip(*draws)
        stacked = {"wr": np.concatenate(wr, axis=1), "beta": np.stack(beta)}
    return AggParams(mechanism, {role: Parameter(f"{prefix}.{role}", value)
                                 for role, value in stacked.items()})


def init_stack_params(mechanism: str, n_blocks: int, d: int, n_heads: int,
                      rng: np.random.Generator) -> list[BlockParams]:
    """Unshared parameters for every temporal/spatial module in the stack (none for 0 blocks)."""
    if n_blocks < 0:
        raise ValueError(f"block count must be nonnegative, got {n_blocks}")
    blocks = []
    for b in range(n_blocks):
        blocks.append(BlockParams(
            temporal=init_agg_params(mechanism, d, n_heads, rng, f"block{b}.temporal"),
            spatial=init_agg_params(mechanism, d, n_heads, rng, f"block{b}.spatial"),
        ))
    return blocks


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_input(x: Tensor, params: AggParams, mechanism: str) -> None:
    """x is (..., N, D) for the module's D; the kernels check the mask."""
    if params.mechanism != mechanism:
        raise ValueError(f"params carry mechanism {params.mechanism!r}, expected {mechanism!r}")
    if x.ndim < 2:
        raise dc.ShapeError("aggregation input must be (..., N, D)")
    d_in = params.parameters()[0].shape[-2]
    if x.shape[-1] != d_in:
        raise dc.ShapeError(f"input dim {x.shape[-1]} != parameter dim {d_in}")


def sam_agg(x, a, params: AggParams) -> Tensor:
    """Multi-head self-attention with the adjacency masking the softmax.

    Per head: Q, K, V are linear maps of the input; scores Q K' / sqrt(d)
    are normalized over each node's neighbors only; the head output is
    the weighted value sum.  Each role's (H, D, d) weights are read as one
    (D, H * d) matrix whose column block h is head h's, so one 2-D product
    projects every head of every batch slice (the query matrix also carries
    the 1 / sqrt(d), a (D, H * d) pass instead of an (..., H, N, N) one).
    Reshape and transpose then split the heads onto an axis of their own,
    which the mask broadcasts over.  The heads' outputs are laid side by
    side, so the output width equals the input width.

    ``x``: (..., N, D); leading axes are independent batch slices.
    ``a``: a boolean (N, N) adjacency, or a mask array broadcastable over
    the batch axes (one graph per slice; see :func:`diffcore.check_mask`).
    """
    x = _as_tensor(x)
    _check_input(x, params, "sam")
    lead, n = x.shape[:-2], x.shape[-2]
    h, d_in, d_head = params.weights["wq"].shape

    def last_three(order):
        return tuple(range(len(lead))) + tuple(len(lead) + i for i in order)

    def project(role, order, c=1.0):
        # x times the role's (D, H * d) matrix, split into (..., N, H, d), then
        # those three axes put in ``order``.
        w = dc.reshape(dc.transpose(params.weights[role], (1, 0, 2)), (d_in, h * d_head))
        w = dc.scale(w, c)
        return dc.transpose(dc.reshape(dc.matmul(x, w), lead + (n, h, d_head)), last_three(order))

    q = project("wq", (1, 0, 2), 1.0 / math.sqrt(d_head))  # (..., H, N, d)
    kt = project("wk", (1, 2, 0))  # (..., H, d, N)
    v = project("wv", (1, 0, 2))
    mask = np.asarray(a)
    if mask.ndim >= 2:  # masked_softmax refuses the rest
        mask = mask[..., None, :, :]
    out = dc.matmul(dc.masked_softmax(dc.matmul(q, kt), mask), v)  # (..., H, N, d)
    return dc.reshape(dc.transpose(out, last_three((1, 0, 2))), lead + (n, h * d_head))


def gcn_agg(x, a, params: AggParams) -> Tensor:
    """Additive-attention graph aggregation with static scores, as one masked pool.

    All heads run in one recorded kernel, :func:`diffcore.static_attention`.
    Forward: g = x W_r, whose column block h is head h's;
    lr = max(g, 0.2 g); node j's head-h score s_jh = beta_h . lr_jh; weights
    w = exp(s - max s), the max taken per batch slice and head and held
    constant; out = (M (g * w)) / (M w), so node i's head-h output is the
    softmax-weighted sum of its neighbors' g rows (see the module docstring).
    Backward, for the output's cotangent u: a = M' (u / (M w)) and the score
    cotangent ds = w * (sum_d a * g - M' sum_d (u / (M w)) * out) are
    computed once; with the slope factor f = 1 where g >= 0, else 0.2,
    dg = a * w + ds beta f, and the gradients are dx = dg W_r',
    dW_r = x' dg and dbeta = sum_j ds_j lr_j.

    ``a`` as in :func:`sam_agg`.  A row whose neighbors all score more
    than about 708 below the max underflows to a zero denominator and
    raises ``NonFiniteError``.
    """
    x = _as_tensor(x)
    _check_input(x, params, "gcn")
    try:
        return dc.static_attention(x, params.weights["wr"], params.weights["beta"], a,
                                   LEAKY_SLOPE)
    except dc.NonFiniteError as err:
        raise dc.NonFiniteError(f"gcn: {err}") from err


def build_graph(spec: GraphSpec, n: int, positions=None) -> np.ndarray:
    """The bool (n, n) adjacency a GraphSpec describes, with a self-loop on every node.

    complete links every pair and span links i and j iff |i - j| <= delta.
    knn links each node to its min(k, n - 1) nearest others by the (n, dims)
    ``positions``, ties toward the lower index; it need not be symmetric.
    """
    if n < 1:
        raise ValueError(f"a graph needs at least one node, got {n}")
    if spec.kind == "complete":
        return np.ones((n, n), dtype=bool)
    if spec.kind == "span":
        idx = np.arange(n)
        return np.abs(idx[:, None] - idx[None, :]) <= spec.delta
    if positions is None:
        raise ValueError("knn graph spec needs node positions")
    pos = np.asarray(positions, dtype=np.float64)
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(dist, -np.inf)  # each node sorts first in its own row
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :spec.k + 1]  # the slice stops at n
    graph = np.zeros((n, n), dtype=bool)
    np.put_along_axis(graph, nearest, True, axis=1)
    return graph


def restrict(graph: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``graph & nodes_i & nodes_j | I`` for a bool (..., N, N) graph and (..., N) nodes in use.

    An unused node sees only itself, and no used node sees it.
    """
    return graph & nodes[..., :, None] & nodes[..., None, :] | np.eye(nodes.shape[-1], dtype=bool)


def st_stack(x, blocks: list[BlockParams], a_temporal: np.ndarray, spatial_mask) -> Tensor:
    """Run the aggregation blocks over a batch of utterances.

    ``x``: (B, C, T, D).  Each block aggregates over frames with
    ``a_temporal``, then over channels with ``spatial_mask``, a boolean
    (B, C, C) array holding one channel graph per utterance, shared by all
    its frames.  ``a_temporal`` is a boolean (T, T) adjacency or a mask
    broadcastable to (B, C, T, T), such as a (B, 1, T, T) mask holding one
    frame graph per utterance, shared by its channels; utterances padded
    to T frames run in one batch when each padded frame sees only itself
    and no valid frame sees a padded one.  Every block computes the same
    result as running each channel's (T, D) slice and then each frame's
    (C, D) slice through the aggregation on its own.  Output shape equals
    input shape.
    """
    x = _as_tensor(x)
    if x.ndim != 4:
        raise dc.ShapeError(f"stack expects (B, C, T, D), got {x.shape}")
    b, c = x.shape[:2]
    spatial_mask = np.asarray(spatial_mask, dtype=bool)
    if spatial_mask.shape != (b, c, c):
        raise dc.ShapeError(f"spatial mask must be {(b, c, c)}, got {spatial_mask.shape}")
    per_frame = spatial_mask[:, None, :, :]  # broadcasts over the frame axis
    out = x
    for block in blocks:
        agg = sam_agg if block.temporal.mechanism == "sam" else gcn_agg
        out = agg(out, a_temporal, block.temporal)
        out = dc.transpose(out, (0, 2, 1, 3))  # (B, T, C, D)
        out = agg(out, per_frame, block.spatial)
        out = dc.transpose(out, (0, 2, 1, 3))
    return out


def save_checkpoint(path, params: ParamSet, meta: dict | None = None) -> None:
    """Write parameters as a JSON manifest plus concatenated float64 blobs.

    Layout: 8-byte little-endian header length, UTF-8 JSON manifest
    (``CHECKPOINT_VERSION``, names, shapes and caller metadata such as seed
    and config), then each parameter's raw little-endian float64 data in
    manifest order.  Version 2 holds one blob per role of each aggregation
    module, named ``block{b}.{temporal,spatial}.{role}`` with the shapes
    of :class:`AggParams`.  Only the current version loads: a file of any
    other version is refused, not converted.
    """
    manifest = dict(meta or {})
    manifest["format"] = "adhocsv-checkpoint"
    manifest["version"] = CHECKPOINT_VERSION
    manifest["params"] = [{"name": p.name, "shape": list(p.shape)} for p in params]
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for p in params:
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (manifest, name -> float64 array).

    Every length the file declares (header, parameter shapes) is checked
    against the bytes actually left in it before anything is read, so a
    corrupt or hostile file raises ``ValueError`` naming it, never a
    ``MemoryError``.  So does a file of another version than
    ``CHECKPOINT_VERSION``, and a parameter that holds NaN or Inf.
    """
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size
        if left < 8:
            raise ValueError(f"{path}: too short for a checkpoint header ({left} bytes)")
        (header_len,) = struct.unpack("<Q", f.read(8))
        left -= 8
        if header_len > left:
            raise ValueError(f"{path}: header claims {header_len} bytes, file has {left} left")
        try:
            manifest = json.loads(f.read(header_len).decode("utf-8"))
        except ValueError as err:
            raise ValueError(f"{path}: header is not a JSON manifest ({err})") from err
        left -= header_len
        if not isinstance(manifest, dict) or manifest.get("format") != "adhocsv-checkpoint":
            raise ValueError(f"{path}: not a checkpoint file")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {manifest.get('version')!r}"
                             f"; only version {CHECKPOINT_VERSION} loads")
        entries = manifest.get("params")
        if not isinstance(entries, list):
            raise ValueError(f"{path}: manifest has no parameter list")
        values: dict[str, np.ndarray] = {}
        for entry in entries:
            name = entry.get("name") if isinstance(entry, dict) else None
            shape = entry.get("shape") if isinstance(entry, dict) else None
            if (not isinstance(name, str) or not isinstance(shape, list)
                    or not all(isinstance(n, int) and n >= 0 for n in shape)):
                raise ValueError(f"{path}: malformed parameter entry {entry!r}")
            nbytes = 8 * math.prod(shape)
            if nbytes > left:
                raise ValueError(f"{path}: truncated blob for {name!r} "
                                 f"({nbytes} bytes declared, {left} left)")
            raw = f.read(nbytes)
            left -= nbytes
            values[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.isfinite(values[name]).all():
                raise ValueError(f"{path}: parameter {name!r} holds NaN or Inf")
        if left:
            raise ValueError(f"{path}: trailing bytes after last parameter")
    return manifest, values
