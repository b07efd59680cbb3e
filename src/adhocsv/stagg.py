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

gcn's attention is static: the paper's score beta . LeakyReLU([W_l h_i ||
W_r h_j]) for edge (i, j) splits into a term of node i plus a term of key
j, because LeakyReLU acts on each half on its own, and the softmax over
each node's neighbors cancels the node's own term.  So a gcn head scores
edge (i, j) from key j alone and holds no query weights (Brody et al.,
arXiv:2105.14491, call this static attention).  Its softmax is then a
masked, normalized pool: with w_j = exp(s_j - max s), node i's output is
sum_j M_ij w_j g_j / sum_j M_ij w_j, two products with the mask M and no
(..., N, N) attention.  One consequence: on a complete graph every node
of a slice has the same neighbors and so gets the same output, so one
gcn block on complete temporal and spatial graphs maps every channel and
frame of an utterance to one vector.

Output width equals input width (head dim = D / heads), so blocks stack
without projections.  There are no residuals or inter-block
nonlinearities; blocks are plain compositions with unshared parameters.
A module's widths are those of its weights; its LeakyReLU slope is GAT's
0.2 (Velickovic et al., arXiv:1710.10903).
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
from .graphs import build_complete, build_knn, build_temporal_span

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
    "save_checkpoint",
    "load_checkpoint",
]

MECHANISMS = ("sam", "gcn")
GRAPH_KINDS = ("complete", "span", "knn")
LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class GraphSpec:
    """How to build one adjacency: complete, span(delta), or knn(k)."""

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


@dataclass
class AggParams:
    """Per-head learnable matrices for one aggregation call.

    Each head's first matrix (sam's wq, gcn's wr) is (d_in, d_head).
    """

    mechanism: str
    heads: list[dict[str, Parameter]]

    def parameters(self) -> list[Parameter]:
        return [p for head in self.heads for p in head.values()]


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
    heads = []
    for m in range(n_heads):
        tag = f"{prefix}.head{m}"
        if mechanism == "sam":
            head = {
                "wq": Parameter(f"{tag}.wq", _uniform(rng, (d_in, d_head), d_in)),
                "wk": Parameter(f"{tag}.wk", _uniform(rng, (d_in, d_head), d_in)),
                "wv": Parameter(f"{tag}.wv", _uniform(rng, (d_in, d_head), d_in)),
            }
        else:
            # The query half of beta and the query weights are drawn and dropped
            # (the softmax cancels them), so a seed yields the same wr and key
            # half of beta as the full score's parameters would.
            beta = _uniform(rng, (2 * d_head,), 2 * d_head)[d_head:]
            _uniform(rng, (d_in, d_head), d_in)
            head = {
                "wr": Parameter(f"{tag}.wr", _uniform(rng, (d_in, d_head), d_in)),
                "beta": Parameter(f"{tag}.beta", beta),
            }
        heads.append(head)
    return AggParams(mechanism, heads)


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


def _swap_last(t: Tensor) -> Tensor:
    axes = tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2)
    return dc.transpose(t, axes)


def _checked_mask(x: Tensor, a, params: AggParams, mechanism: str) -> np.ndarray:
    """The boolean (batched) mask array ``a``, checked against x."""
    if params.mechanism != mechanism:
        raise ValueError(f"params carry mechanism {params.mechanism!r}, expected {mechanism!r}")
    if x.ndim < 2:
        raise dc.ShapeError("aggregation input must be (..., N, D)")
    d_in = params.parameters()[0].shape[0]
    if x.shape[-1] != d_in:
        raise dc.ShapeError(f"input dim {x.shape[-1]} != parameter dim {d_in}")
    n = x.shape[-2]
    return dc.check_mask(a, x.shape[:-2] + (n, n))


def sam_agg(x, a, params: AggParams) -> Tensor:
    """Multi-head self-attention with the adjacency masking the softmax.

    Per head: Q, K, V are linear maps of the input; scores Q K' / sqrt(d)
    are normalized over each node's neighbors only; the head output is
    the weighted value sum.  Heads are concatenated, so the output width
    equals the input width.

    ``x``: (..., N, D); leading axes are independent batch slices.
    ``a``: a boolean (N, N) adjacency, or a mask array broadcastable over
    the batch axes (one graph per slice; see :func:`diffcore.check_mask`).
    """
    x = _as_tensor(x)
    mask = _checked_mask(x, a, params, "sam")
    outs = []
    for head in params.heads:
        q = dc.matmul(x, head["wq"])
        k = dc.matmul(x, head["wk"])
        v = dc.matmul(x, head["wv"])
        scores = dc.scale(dc.matmul(q, _swap_last(k)), 1.0 / math.sqrt(q.shape[-1]))
        outs.append(dc.matmul(dc.masked_softmax(scores, mask), v))
    return dc.concat(outs, axis=-1)


def gcn_agg(x, a, params: AggParams) -> Tensor:
    """Additive-attention graph aggregation with static scores, as one masked pool.

    All heads at once: g = x [W_r,0 | ... | W_r,H-1]; node j's score for
    head h is s_jh = beta_h . LeakyReLU(g_j) over head h's dims, and
    w = exp(s - max s), the max taken per batch slice and head and held
    constant.  Node i's head-h output is sum_j M_ij w_jh g_jh / sum_j M_ij
    w_jh, the softmax-weighted sum of its neighbors' g rows (see the
    module docstring).

    ``a`` as in :func:`sam_agg`.  A row whose neighbors all score more
    than about 708 below the max underflows to a zero denominator and
    raises ``NonFiniteError``.
    """
    x = _as_tensor(x)
    mask = _checked_mask(x, a, params, "gcn")
    lead, n, h = x.shape[:-2], x.shape[-2], len(params.heads)
    d_head = params.heads[0]["wr"].shape[1]
    split, flat, per_head = lead + (n, h, d_head), lead + (n, h * d_head), lead + (n, h, 1)
    g = dc.reshape(dc.matmul(x, dc.concat([hd["wr"] for hd in params.heads], axis=-1)), split)
    beta = dc.reshape(dc.concat([hd["beta"] for hd in params.heads]), (h, d_head))
    s = dc.sum_axis(dc.mul(dc.leaky_relu(g, LEAKY_SLOPE), beta), -1)  # (..., N, H)
    w = dc.exp(dc.add(s, -s.data.max(axis=-2, keepdims=True)))
    m = Tensor(mask.astype(np.float64))
    num = dc.matmul(m, dc.reshape(dc.mul(g, dc.reshape(w, per_head)), flat))
    den = dc.matmul(m, w)
    if den.data.min() < np.finfo(np.float64).tiny:
        raise dc.NonFiniteError("gcn: a node's neighbors all score too far below the max "
                                "of its slice; their weights underflow to zero")
    return dc.reshape(dc.div(dc.reshape(num, split), dc.reshape(den, per_head)), flat)


def build_graph(spec: GraphSpec, n: int, positions=None) -> np.ndarray:
    """The bool (n, n) adjacency a GraphSpec describes (positions needed for knn)."""
    if spec.kind == "complete":
        return build_complete(n)
    if spec.kind == "span":
        return build_temporal_span(n, spec.delta)
    if positions is None:
        raise ValueError("knn graph spec needs node positions")
    return build_knn(positions, spec.k)


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
    (names, shapes and caller metadata such as seed and config), then each
    parameter's raw little-endian float64 data in manifest order.
    """
    manifest = dict(meta or {})
    manifest["format"] = "adhocsv-checkpoint"
    manifest["version"] = 1
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
    ``MemoryError``.
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
        if manifest.get("version") != 1:
            raise ValueError(f"{path}: unsupported checkpoint version {manifest.get('version')!r}")
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
        if left:
            raise ValueError(f"{path}: trailing bytes after last parameter")
    return manifest, values
