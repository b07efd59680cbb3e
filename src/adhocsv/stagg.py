"""Graph-based spatial-temporal aggregation.

The stack transforms a batch of B x C x T x D frame tensors.  Each block
runs a temporal pass (one graph over the frames of each channel, shared
weights across channels) and then a spatial pass (one graph over the
channels of each frame, shared weights across frames; every utterance
brings its own channel graph).  Two interchangeable mechanisms are
provided: masked multi-head self-attention ("sam") and an additive
attention aggregation with LeakyReLU edge scores ("gcn"); :func:`st_stack`
is the one place that picks between them.

gcn's attention is static: the paper's score beta . LeakyReLU([W_l h_i ||
W_r h_j]) for edge (i, j) splits into a term of node i plus a term of key
j, because LeakyReLU acts on each half on its own, and the softmax over
each node's neighbors cancels the node's own term.  So a gcn head scores
edge (i, j) from key j alone and holds no query weights (Brody et al.,
arXiv:2105.14491, call this static attention).

Output width equals input width (head dim = D / heads), so blocks stack
without projections.  There are no residuals or inter-block
nonlinearities; blocks are plain compositions with unshared parameters.

Each aggregation call computes its attention in one of two layouts; the
mechanisms' equations are the same in both, and so are the results up to
rounding.

- Dense: every node's query meets every node's key, an (..., N, N)
  attention masked by the graph.  Complete graphs, batched masks (the
  per-utterance spatial graphs, and the per-utterance temporal graphs of
  a frame-padded batch) and short sequences use it.
- Block: when the mask is one (N, N) graph whose masked-in entries all lie
  within a bandwidth delta = max |i - j| of the diagonal (a span graph)
  and 2 * (4 delta + 1) <= N, queries are cut into blocks of 2 delta + 1
  rows, keys and values into overlapping windows of 4 delta + 1 rows
  (:func:`diffcore.windows`), and each block attends only to its window:
  (..., nb, 2 delta + 1, 4 delta + 1) with nb = ceil(N / (2 delta + 1)).
  The block mask is gathered from the graph itself, so any banded graph
  (symmetric or not) keeps its exact edges.  Query rows padded past N see
  only themselves and are cropped from the output.  Past the threshold
  the block layout computes at most about half the dense entries.

``with_weights=True`` returns dense (..., N, N) weights in either layout.
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
from .graphs import Adjacency, build_complete, build_knn, build_temporal_span

__all__ = [
    "FrameTensor",
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


@dataclass(frozen=True)
class FrameTensor:
    """Frame-level speaker embeddings for C channels, T frames, D dims."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"frame tensor must be (C, T, D) with positive dims, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("frame tensor holds NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def c(self) -> int:
        return self.data.shape[0]

    @property
    def t(self) -> int:
        return self.data.shape[1]

    @property
    def d(self) -> int:
        return self.data.shape[2]


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
    """Per-head learnable matrices for one aggregation call."""

    mechanism: str
    d_in: int
    n_heads: int
    d_head: int
    heads: list[dict[str, Parameter]]
    leaky_slope: float = 0.2

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
    leaky_slope: float = 0.2,
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
    return AggParams(mechanism, d_in, n_heads, d_head, heads, leaky_slope)


def init_stack_params(mechanism: str, n_blocks: int, d: int, n_heads: int,
                      rng: np.random.Generator, leaky_slope: float = 0.2) -> list[BlockParams]:
    """Unshared parameters for every temporal/spatial module in the stack."""
    if n_blocks < 1:
        raise ValueError("stack needs at least one block")
    blocks = []
    for b in range(n_blocks):
        blocks.append(BlockParams(
            temporal=init_agg_params(mechanism, d, n_heads, rng, f"block{b}.temporal",
                                     leaky_slope),
            spatial=init_agg_params(mechanism, d, n_heads, rng, f"block{b}.spatial", leaky_slope),
        ))
    return blocks


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _swap_last(t: Tensor) -> Tensor:
    axes = tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2)
    return dc.transpose(t, axes)


def _mask_of(a) -> np.ndarray:
    """Boolean mask from an Adjacency or a (batched) boolean array."""
    return a.entries if isinstance(a, Adjacency) else np.asarray(a, dtype=bool)


class _Layout:
    """Where one aggregation call computes its attention (see the module docstring).

    ``mask`` is the aggregation's boolean mask; in the block layout it is
    replaced by the (nb, 2 delta + 1, 4 delta + 1) block mask.
    """

    def __init__(self, mask: np.ndarray):
        self.n = mask.shape[-1]
        self.mask = mask
        self.blocked = False
        if mask.ndim != 2 or mask.shape[0] != self.n or not mask.any():
            return
        rows, cols = np.nonzero(mask)
        delta = int(np.abs(rows - cols).max())
        self.block, self.window = 2 * delta + 1, 4 * delta + 1
        if 2 * self.window > self.n:
            return
        self.blocked = True
        self.delta = delta
        self.count = -(-self.n // self.block)
        # Block b's query row r is frame b*block + r; its window column c is
        # frame b*block - delta + c.
        qi = np.arange(self.count * self.block).reshape(self.count, self.block, 1)
        ki = (np.arange(self.count) * self.block - delta)[:, None, None] + np.arange(self.window)
        qi, ki = np.broadcast_arrays(qi, ki)
        self._inside = (qi < self.n) & (ki >= 0) & (ki < self.n)
        self._rows, self._cols = qi[self._inside], ki[self._inside]
        self.mask = np.zeros(qi.shape, dtype=bool)
        self.mask[self._inside] = mask[self._rows, self._cols]
        self.mask |= (qi >= self.n) & (ki == qi)  # padded query rows see only themselves

    def queries(self, t: Tensor) -> Tensor:
        """(..., N, d) rows as queries: (..., nb, 2 delta + 1, d) in the block layout."""
        if not self.blocked:
            return t
        return dc.windows(t, self.block, self.block, 0, self.count)

    def keys(self, t: Tensor) -> Tensor:
        """(..., N, d) rows as keys/values: (..., nb, 4 delta + 1, d) in the block layout."""
        if not self.blocked:
            return t
        return dc.windows(t, self.window, self.block, self.delta, self.count)

    def key_row(self, s: Tensor) -> Tensor:
        """(..., N) per-key scores as a row: (..., 1, N), or (..., nb, 1, 4 delta + 1)."""
        if not self.blocked:
            return dc.reshape(s, s.shape[:-1] + (1, self.n))
        windowed = self.keys(dc.reshape(s, s.shape + (1,)))
        return dc.reshape(windowed, windowed.shape[:-2] + (1, self.window))

    def crop(self, out: Tensor) -> Tensor:
        """Aggregated query rows back to (..., N, d)."""
        if not self.blocked:
            return out
        lead, d = out.shape[:-3], out.shape[-1]
        flat = dc.reshape(out, lead + (self.count * self.block, d))
        return dc.reshape(dc.windows(flat, self.n, self.n, 0, 1), lead + (self.n, d))

    def dense_weights(self, attn: Tensor) -> Tensor:
        """Attention weights as (..., N, N); block-layout weights come back as a constant."""
        if not self.blocked:
            return attn
        dense = np.zeros(attn.shape[:-3] + (self.n, self.n))
        dense[..., self._rows, self._cols] = attn.data[..., self._inside]
        return Tensor(dense)


def _check_agg_inputs(x: Tensor, mask: np.ndarray, params: AggParams, mechanism: str) -> None:
    if params.mechanism != mechanism:
        raise ValueError(f"params carry mechanism {params.mechanism!r}, expected {mechanism!r}")
    if x.ndim < 2:
        raise dc.ShapeError("aggregation input must be (..., N, D)")
    if x.shape[-1] != params.d_in:
        raise dc.ShapeError(f"input dim {x.shape[-1]} != parameter dim {params.d_in}")
    if x.shape[-2] != mask.shape[-1]:
        raise dc.ShapeError(f"adjacency is over {mask.shape[-1]} nodes, input has {x.shape[-2]}")


def sam_agg(x, a, params: AggParams, with_weights: bool = False):
    """Multi-head self-attention with the adjacency masking the softmax.

    Per head: Q, K, V are linear maps of the input; scores Q K' / sqrt(d)
    are normalized over each node's neighbors only; the head output is
    the weighted value sum.  Heads are concatenated, so the output width
    equals the input width.

    ``x``: (..., N, D); leading axes are independent batch slices.
    ``a``: an Adjacency, or a boolean mask array broadcastable over the
    batch axes (one graph per slice).  A single banded graph runs in the
    block layout (see the module docstring).
    """
    x = _as_tensor(x)
    mask = _mask_of(a)
    _check_agg_inputs(x, mask, params, "sam")
    layout = _Layout(mask)
    inv_sqrt_d = 1.0 / math.sqrt(params.d_head)
    outs, weights = [], []
    for head in params.heads:
        q = layout.queries(dc.matmul(x, head["wq"]))
        k = layout.keys(dc.matmul(x, head["wk"]))
        v = layout.keys(dc.matmul(x, head["wv"]))
        scores = dc.scale(dc.matmul(q, _swap_last(k)), inv_sqrt_d)
        attn = dc.masked_softmax(scores, layout.mask)
        outs.append(dc.matmul(attn, v))
        weights.append(attn)
    out = layout.crop(dc.concat(outs, axis=-1))
    return (out, [layout.dense_weights(w) for w in weights]) if with_weights else out


def gcn_agg(x, a, params: AggParams, with_weights: bool = False):
    """Additive-attention graph aggregation with static scores.

    Per head: the input is projected to g = x W_r; edge (i, j) is scored
    from key j alone, s_j = beta . LeakyReLU(g[j]) (the node's own term of
    the paper's score cancels in the softmax, see the module docstring),
    normalized over each node's neighbors; the node output is the
    attention-weighted sum of its neighbors' g rows.

    ``a`` as in :func:`sam_agg`.
    """
    x = _as_tensor(x)
    mask = _mask_of(a)
    _check_agg_inputs(x, mask, params, "gcn")
    layout = _Layout(mask)
    outs, weights = [], []
    for head in params.heads:
        g = dc.matmul(x, head["wr"])
        s = dc.matvec(dc.leaky_relu(g, params.leaky_slope), head["beta"])
        attn = dc.masked_softmax(layout.key_row(s), layout.mask)
        outs.append(dc.matmul(attn, layout.keys(g)))
        weights.append(attn)
    out = layout.crop(dc.concat(outs, axis=-1))
    return (out, [layout.dense_weights(w) for w in weights]) if with_weights else out


def build_graph(spec: GraphSpec, n: int, positions=None) -> Adjacency:
    """Materialize a GraphSpec for n nodes (positions needed for knn)."""
    if spec.kind == "complete":
        return build_complete(n)
    if spec.kind == "span":
        return build_temporal_span(n, spec.delta)
    if positions is None:
        raise ValueError("knn graph spec needs node positions")
    return build_knn(positions, spec.k)


def st_stack(x, blocks: list[BlockParams], a_temporal: Adjacency | np.ndarray,
             spatial_mask) -> Tensor:
    """Run the aggregation blocks over a batch of utterances.

    ``x``: (B, C, T, D).  Each block aggregates over frames with
    ``a_temporal``, then over channels with ``spatial_mask``, a boolean
    (B, C, C) array holding one channel graph per utterance, shared by all
    its frames.  ``a_temporal`` is either one T-node Adjacency shared by
    every utterance (a banded one runs in the block layout) or a boolean
    (B, 1, T, T) mask holding one frame graph per utterance, shared by its
    channels; with it, utterances zero-padded to T frames run in one batch
    when each padded frame sees only itself and no valid frame sees a
    padded one.  Every block computes the same result as running each
    channel's (T, D) slice and then each frame's (C, D) slice through the
    aggregation on its own.  Output shape equals input shape.
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
