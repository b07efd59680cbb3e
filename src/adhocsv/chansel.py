"""Channel selection and utterance pooling.

Two selection routes: gpool scores channels with a learned projection and
keeps the top K (gated by a sigmoid of their scores); prior selection
keeps the channels a geometry-derived mask declares useful, features
untouched.  Either way the surviving channels are average-pooled over
channels and frames into one utterance-level embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diffcore as dc
from .diffcore import Parameter, Tensor
from .graphs import Adjacency, SelectionMask

__all__ = [
    "GPoolParams",
    "GPoolResult",
    "DegenerateProjectionError",
    "init_gpool_params",
    "channel_scores",
    "gpool",
    "prior_select",
    "utterance_pool",
]


class DegenerateProjectionError(ValueError):
    """The gpool projection vector has zero norm."""


@dataclass
class GPoolParams:
    """Learnable projection vector scoring the channels."""

    p: Parameter

    def __post_init__(self):
        if self.p.data.ndim != 1:
            raise ValueError("gpool projection must be a vector")

    def parameters(self) -> list[Parameter]:
        return [self.p]


def init_gpool_params(d: int, rng: np.random.Generator, name: str = "gpool.p") -> GPoolParams:
    bound = 1.0 / math.sqrt(d)
    return GPoolParams(p=Parameter(name, rng.uniform(-bound, bound, size=d)))


class GPoolResult(NamedTuple):
    features: Tensor  # (K, T, D), rows gated by sigmoid scores
    adjacency: Adjacency  # K x K restriction of the spatial graph
    indices: np.ndarray  # selected channels, ascending
    gates: np.ndarray  # sigmoid(q[indices]) snapshot


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def channel_scores(z, params: GPoolParams) -> Tensor:
    """Per-channel scores q = mean_t(Z) p / ||p||, shape (C,).

    Scores come from the time-averaged features so one channel set serves
    the whole utterance.
    """
    z = _as_tensor(z)
    if z.ndim != 3:
        raise dc.ShapeError(f"expected (C, T, D), got {z.shape}")
    if float(np.linalg.norm(params.p.data)) == 0.0:
        raise DegenerateProjectionError("gpool projection has zero norm")
    zbar = dc.mean_axis(z, axis=1)  # (C, D)
    return dc.div(dc.matvec(zbar, params.p), dc.l2_norm(params.p))


def gpool(z, a_s: Adjacency, params: GPoolParams, k: int) -> GPoolResult:
    """Keep the k channels with the largest scores, gated by sigmoid(q).

    Ties break toward the lower channel index; selected channels are
    returned in ascending index order.  Gradients flow through the gate
    values and the selected rows; the index choice itself is treated as
    constant (subgradient at ties).
    """
    z = _as_tensor(z)
    c = z.shape[0]
    if not 1 <= k <= c:
        raise ValueError(f"k must lie in [1, {c}], got {k}")
    if a_s.n != c:
        raise dc.ShapeError(f"spatial graph has {a_s.n} nodes, input has {c} channels")
    q = channel_scores(z, params)
    order = np.argsort(-q.data, kind="stable")  # stable: ties keep lower index first
    idx = np.sort(order[:k])
    gates = dc.sigmoid(dc.take_rows(q, idx))
    selected = dc.take_rows(z, idx)
    gated = dc.mul(selected, dc.reshape(gates, (k, 1, 1)))
    return GPoolResult(
        features=gated,
        adjacency=a_s.restrict(idx),
        indices=idx,
        gates=np.array(gates.data),
    )


def prior_select(z, mask: SelectionMask) -> Tensor:
    """Keep exactly the masked-in channels; features pass through unchanged.

    Training and embedding pool prior selections batched, as a masked mean
    over channels; this per-utterance form is the reference they are tested
    against.
    """
    z = _as_tensor(z)
    if z.ndim != 3:
        raise dc.ShapeError(f"expected (C, T, D), got {z.shape}")
    if mask.selected.shape[0] != z.shape[0]:
        raise dc.ShapeError(
            f"mask covers {mask.selected.shape[0]} channels, input has {z.shape[0]}")
    return dc.take_rows(z, mask.indices())


def utterance_pool(z_hat) -> Tensor:
    """Average over channels and frames: (K, T, D) -> (D,)."""
    z_hat = _as_tensor(z_hat)
    if z_hat.ndim != 3:
        raise dc.ShapeError(f"expected (K, T, D), got {z_hat.shape}")
    return dc.mean_axis(z_hat, axis=(0, 1))
