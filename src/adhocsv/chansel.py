"""Channel selection and utterance pooling.

Every selection kind ends in one weighted mean over channels:

    emb_b = sum_c keep_bc * gate_bc * zbar_bcd / sum_c keep_bc

``zbar`` is (B, C, D): each channel's mean over its utterance's valid
frames, which the caller computes, so nothing here sees a frame.
``keep`` is a 0/1 (B, C) choice of channels: all of them without
selection, the channels a geometry-derived mask declares useful for prior
selection, and the top k by a learned score for gpool.  ``gate`` is 1,
except for gpool, which gates each channel by the sigmoid of its score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Parameter, Tensor

__all__ = [
    "GPoolParams",
    "DegenerateProjectionError",
    "ChannelBudgetError",
    "init_gpool_params",
    "channel_scores",
    "gpool_weights",
    "weighted_pool",
]


class DegenerateProjectionError(ValueError):
    """The gpool projection vector has zero norm."""


class ChannelBudgetError(ValueError):
    """gpool is asked to keep more channels than the array has (or none)."""


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


def _frame_means(zbar) -> Tensor:
    zbar = zbar if isinstance(zbar, Tensor) else Tensor(zbar)
    if zbar.ndim != 3:
        raise dc.ShapeError(f"expected (B, C, D) frame means, got {zbar.shape}")
    return zbar


def channel_scores(zbar, params: GPoolParams) -> Tensor:
    """Per-channel scores q = zbar p / ||p||, shape (B, C), of frame means zbar (B, C, D).

    Each channel's score is its own row reduction, so equal channels score
    exactly equal wherever they sit in the batch.
    """
    zbar = _frame_means(zbar)
    if float(np.linalg.norm(params.p.data)) == 0.0:
        raise DegenerateProjectionError("gpool projection has zero norm")
    return dc.div(dc.sum_axis(dc.mul(zbar, params.p), -1), dc.l2_norm(params.p))


def gpool_weights(zbar, params: GPoolParams, k: int) -> tuple[np.ndarray, Tensor]:
    """gpool's channel choice for a batch of frame means: keep (B, C) and gate (B, C).

    ``keep`` marks each utterance's k channels with the largest scores;
    ties break toward the lower channel index.  ``gate`` is sigmoid(q) for
    every channel; :func:`weighted_pool` reads it only where ``keep`` is 1.
    Gradients flow through the gates; the choice itself is treated as
    constant (subgradient at ties).
    """
    q = channel_scores(zbar, params)
    c = q.shape[1]
    if not 1 <= k <= c:
        raise ChannelBudgetError(f"gpool keeps k={k} channels, but the array has C={c}")
    order = np.argsort(-q.data, axis=1, kind="stable")  # stable: ties keep lower index first
    keep = np.zeros(q.shape)
    np.put_along_axis(keep, order[:, :k], 1.0, axis=1)
    return keep, dc.sigmoid(q)


def weighted_pool(zbar, keep, gate) -> Tensor:
    """The utterance embeddings (B, D): the gated mean of the kept channels' frame means.

    ``zbar`` is (B, C, D), ``keep`` a 0/1 (B, C) array and ``gate`` either
    1 or a (B, C) tensor; see the module docstring for the formula.
    """
    zbar = _frame_means(zbar)
    keep = np.asarray(keep, dtype=np.float64)
    b, c, _ = zbar.shape
    if keep.shape != (b, c) or not keep.any(axis=1).all():
        raise dc.ShapeError(f"keep must be (B, C) = {(b, c)} with a kept channel per row, "
                            f"got {keep.shape}")
    channel_w = dc.reshape(dc.mul(keep, gate), (b, c, 1))
    summed = dc.sum_axis(dc.mul(zbar, channel_w), axis=1)
    return dc.div(summed, keep.sum(axis=1)[:, None])
