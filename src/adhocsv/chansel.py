"""Channel selection and utterance pooling.

Every selection kind ends in one weighted mean over channels and frames:

    emb_b = sum_{c,t} keep_bc * gate_bc * valid_bt * z_bctd / (sum_c keep_bc * frames_b)

``keep`` is a 0/1 (B, C) choice of channels: all of them without
selection, the channels a geometry-derived mask declares useful for prior
selection, and the top k by a learned score for gpool.  ``gate`` is 1,
except for gpool, which gates each channel by the sigmoid of its score.
``valid`` drops the zero-padded frames past each utterance's frame count.
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_batch(z: Tensor, frames: np.ndarray) -> None:
    if z.ndim != 4:
        raise dc.ShapeError(f"expected (B, C, T, D), got {z.shape}")
    b, _, t, _ = z.shape
    if frames.shape != (b,) or frames.min() < 1 or frames.max() > t:
        raise dc.ShapeError(f"need {b} frame counts in [1, {t}], got {frames.tolist()}")


def _valid_frames(frames: np.ndarray, t: int) -> np.ndarray:
    """(B, 1, T, 1) 0/1 weights of the frames before each utterance's count."""
    return (np.arange(t) < frames[:, None])[:, None, :, None]


def channel_scores(z, frames, params: GPoolParams) -> Tensor:
    """Per-channel scores q = mean_t(Z) p / ||p||, shape (B, C).

    The mean runs over each utterance's first ``frames[b]`` frames, so one
    channel set serves the whole utterance and padding never scores.  Each
    channel's score is its own row reduction, so equal channels score
    exactly equal wherever they sit in the batch.
    """
    z = _as_tensor(z)
    frames = np.asarray(frames, dtype=np.intp)
    _check_batch(z, frames)
    if float(np.linalg.norm(params.p.data)) == 0.0:
        raise DegenerateProjectionError("gpool projection has zero norm")
    summed = dc.sum_axis(dc.mul(z, _valid_frames(frames, z.shape[2])), axis=2)
    zbar = dc.div(summed, frames[:, None, None])  # (B, C, D)
    return dc.div(dc.sum_axis(dc.mul(zbar, params.p), -1), dc.l2_norm(params.p))


def gpool_weights(z, frames, params: GPoolParams, k: int) -> tuple[np.ndarray, Tensor]:
    """gpool's channel choice for a batch: keep (B, C) and gate (B, C).

    ``keep`` marks each utterance's k channels with the largest scores;
    ties break toward the lower channel index.  ``gate`` is sigmoid(q) for
    every channel; :func:`weighted_pool` reads it only where ``keep`` is 1.
    Gradients flow through the gates; the choice itself is treated as
    constant (subgradient at ties).
    """
    q = channel_scores(z, frames, params)
    c = q.shape[1]
    if not 1 <= k <= c:
        raise ChannelBudgetError(f"gpool keeps k={k} channels, but the array has C={c}")
    order = np.argsort(-q.data, axis=1, kind="stable")  # stable: ties keep lower index first
    keep = np.zeros(q.shape)
    np.put_along_axis(keep, order[:, :k], 1.0, axis=1)
    return keep, dc.sigmoid(q)


def weighted_pool(z, keep, gate, frames) -> Tensor:
    """The utterance embeddings (B, D): z's mean over kept channels and valid frames.

    ``keep`` is a 0/1 (B, C) array and ``gate`` either 1 or a (B, C)
    tensor; see the module docstring for the formula.
    """
    z = _as_tensor(z)
    keep = np.asarray(keep, dtype=np.float64)
    frames = np.asarray(frames, dtype=np.intp)
    _check_batch(z, frames)
    b, c, t, _ = z.shape
    if keep.shape != (b, c) or not keep.any(axis=1).all():
        raise dc.ShapeError(f"keep must be (B, C) = {(b, c)} with a kept channel per row, "
                            f"got {keep.shape}")
    channel_w = dc.reshape(dc.mul(keep, gate), (b, c, 1, 1))
    summed = dc.sum_axis(dc.mul(z, dc.mul(channel_w, _valid_frames(frames, t))), axis=(1, 2))
    return dc.div(summed, (keep.sum(axis=1) * frames)[:, None])
