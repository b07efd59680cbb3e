"""Channel selection and utterance pooling.

Every selection kind ends in one weighted mean over channels:

    emb_b = sum_c keep_bc * gate_bc * zbar_bcd / sum_c keep_bc

``zbar`` is (B, C, D): each channel's mean over its utterance's valid
frames, which the caller computes, so nothing here sees a frame.
``keep`` is the (B, C) choice of channels, 0/1 or bool, never a channel
that only pads an utterance: all its own channels without selection, all
that are left for prior selection (the caller narrows each utterance to
the geometry prior's mask, :func:`graphs.build_prior`, before the stack),
and for gpool the top k of its own channels by the score q = zbar p / ||p||
of one learned (D,) projection Parameter p.  ``gate`` is 1, except for
gpool, which gates each channel by sigmoid(q).
"""

from __future__ import annotations

import math

import numpy as np

from . import diffcore as dc
from .diffcore import Parameter, Tensor

__all__ = [
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
    """gpool is asked to keep more channels than an utterance has (or none)."""


def init_gpool_params(d: int, rng: np.random.Generator, name: str = "gpool.p") -> Parameter:
    """gpool's projection vector p, drawn uniformly from [-1/sqrt(d), 1/sqrt(d)]."""
    bound = 1.0 / math.sqrt(d)
    return Parameter(name, rng.uniform(-bound, bound, size=d))


def _frame_means(zbar) -> Tensor:
    zbar = zbar if isinstance(zbar, Tensor) else Tensor(zbar)
    if zbar.ndim != 3:
        raise dc.ShapeError(f"expected (B, C, D) frame means, got {zbar.shape}")
    return zbar


def channel_scores(zbar, p: Parameter) -> Tensor:
    """Per-channel scores q = zbar p / ||p||, shape (B, C), of frame means zbar (B, C, D).

    ``p`` is gpool's (D,) projection vector.  Each channel's score is its
    own row reduction, so equal channels score exactly equal wherever they
    sit in the batch.
    """
    zbar = _frame_means(zbar)
    if p.data.ndim != 1:
        raise dc.ShapeError(f"gpool projection must be a vector, got shape {p.data.shape}")
    if float(np.linalg.norm(p.data)) == 0.0:
        raise DegenerateProjectionError("gpool projection has zero norm")
    return dc.div(dc.sum_axis(dc.mul(zbar, p), -1), dc.l2_norm(p))


def gpool_weights(zbar, p: Parameter, k: int | None, valid) -> tuple[np.ndarray, Tensor]:
    """gpool's channel choice for a batch of frame means: keep (B, C) and gate (B, C).

    ``valid`` is a bool (B, C) array of each utterance's own channels; the
    others pad it.  ``keep`` is True at each utterance's k own channels with
    the largest scores, where k = ceil(C_i / 2) of its C_i own channels when
    ``k`` is None; ties break toward the lower channel index, and a padded
    channel is never kept.  ``gate`` is
    sigmoid(q) for every channel; :func:`weighted_pool` reads it only where
    ``keep`` is True.  Gradients flow through the gates; the choice itself
    is treated as constant (subgradient at ties).
    """
    q = channel_scores(zbar, p)
    b, c = q.shape
    own = valid.sum(axis=1)
    if k is not None and not 1 <= k <= own.min():
        i = int(np.argmin(own))
        raise ChannelBudgetError(
            f"gpool keeps k={k} channels, but utterance {i} of the batch has C={own[i]}")
    budget = -(-own // 2) if k is None else np.full(b, k)
    # stable: ties keep the lower index first; padded channels rank last
    order = np.argsort(np.where(valid, -q.data, np.inf), axis=1, kind="stable")
    keep = np.zeros((b, c), dtype=bool)
    np.put_along_axis(keep, order, np.arange(c) < budget[:, None], axis=1)
    return keep, dc.sigmoid(q)


def weighted_pool(zbar, keep, gate) -> Tensor:
    """The utterance embeddings (B, D): the gated mean of the kept channels' frame means.

    ``zbar`` is (B, C, D), ``keep`` a 0/1 or bool (B, C) array and ``gate`` either
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
