"""Graphs as boolean numpy masks.

An adjacency is a bool (N, N) array whose entry (i, j) says node i sees
node j; a prior channel mask is a bool (C,) array of the channels it
keeps.  Constructors cover the graph families the pipeline uses: complete
graphs, banded temporal graphs over frames, k-nearest spatial graphs over
node positions, and the geometry prior.  One function, :func:`build_prior`,
states the prior: one channel mask from the speaker distances and,
optionally, the noise source's.  Every adjacency built here carries
self-loops (diagonal all True) and every prior mask keeps at least one
channel, so no attention row and no pool is ever empty; consumers check
both again at use (:func:`diffcore.check_mask`,
:func:`chansel.weighted_pool`).
"""

from __future__ import annotations

import warnings

import numpy as np

from .scenesim import Scene, distances

__all__ = [
    "MissingPriorError",
    "build_complete",
    "build_temporal_span",
    "build_knn",
    "build_prior",
    "adjacency_from_mask",
    "adjacency_to_json",
]


class MissingPriorError(ValueError):
    """Geometry-based selection was requested without the scene, or the source, it reads."""


def build_complete(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("complete graph needs at least one node")
    return np.ones((n, n), dtype=bool)


def build_temporal_span(t: int, delta: int) -> np.ndarray:
    """Banded frame graph: i and j connected iff |i - j| <= delta."""
    if t < 1:
        raise ValueError("temporal graph needs at least one frame")
    if delta < 0:
        raise ValueError("span half-window must be nonnegative")
    idx = np.arange(t)
    return np.abs(idx[:, None] - idx[None, :]) <= delta


def build_knn(positions, k: int) -> np.ndarray:
    """Graph where each node links to its min(k, n - 1) nearest other nodes.

    Directed in general (nearest-neighbor relations need not be mutual);
    ties broken toward lower node index.  Self-loops always present, so a
    single node's graph is its self-loop whatever k is.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    if n < 1:
        raise ValueError("knn graph needs at least one node")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(dist, -np.inf)  # each node sorts first in its own row
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k + 1]  # the slice stops at n
    entries = np.zeros((n, n), dtype=bool)
    np.put_along_axis(entries, nearest, True, axis=1)
    return entries


def build_prior(scene: Scene, rho: float, rho_noise: float | None = None) -> np.ndarray:
    """The geometry prior's channel mask: near the speaker and, given ``rho_noise``, off the noise.

    Channel i is kept iff d_spk(i) / max d_spk < rho and, when ``rho_noise``
    is given, not d_noise(i) / max d_noise < rho_noise.  A zero maximum
    means every node sits on that source: all of them count as near the
    speaker, and none as near the noise.  When no channel is kept, the
    mask falls back, with a warning, to the channel nearest the speaker.
    Raises :class:`MissingPriorError` when ``rho_noise`` is given for a
    scene without a noise source; every check runs before any distance.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if rho_noise is not None and not 0.0 < rho_noise <= 1.0:
        raise ValueError(f"rho_noise must lie in (0, 1], got {rho_noise}")
    if rho_noise is not None and scene.noise_pos is None:
        raise MissingPriorError("scene has no noise source position")
    d_spk, d_noise, d_max, d_max_noise = distances(scene)
    selected = np.ones(d_spk.shape[0], dtype=bool) if d_max == 0.0 else d_spk / d_max < rho
    if rho_noise is not None and d_max_noise > 0.0:
        selected &= ~(d_noise / d_max_noise < rho_noise)
    if not selected.any():
        warnings.warn(f"prior (rho={rho}, rho_noise={rho_noise}) left no channel selected; "
                      "falling back to the nearest channel")
        selected[int(np.argmin(d_spk))] = True  # argmin ties resolve to the lowest index
    return selected


def adjacency_from_mask(mask: np.ndarray) -> np.ndarray:
    """Complete subgraph over the selected channels, self-loops everywhere."""
    mask = np.asarray(mask, dtype=bool)
    return np.outer(mask, mask) | np.eye(mask.shape[0], dtype=bool)


def adjacency_to_json(a: np.ndarray) -> dict:
    return {"n": len(a), "rows": ["".join("1" if x else "0" for x in row) for row in a]}
