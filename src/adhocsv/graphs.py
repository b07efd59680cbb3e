"""Graphs as boolean numpy masks.

An adjacency is a bool (N, N) array whose entry (i, j) says node i sees
node j; a prior channel mask is a bool (C,) array of the channels it
keeps.  Constructors cover the graph families the pipeline uses: complete
graphs, banded temporal graphs over frames, k-nearest spatial graphs over
node positions, and the geometry prior: one channel mask from the speaker
distances, optionally narrowed by the noise source's proximity.  Every
adjacency built here carries self-loops (diagonal all True) and every
prior mask keeps at least one channel, so no attention row and no pool is
ever empty; consumers check both again at use
(:func:`diffcore.check_mask`, :func:`chansel.weighted_pool`).
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
    "compose_prior",
    "adjacency_from_mask",
    "apply_noise_mask",
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


def _nearest_fallback(d_spk: np.ndarray, what: str) -> np.ndarray:
    warnings.warn(f"{what} left no channel selected; falling back to the nearest channel")
    selected = np.zeros(d_spk.shape[0], dtype=bool)
    selected[int(np.argmin(d_spk))] = True  # argmin ties resolve to the lowest index
    return selected


def build_prior(scene: Scene, rho: float) -> np.ndarray:
    """Select channels whose speaker-distance ratio is strictly below rho.

    Channel i is kept iff dist(i, speaker) / max_dist < rho.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    d_spk, _, d_max, _ = distances(scene)
    if d_max == 0.0:
        selected = np.ones(d_spk.shape[0], dtype=bool)  # all nodes coincide with the speaker
    else:
        selected = d_spk / d_max < rho
    if not selected.any():
        selected = _nearest_fallback(d_spk, f"prior threshold rho={rho}")
    return selected


def adjacency_from_mask(mask: np.ndarray) -> np.ndarray:
    """Complete subgraph over the selected channels, self-loops everywhere."""
    mask = np.asarray(mask, dtype=bool)
    return np.outer(mask, mask) | np.eye(mask.shape[0], dtype=bool)


def apply_noise_mask(mask: np.ndarray, scene: Scene, rho_noise: float = 0.2) -> np.ndarray:
    """Deselect channels close to the point noise source.

    A channel is dropped when dist(i, noise) / max_noise_dist < rho_noise.
    Raises :class:`MissingPriorError` when the scene has no noise source.
    """
    if not 0.0 < rho_noise <= 1.0:
        raise ValueError(f"rho_noise must lie in (0, 1], got {rho_noise}")
    if scene.noise_pos is None:
        raise MissingPriorError("scene has no noise source position")
    d_spk, d_noise, _, d_max = distances(scene)
    near_noise = np.zeros_like(d_noise, dtype=bool) if d_max == 0.0 else d_noise / d_max < rho_noise
    selected = np.asarray(mask, dtype=bool) & ~near_noise
    if not selected.any():
        selected = _nearest_fallback(d_spk, "noise mask")
    return selected


def compose_prior(scene: Scene, rho: float, rho_noise: float | None = None) -> np.ndarray:
    """Prior channel mask, narrowed by the noise mask when ``rho_noise`` is given.

    Runs :func:`build_prior`, then :func:`apply_noise_mask`.
    """
    mask = build_prior(scene, rho)
    return mask if rho_noise is None else apply_noise_mask(mask, scene, rho_noise)


def adjacency_to_json(a: np.ndarray) -> dict:
    return {"n": len(a), "rows": ["".join("1" if x else "0" for x in row) for row in a]}
