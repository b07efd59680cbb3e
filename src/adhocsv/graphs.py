"""Adjacency matrices and channel-selection masks.

Constructors cover the graph families the pipeline uses: complete graphs,
banded temporal graphs over frames, k-nearest spatial graphs over node
positions, and the geometry prior: one channel mask from the speaker
distances, optionally narrowed by the noise source's proximity.  Every
adjacency built here carries self-loops (diagonal forced to one) so that
no attention row is ever empty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .scenesim import Scene, distances

__all__ = [
    "Adjacency",
    "SelectionMask",
    "build_complete",
    "build_temporal_span",
    "build_knn",
    "build_prior",
    "compose_prior",
    "adjacency_from_mask",
    "apply_noise_mask",
    "neighbors",
    "adjacency_to_json",
]


@dataclass(frozen=True)
class Adjacency:
    """Boolean N x N graph structure; immutable after construction."""

    n: int
    entries: np.ndarray  # bool (n, n)
    symmetric: bool

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=bool)
        if e.shape != (self.n, self.n):
            raise ValueError(f"adjacency entries must be {self.n}x{self.n}, got {e.shape}")
        if not np.all(np.diagonal(e)):
            raise ValueError("adjacency diagonal must be all ones (self-loop policy)")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class SelectionMask:
    """Boolean channel-selection vector; at least one channel stays selected."""

    selected: np.ndarray  # bool (C,)

    def __post_init__(self):
        s = np.asarray(self.selected, dtype=bool)
        if s.ndim != 1:
            raise ValueError("selection mask must be one-dimensional")
        if not s.any():
            raise ValueError("selection mask must keep at least one channel")
        s.setflags(write=False)
        object.__setattr__(self, "selected", s)

    @property
    def k(self) -> int:
        return int(self.selected.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.selected)


def build_complete(n: int) -> Adjacency:
    if n < 1:
        raise ValueError("complete graph needs at least one node")
    return Adjacency(n=n, entries=np.ones((n, n), dtype=bool), symmetric=True)


def build_temporal_span(t: int, delta: int) -> Adjacency:
    """Banded frame graph: i and j connected iff |i - j| <= delta."""
    if t < 1:
        raise ValueError("temporal graph needs at least one frame")
    if delta < 0:
        raise ValueError("span half-window must be nonnegative")
    idx = np.arange(t)
    entries = np.abs(idx[:, None] - idx[None, :]) <= delta
    return Adjacency(n=t, entries=entries, symmetric=True)


def build_knn(positions, k: int) -> Adjacency:
    """Graph where each node links to its k nearest other nodes.

    Directed in general (nearest-neighbor relations need not be mutual);
    ties broken toward lower node index.  Self-loops always present.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    if n < 1:
        raise ValueError("knn graph needs at least one node")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must lie in [0, {n - 1}], got {k}")
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    entries = np.eye(n, dtype=bool)
    for u in range(n):
        order = [v for v in np.argsort(dist[u], kind="stable") if v != u]
        entries[u, order[:k]] = True
    sym = bool(np.array_equal(entries, entries.T))
    return Adjacency(n=n, entries=entries, symmetric=sym)


def _nearest_fallback(d_spk: np.ndarray, what: str) -> np.ndarray:
    warnings.warn(f"{what} left no channel selected; falling back to the nearest channel")
    selected = np.zeros(d_spk.shape[0], dtype=bool)
    selected[int(np.argmin(d_spk))] = True  # argmin ties resolve to the lowest index
    return selected


def build_prior(scene: Scene, rho: float) -> SelectionMask:
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
    return SelectionMask(selected=selected)


def adjacency_from_mask(mask: SelectionMask) -> Adjacency:
    """Complete subgraph over the selected channels, self-loops everywhere."""
    s = mask.selected
    entries = np.outer(s, s) | np.eye(s.shape[0], dtype=bool)
    return Adjacency(n=s.shape[0], entries=entries, symmetric=True)


def apply_noise_mask(mask: SelectionMask, scene: Scene, rho_noise: float = 0.2) -> SelectionMask:
    """Deselect channels close to the point noise source.

    A channel is dropped when dist(i, noise) / max_noise_dist < rho_noise.
    """
    if not 0.0 < rho_noise <= 1.0:
        raise ValueError(f"rho_noise must lie in (0, 1], got {rho_noise}")
    if scene.noise_pos is None:
        raise ValueError("scene has no noise source position")
    d_spk, d_noise, _, d_max = distances(scene)
    near_noise = np.zeros_like(d_noise, dtype=bool) if d_max == 0.0 else d_noise / d_max < rho_noise
    selected = mask.selected & ~near_noise
    if not selected.any():
        selected = _nearest_fallback(d_spk, "noise mask")
    return SelectionMask(selected=selected)


def compose_prior(scene: Scene, rho: float, rho_noise: float | None = None) -> SelectionMask:
    """Prior channel mask, narrowed by the noise mask when ``rho_noise`` is given.

    Runs :func:`build_prior`, then :func:`apply_noise_mask`.
    """
    mask = build_prior(scene, rho)
    return mask if rho_noise is None else apply_noise_mask(mask, scene, rho_noise)


def neighbors(a: Adjacency, v: int) -> list[int]:
    """Sorted indices of the nodes adjacent to v (v itself included)."""
    if not 0 <= v < a.n:
        raise IndexError(f"node index {v} out of range for n={a.n}")
    return [int(u) for u in np.flatnonzero(a.entries[v])]


def adjacency_to_json(a: Adjacency) -> dict:
    return {"n": a.n, "rows": ["".join("1" if x else "0" for x in row) for row in a.entries]}
