"""The geometry prior, and the JSON form of an adjacency.

:func:`build_prior` states the prior once: a bool (C,) mask of the
channels near the speaker and, optionally, off the noise source.  It keeps
at least one channel, so no pool is ever empty; :func:`chansel.weighted_pool`
checks that again at use.  The graphs the aggregation stack reads are built
by :func:`stagg.build_graph` and narrowed to the nodes in use by
:func:`stagg.restrict`; :func:`adjacency_to_json` writes any of them out.
"""

from __future__ import annotations

import warnings

import numpy as np

from .scenesim import Scene, distances

__all__ = [
    "MissingPriorError",
    "build_prior",
    "adjacency_to_json",
]


class MissingPriorError(ValueError):
    """Geometry-based selection was requested without the scene, or the source, it reads."""


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


def adjacency_to_json(a: np.ndarray) -> dict:
    return {"n": len(a), "rows": ["".join("1" if x else "0" for x in row) for row in a]}
