"""Ad-hoc array scene sampling and synthetic frame-level features.

A scene is a shoebox room with one speaker (position and facing), an
optional point noise source, and randomly placed single-microphone nodes.
Synthetic features stand in for a frozen single-channel feature extractor:
every channel observes the speaker's identity vector plus white noise
whose strength grows with speaker distance, scene-level SNR, and noise
proximity.  No room impulse responses are simulated; the corruption acts
directly at the feature level.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .stagg import FrameTensor

__all__ = [
    "Scene",
    "SimConfig",
    "sample_scene",
    "distances",
    "make_codebook",
    "synth_features",
    "scene_to_json",
    "scene_from_json",
    "save_scene",
    "load_scene",
    "write_features",
    "read_features",
]

WALL_MARGIN = 0.1  # meters; "strictly inside" made concrete

FEATURE_MAGIC = b"ADHC"
FEATURE_VERSION = 1
FEATURE_HEADER_BYTES = 20  # magic, then u32 version, C, T, D


@dataclass(frozen=True)
class Scene:
    """Room geometry plus source and node placements."""

    room: tuple[float, float, float]  # width, length, height in meters
    speaker_pos: np.ndarray  # (3,)
    speaker_facing: np.ndarray  # (3,), unit norm
    noise_pos: np.ndarray | None  # (3,) or None
    node_pos: np.ndarray  # (C, 3)
    t60: float
    snr_db: float

    def __post_init__(self):
        object.__setattr__(self, "speaker_pos", np.asarray(self.speaker_pos, dtype=np.float64))
        object.__setattr__(self, "speaker_facing", np.asarray(self.speaker_facing, dtype=np.float64))
        object.__setattr__(self, "node_pos", np.asarray(self.node_pos, dtype=np.float64))
        if self.noise_pos is not None:
            object.__setattr__(self, "noise_pos", np.asarray(self.noise_pos, dtype=np.float64))
        if self.node_pos.ndim != 2 or self.node_pos.shape[1] != 3 or self.node_pos.shape[0] < 1:
            raise ValueError("node positions must be a nonempty (C, 3) array")
        if abs(float(np.linalg.norm(self.speaker_facing)) - 1.0) > 1e-9:
            raise ValueError("speaker facing must be a unit vector")
        bounds = np.asarray(self.room, dtype=np.float64)
        points = [self.speaker_pos] + ([self.noise_pos] if self.noise_pos is not None else [])
        for p in points + [row for row in self.node_pos]:
            if not (np.all(p > 0.0) and np.all(p < bounds)):
                raise ValueError("all positions must lie strictly inside the room")

    @property
    def n_nodes(self) -> int:
        return int(self.node_pos.shape[0])

    def subset(self, idx) -> "Scene":
        """Scene restricted to the given channel indices."""
        idx = np.asarray(idx, dtype=np.intp)
        return Scene(
            room=self.room,
            speaker_pos=self.speaker_pos,
            speaker_facing=self.speaker_facing,
            noise_pos=self.noise_pos,
            node_pos=self.node_pos[idx],
            t60=self.t60,
            snr_db=self.snr_db,
        )


@dataclass(frozen=True)
class SimConfig:
    """Scene and feature generation ranges (defaults: noisy-room variant)."""

    n_nodes: int = 40
    width_range: tuple[float, float] = (8.0, 10.0)
    length_range: tuple[float, float] = (12.0, 14.0)
    height_range: tuple[float, float] = (3.0, 5.0)
    t60_range: tuple[float, float] = (0.2, 0.5)
    snr_range_db: tuple[float, float] = (-5.0, 20.0)
    with_noise_source: bool = True
    d: int = 16
    t: int = 20
    n_speakers: int = 20
    base_sigma: float = 0.2  # distance gain is base_sigma + distance ratio

    def __post_init__(self):
        for name in ("width_range", "length_range", "height_range", "t60_range", "snr_range_db"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ValueError(f"{name} is empty: {(lo, hi)}")
        if self.n_nodes < 1 or self.d < 1 or self.t < 1 or self.n_speakers < 1:
            raise ValueError("counts must be positive")


def _uniform_point(rng: np.random.Generator, room: np.ndarray) -> np.ndarray:
    return rng.uniform(WALL_MARGIN, room - WALL_MARGIN)


def _uniform_direction(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            return v / nrm


def sample_scene(rng: np.random.Generator, cfg: SimConfig) -> Scene:
    """Draw room dims, sources and node placements uniformly from cfg ranges."""
    room = np.array([
        rng.uniform(*cfg.width_range),
        rng.uniform(*cfg.length_range),
        rng.uniform(*cfg.height_range),
    ])
    speaker = _uniform_point(rng, room)
    facing = _uniform_direction(rng)
    noise = _uniform_point(rng, room) if cfg.with_noise_source else None
    nodes = np.stack([_uniform_point(rng, room) for _ in range(cfg.n_nodes)])
    t60 = rng.uniform(*cfg.t60_range)
    snr = rng.uniform(*cfg.snr_range_db)
    return Scene(
        room=(float(room[0]), float(room[1]), float(room[2])),
        speaker_pos=speaker,
        speaker_facing=facing,
        noise_pos=noise,
        node_pos=nodes,
        t60=float(t60),
        snr_db=float(snr),
    )


def distances(scene: Scene):
    """Euclidean node distances to the speaker and the noise source.

    Returns (d_spk, d_noise, d_max, d_max_noise); the noise entries are
    None when the scene has no noise source.
    """
    d_spk = np.linalg.norm(scene.node_pos - scene.speaker_pos, axis=1)
    d_max = float(d_spk.max())
    if scene.noise_pos is None:
        return d_spk, None, d_max, None
    d_noise = np.linalg.norm(scene.node_pos - scene.noise_pos, axis=1)
    return d_spk, d_noise, d_max, float(d_noise.max())


def make_codebook(n_speakers: int, d: int, seed: int) -> np.ndarray:
    """Fixed random unit identity vectors, one per speaker."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n_speakers, d))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def channel_noise_sigma(scene: Scene, cfg: SimConfig) -> np.ndarray:
    """Per-channel noise strength.

    sigma_c = (base + d_spk_ratio) * 10^(-snr/20) * proximity, where
    proximity doubles for a node sitting on the noise source and is one
    at the farthest node.  Monotone nondecreasing in speaker distance.
    """
    d_spk, d_noise, d_max, d_max_noise = distances(scene)
    ratio = d_spk / d_max if d_max > 0.0 else np.zeros_like(d_spk)
    sigma = (cfg.base_sigma + ratio) * 10.0 ** (-scene.snr_db / 20.0)
    if d_noise is not None and d_max_noise > 0.0:
        sigma = sigma * (1.0 + (1.0 - d_noise / d_max_noise))
    return sigma


def synth_features(scene: Scene, speaker_id: int, codebook: np.ndarray,
                   rng: np.random.Generator, cfg: SimConfig) -> FrameTensor:
    """Speaker identity vector plus distance/SNR-scaled white noise."""
    if not 0 <= speaker_id < codebook.shape[0]:
        raise KeyError(f"speaker id {speaker_id} not in codebook of {codebook.shape[0]}")
    v = codebook[speaker_id]
    sigma = channel_noise_sigma(scene, cfg)
    noise = rng.standard_normal((scene.n_nodes, cfg.t, cfg.d))
    data = v[None, None, :] + sigma[:, None, None] * noise
    return FrameTensor(data)


def scene_to_json(scene: Scene) -> dict:
    return {
        "room": [float(x) for x in scene.room],
        "speaker": {
            "pos": [float(x) for x in scene.speaker_pos],
            "facing": [float(x) for x in scene.speaker_facing],
        },
        "noise_pos": None if scene.noise_pos is None else [float(x) for x in scene.noise_pos],
        "nodes": [[float(x) for x in row] for row in scene.node_pos],
        "t60": float(scene.t60),
        "snr_db": float(scene.snr_db),
    }


def scene_from_json(doc: dict) -> Scene:
    return Scene(
        room=tuple(doc["room"]),
        speaker_pos=np.array(doc["speaker"]["pos"]),
        speaker_facing=np.array(doc["speaker"]["facing"]),
        noise_pos=None if doc["noise_pos"] is None else np.array(doc["noise_pos"]),
        node_pos=np.array(doc["nodes"]),
        t60=float(doc["t60"]),
        snr_db=float(doc["snr_db"]),
    )


def save_scene(path, scene: Scene) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(scene_to_json(scene), f, sort_keys=True, indent=2)
        f.write("\n")


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as f:
        return scene_from_json(json.load(f))


def write_features(path, ft: FrameTensor) -> None:
    """Binary layout: magic "ADHC", u32 version, u32 C, T, D, f32 LE data."""
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<IIII", FEATURE_VERSION, ft.c, ft.t, ft.d))
        f.write(np.ascontiguousarray(ft.data, dtype="<f4").tobytes())


def read_features(path) -> FrameTensor:
    """Read a feature file written by :func:`write_features`.

    The header and the C * T * D payload it declares are checked against
    the file's size before anything is read, so a corrupt or hostile file
    raises ``ValueError`` naming it, never a ``MemoryError``.
    """
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size
        if left < FEATURE_HEADER_BYTES:
            raise ValueError(f"{path}: too short for a feature header ({left} bytes)")
        magic = f.read(4)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: bad feature-file magic {magic!r}")
        version, c, t, d = struct.unpack("<IIII", f.read(16))
        if version != FEATURE_VERSION:
            raise ValueError(f"{path}: unsupported feature version {version}")
        if min(c, t, d) < 1:
            raise ValueError(f"{path}: feature dims must be positive, got {(c, t, d)}")
        left -= FEATURE_HEADER_BYTES
        nbytes = c * t * d * 4
        if nbytes > left:
            raise ValueError(f"{path}: truncated feature data "
                             f"({nbytes} bytes declared, {left} left)")
        if nbytes < left:
            raise ValueError(f"{path}: trailing bytes after the feature data")
        data = np.frombuffer(f.read(nbytes), dtype="<f4").reshape(c, t, d).astype(np.float64)
    return FrameTensor(data)
