"""Second-stage training and verification scoring.

The trainable system = spatial-temporal aggregation stack, optional
channel selection pooled as one weighted mean of the channels' frame
means, and a linear softmax classifier over speakers.  A stack of zero
blocks (``n_blocks=0``) is the MEAN baseline, with or without selection.
Frame-level features are frozen inputs.  One batched forward pass
computes the embeddings, and it is the one function that pads: it takes
utterances of any channel and frame counts, zero-fills them to the
batch's largest, and masks the padding so that it changes no embedding.
Prior selection is known before the stack, so the pass narrows each
utterance to its kept channels first and never aggregates a dropped one;
gpool picks its channels from the stack's output, so it cannot narrow.
:func:`channel_graph` states, for one utterance, the channels the stack
reads and the spatial graph among them; ``adhocsv graph`` prints it.
Training runs it on each batch as drawn, :func:`embed` on one utterance,
and :func:`evaluate` on batches of utterances sorted by shape; the last two
read the parameters as constants, so inference records no graph.  A
training step's graph dies in its own backward pass, which frees it as it
walks it (see :mod:`adhocsv.diffcore`), so the next step's forward never
runs beside it.
Finiteness is checked here, not in the kernels: :func:`_forward` checks the
frames it is given and the embeddings it returns, and each training step
the parameters its update wrote.  So a NaN or Inf, in a parameter or made
by a kernel, fails as a ``NonFiniteError`` in the forward pass or step
that meets it; training adds the epoch and step to the message, and never
returns a model with a non-finite parameter.
The first forward pass of a process fixes glibc's mmap and trim
thresholds for the rest of it (:func:`_set_allocator_policy`), so each
step reuses the heap the last one freed instead of faulting fresh pages
in; up to 256 MiB of freed heap stays resident in exchange.  Where
``mallopt`` is missing the allocator is left as it is.
Verification scores utterance-embedding pairs with cosine similarity and
reports the equal error rate from a full threshold sweep.
"""

from __future__ import annotations

import csv
import ctypes
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from itertools import repeat

import numpy as np

from . import diffcore as dc
from .chansel import gpool_weights, init_gpool_params, weighted_pool
from .diffcore import NonFiniteError, Parameter, ParamSet, Tensor
from .graphs import MissingPriorError, build_prior
from .scenesim import FrameTensor, Scene
from .stagg import (
    MECHANISMS,
    BlockParams,
    GraphSpec,
    build_graph,
    gcn_agg,  # noqa: F401 - perfbench/tests/test_tracing.py traces it through this module
    init_stack_params,
    load_checkpoint,
    restrict,
    save_checkpoint,
    st_stack,
)

__all__ = [
    "SelectionConfig",
    "ModelConfig",
    "Model",
    "TrainHyper",
    "Utterance",
    "Trial",
    "TrialSet",
    "EvalReport",
    "ProtocolError",
    "DegenerateTaskError",
    "MissingPriorError",
    "channel_graph",
    "train_second_stage",
    "embed",
    "embed_with_info",
    "cosine_score",
    "eer_from_scores",
    "evaluate",
    "eval_per_node",
    "generate_trials",
    "subsample_channels",
    "read_trials_csv",
    "write_trials_csv",
    "config_value",
    "config_from_json",
    "model_config_to_json",
    "save_model",
    "load_model",
]

SELECTION_KINDS = ("none", "gpool", "prior")


class ProtocolError(ValueError):
    """The trial set cannot support the requested evaluation."""


class DegenerateTaskError(ValueError):
    """The training task is ill-posed (no utterances, or fewer than two speakers)."""


def _reset_unread(cfg, names) -> None:
    """Give the fields ``names`` of the frozen config ``cfg`` their defaults.

    Callers name the fields that the model never reads under ``cfg``'s other
    settings, so configs that build the same model compare equal.
    """
    for f in fields(cfg):
        if f.name in names:
            object.__setattr__(cfg, f.name,
                               f.default if f.default_factory is MISSING else f.default_factory())


@dataclass(frozen=True)
class SelectionConfig:
    kind: str = "none"  # or "prior", or "gpool": the ceil(C / 2) channels it scores highest
    rho: float = 0.6
    rho_noise: float | None = None  # prior's noise threshold; None means no noise test

    def __post_init__(self):
        if self.kind not in SELECTION_KINDS:
            raise ValueError(f"unknown selection kind {self.kind!r}")
        if self.kind == "prior" and not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if self.rho_noise is not None and (
                isinstance(self.rho_noise, bool) or not isinstance(self.rho_noise, (int, float))
                or not 0.0 < self.rho_noise <= 1.0):
            raise ValueError(f"rho_noise must lie in (0, 1], got {self.rho_noise!r}")
        if self.kind != "prior":
            _reset_unread(self, {"rho", "rho_noise"})


@dataclass(frozen=True)
class ModelConfig:
    mechanism: str = "gcn"
    n_blocks: int = 2  # 0: no stack, the MEAN baseline
    heads: int = 4
    d: int = 16
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    temporal_graph: GraphSpec = field(default_factory=GraphSpec)
    spatial_graph: GraphSpec = field(default_factory=GraphSpec)
    seed: int = 0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.n_blocks < 0:
            raise ValueError(f"n_blocks={self.n_blocks} must be nonnegative")
        if self.n_blocks > 0 and self.heads < 1:
            raise ValueError(f"heads={self.heads} must be positive")
        if self.n_blocks > 0 and self.d % self.heads != 0:
            raise ValueError(f"d={self.d} must split evenly over {self.heads} heads")
        if self.temporal_graph.kind == "knn":
            raise ValueError("the temporal graph cannot be knn: frames have no positions")
        if self.spatial_graph.kind == "span":
            raise ValueError("the spatial graph cannot be span: it links channels by their "
                             "index, so embeddings would depend on channel order")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_blocks == 0:
            _reset_unread(self, {"mechanism", "heads", "temporal_graph", "spatial_graph"})


class Model:
    """Trainable parameters bundled with their configuration."""

    def __init__(self, cfg: ModelConfig, n_speakers: int, blocks: list[BlockParams],
                 gpool: Parameter | None, head_w: Parameter, head_b: Parameter):
        self.cfg = cfg
        self.n_speakers = n_speakers
        self.blocks = blocks
        self.gpool = gpool
        self.head_w = head_w
        self.head_b = head_b
        params = ParamSet()
        for block in blocks:
            for p in block.parameters():
                params.add(p)
        if gpool is not None:
            params.add(gpool)
        params.add(head_w)
        params.add(head_b)
        self.params = params

    @classmethod
    def init(cls, cfg: ModelConfig, n_speakers: int) -> "Model":
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        blocks = init_stack_params(cfg.mechanism, cfg.n_blocks, cfg.d, cfg.heads, rng)
        gp = init_gpool_params(cfg.d, rng) if cfg.selection.kind == "gpool" else None
        bound = 1.0 / math.sqrt(cfg.d)
        head_w = Parameter("head.w", rng.uniform(-bound, bound, size=(cfg.d, n_speakers)))
        head_b = Parameter("head.b", np.zeros(n_speakers))
        return cls(cfg, n_speakers, blocks, gp, head_w, head_b)


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 1e-2
    momentum: float = 0.9
    batch_size: int = 8
    epochs: int = 30

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError(f"batch_size={self.batch_size} and epochs={self.epochs} must be positive")
        if not self.lr >= 0.0:
            raise ValueError(f"lr={self.lr} must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum={self.momentum} must lie in [0, 1)")


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    speaker: int
    features: FrameTensor
    scene: Scene | None = None


def subsample_channels(utt: Utterance, k: int, rng: np.random.Generator) -> Utterance:
    """Random channel subset (features and scene restricted consistently)."""
    c = utt.features.c
    if not 1 <= k <= c:
        raise ValueError(f"cannot subsample {k} of {c} channels")
    idx = np.sort(rng.choice(c, size=k, replace=False))
    return replace(
        utt,
        features=FrameTensor(utt.features.data[idx]),
        scene=None if utt.scene is None else utt.scene.subset(idx),
    )


# glibc's mallopt parameters (malloc.h) and the values the policy sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# 32 MiB is the ceiling glibc's own dynamic threshold can reach on 64-bit
# systems.  It keeps every array of a paper-size step on the reusable heap
# (the largest, gcn's (8, C, 100, 64) float64 arrays of g's size over the
# C <= 40 channels the prior keeps, are at most 16.4 MB; its masks are
# (8, 1, 100, 100) and (8, 1, C, C)), while a larger array is still mapped
# for itself and returned to the system when it is freed.
_MMAP_THRESHOLD_BYTES = 32 << 20
# 256 MiB holds the whole freed heap of a paper-size training step, so
# the next step reuses it without a page fault; 128 MiB still left about
# 22.6k minor faults per train-paper job.
_TRIM_THRESHOLD_BYTES = 256 << 20
_allocator_policy_set = False


def _libc():
    """The C library the process runs on (tests replace it)."""
    return ctypes.CDLL(None)


def _set_allocator_policy() -> None:
    """Fix glibc's mmap and trim thresholds for this process, once.

    :func:`_forward` calls it first, so the policy holds from the first
    training step or embedding on, for the whole process.  By default glibc
    trims the heap top after each step frees its graph and moves its mmap
    threshold with each large free, so every step faults its pages back
    in.  With fixed thresholds a step reuses the heap the last one freed.
    The cost: up to ``_TRIM_THRESHOLD_BYTES`` (256 MiB) of freed heap stays
    resident.
    Both thresholds are set, because a trim threshold alone also freezes
    the mmap threshold at glibc's 128 KiB default.  Where ``mallopt`` is
    missing, or refuses the mmap threshold, nothing is set.  No arithmetic
    changes.
    """
    global _allocator_policy_set
    if _allocator_policy_set:
        return
    _allocator_policy_set = True
    try:
        mallopt = _libc().mallopt
    except (OSError, TypeError, AttributeError):  # no C library by that call, or no mallopt
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def channel_graph(cfg: ModelConfig, scene: Scene | None, n_channels: int):
    """The channels of one utterance that the stack reads, and the spatial graph over them.

    Returns the (n,) indices of those channels in the utterance's own order,
    and the bool (n, n) graph among them.  Prior selection keeps the
    prior's channels (:func:`graphs.build_prior`, known before the stack);
    the other kinds keep all ``n_channels``, gpool because it picks its
    channels from the stack's output.  The graph is the configured spatial
    graph over all ``n_channels`` channels (so knn neighbours are picked
    among all of them, with the scene's node positions), narrowed to the
    rows and columns of the kept ones; a model of zero blocks reads none
    (its config's spatial graph is the complete one).  Raises
    ``MissingPriorError`` when the prior or a knn graph has no ``scene``.
    """
    sel = cfg.selection
    if scene is None and sel.kind == "prior":
        raise MissingPriorError("prior channel selection needs the utterance's scene")
    if scene is None and cfg.spatial_graph.kind == "knn":
        raise MissingPriorError("knn spatial graph needs the utterance's scene")
    kept = (np.flatnonzero(build_prior(scene, sel.rho, sel.rho_noise)) if sel.kind == "prior"
            else np.arange(n_channels))
    full = build_graph(cfg.spatial_graph, n_channels, None if scene is None else scene.node_pos)
    return kept, full.take(kept, 0).take(kept, 1)  # take: a fraction of fancy indexing's cost


@np.errstate(over="ignore", invalid="ignore")  # the embedding check below refuses the result
def _forward(model: Model, feats, scenes: list[Scene | None]):
    """Differentiable embeddings of a batch of utterances of any channel and frame counts.

    ``feats`` holds one (C_i, T_i, D) frame array per utterance and ``scenes``
    one scene (or None) each.  A bool (B, C) array ``keep`` states which of
    its own channels each utterance uses: all of them, the prior's mask
    (known before the stack), or the ceil(C_i / 2) of its C_i own channels
    that gpool scores highest (picked from the frame means after it).

    Each utterance brings to the stack the channels, and their spatial
    graph, that :func:`channel_graph` gives it, so no kernel reads a channel
    the prior drops.  This is the one function that pads: it zero-fills
    what the utterances bring to the batch's largest channel and frame
    counts, and a padded channel sees only itself.  Each utterance's
    temporal graph is the configured frame graph restricted to its valid
    frames (:func:`stagg.restrict`), so its padded frames see only
    themselves.  The channels' frame means zbar average valid frames only,
    and are gated and pooled in one weighted mean
    (:func:`chansel.weighted_pool`).  So padding changes no embedding beyond
    rounding, and a dropped channel's frames change none at all.  Frames
    that are not finite raise ``NonFiniteError``, in a dropped channel too,
    and so does an embedding that is not: the kernels do not check their
    results, so this is where a NaN or Inf parameter, or a value that
    overflowed on the way, is caught.
    Returns the (B, D) embeddings, ``keep`` in each utterance's own channel
    indices, and gpool's (B, C) gate array (None for the other kinds).
    """
    _set_allocator_policy()
    cfg = model.cfg
    for i, (f, scene) in enumerate(zip(feats, scenes, strict=True)):
        if f.ndim != 3 or 0 in f.shape or f.shape[2] != cfg.d:
            raise dc.ShapeError(f"utterance {i} of the batch: expected (C, T, {cfg.d}) frames "
                                f"with C, T >= 1, got {f.shape}")
        if scene is not None and scene.n_nodes != f.shape[0]:
            raise dc.ShapeError(f"utterance {i} of the batch has {f.shape[0]} channels, "
                                f"but its scene has {scene.n_nodes} nodes")
        if not np.isfinite(f).all():  # the stack's input holds only the kept channels
            raise NonFiniteError(f"utterance {i} of the batch holds NaN or Inf frames")
    chosen = [channel_graph(cfg, scene, f.shape[0]) for f, scene in zip(feats, scenes)]
    frames = np.array([f.shape[1] for f in feats])
    b, c, t = len(feats), max(kept.size for kept, _ in chosen), frames.max()
    x = np.zeros((b, c, t, cfg.d))
    keep = np.zeros((b, max(f.shape[0] for f in feats)), dtype=bool)
    rows = np.zeros((b, c), dtype=bool)  # the rows of x that hold a channel
    graph = np.zeros((b, c, c), dtype=bool)
    for i, (f, (kept, block)) in enumerate(zip(feats, chosen)):
        keep[i, kept] = True
        n = kept.size
        x[i, :n, :frames[i]] = f.take(kept, 0)
        rows[i, :n] = True
        graph[i, :n, :n] = block
    valid = np.arange(t) < frames[:, None]  # (B, T)
    out = Tensor(x)
    if model.blocks:
        # The T-node graph's top-left n x n block is the n-node graph for
        # complete and span graphs (ModelConfig refuses knn over frames).
        a_temporal = restrict(build_graph(cfg.temporal_graph, t), valid)[:, None]
        out = st_stack(out, model.blocks, a_temporal, restrict(graph, rows))
    zbar = dc.div(dc.sum_axis(dc.mul(out, valid[:, None, :, None]), axis=2),
                  frames[:, None, None])  # (B, C, D)

    sel = cfg.selection
    if sel.kind != "gpool":
        embs, gates = weighted_pool(zbar, rows, 1.0), None
    else:
        keep, gate = gpool_weights(zbar, model.gpool, keep)
        embs, gates = weighted_pool(zbar, keep, gate), gate.data
    bad = np.flatnonzero(~np.isfinite(embs.data).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"utterance {bad[0]} of the batch has a NaN or Inf embedding")
    return embs, keep, gates


def _constants(model: Model) -> Model:
    """``model`` with its parameters read as constants, so a forward through it records nothing.

    Each parameter keeps its name and shares its data array; inference runs
    :func:`_forward` on this view, so every op frees its arrays once the
    next op has read them.
    """
    def const(p):
        return None if p is None else Parameter(p.name, p.data, requires_grad=False)

    def const_agg(agg):
        return replace(agg, weights={role: const(p) for role, p in agg.weights.items()})

    blocks = [BlockParams(const_agg(b.temporal), const_agg(b.spatial)) for b in model.blocks]
    return Model(model.cfg, model.n_speakers, blocks, const(model.gpool), const(model.head_w),
                 const(model.head_b))


def embed(model: Model, x, scene: Scene | None = None) -> np.ndarray:
    """Utterance-level embedding as a plain (D,) array."""
    return embed_with_info(model, x, scene)[0]


def embed_with_info(model: Model, x, scene: Scene | None = None):
    """Embedding plus the channel-selection report for this utterance.

    The report holds the selection kind (``selection``), the kept
    channels' indices (``selected_indices``) and gpool's gates of those
    channels (``gates``, None for the other kinds).
    """
    data = x.data if isinstance(x, FrameTensor) else np.asarray(x, dtype=np.float64)
    embs, keep, gate = _forward(_constants(model), [data], [scene])
    kept = keep[0]
    return np.array(embs.data[0]), {
        "selection": model.cfg.selection.kind,
        "selected_indices": np.flatnonzero(kept).tolist(),
        "gates": None if gate is None else gate[0, kept].tolist(),
    }


def train_second_stage(dataset: list[Utterance], cfg: ModelConfig,
                       hyper: TrainHyper) -> tuple[Model, list[float]]:
    """Minimize softmax cross-entropy over speakers with SGD + momentum.

    Deterministic given (cfg.seed, dataset order): initialization and the
    per-epoch shuffles derive from the seed.  Returns the trained model
    and the per-epoch mean loss curve.  A step whose embeddings, or whose
    updated parameters, hold NaN or Inf raises ``NonFiniteError`` naming
    its epoch and step.
    """
    if not dataset:
        raise DegenerateTaskError("empty training set")
    speakers = sorted({u.speaker for u in dataset})
    if len(speakers) < 2:
        raise DegenerateTaskError("training needs at least two speakers")
    wrong_d = [u.utt_id for u in dataset if u.features.d != cfg.d]
    if wrong_d:
        raise dc.ShapeError(f"model.d = {cfg.d}, but the features of training utterances "
                            f"{wrong_d[:3]} (of {len(wrong_d)}) have other widths")
    label_of = {spk: i for i, spk in enumerate(speakers)}

    model = Model.init(cfg, n_speakers=len(speakers))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    velocity = {p.name: np.zeros_like(p.data) for p in model.params}
    curve: list[float] = []
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(len(dataset))
        batch_losses: list[float] = []
        for start in range(0, len(dataset), hyper.batch_size):
            batch = [dataset[i] for i in order[start:start + hyper.batch_size]]
            model.params.zero_grad()
            try:
                embs, _, _ = _forward(model, [u.features.data for u in batch],
                                      [u.scene for u in batch])
                labels = np.array([label_of[u.speaker] for u in batch])
                # A step that overflows is refused just below, by name.
                with np.errstate(over="ignore", invalid="ignore"):
                    logits = dc.add(dc.matmul(embs, model.head_w), model.head_b)
                    loss = dc.softmax_cross_entropy(logits, labels)
                    loss.backward()
                    for p in model.params:
                        v = velocity[p.name]
                        v *= hyper.momentum
                        v += p.grad
                        p.data -= hyper.lr * v
                bad = [p.name for p in model.params if not np.isfinite(p.data).all()]
                if bad:
                    raise NonFiniteError(f"the update wrote NaN or Inf into {bad}")
            except NonFiniteError as err:
                raise NonFiniteError(
                    f"training diverged at epoch {epoch}, step {start // hyper.batch_size}: {err}"
                ) from err
            batch_losses.append(loss.item())
        curve.append(float(np.mean(batch_losses)))
    return model, curve


def cosine_score(s1, s2):
    """Cosine similarity of embeddings along their last axis, in [-1, 1].

    Two (D,) embeddings give a float; (..., D) arrays give one score per
    row pair.  Each embedding is scaled to unit norm before the product.
    """
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    if not (na.all() and nb.all()):
        raise ValueError("cosine score undefined for a zero embedding")
    scores = np.einsum("...d,...d->...", a / na, b / nb)
    return float(scores) if scores.ndim == 0 else scores


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: str  # "target" | "nontarget"

    def __post_init__(self):
        if self.label not in ("target", "nontarget"):
            raise ValueError(f"trial label must be target/nontarget, got {self.label!r}")


@dataclass
class TrialSet:
    trials: list[Trial]


def eer_from_scores(target_scores, nontarget_scores) -> tuple[float, float]:
    """Equal error rate and its threshold from raw verification scores.

    Sweeps every distinct score as an accept-if-score>=threshold operating
    point; the crossing of the false-accept and false-reject rates is
    linearly interpolated between the two bracketing points.
    """
    tar = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if tar.size < 1 or non.size < 1:
        raise ProtocolError("EER needs at least one target and one nontarget trial")
    thresholds = np.unique(np.concatenate([tar, non]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)  # all-reject sentinel
    far = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    frr = np.searchsorted(tar, thresholds, side="left") / tar.size
    diff = far - frr  # nonincreasing in the threshold
    i2 = int(np.argmax(diff <= 0.0))
    if diff[i2] == 0.0:
        return float(far[i2]), float(thresholds[i2])
    i1 = i2 - 1
    denom = (far[i1] - frr[i1]) - (far[i2] - frr[i2])
    t = (far[i1] - frr[i1]) / denom
    eer = far[i1] + t * (far[i2] - far[i1])
    threshold = thresholds[i1] + t * (thresholds[i2] - thresholds[i1])
    return float(eer), float(threshold)


@dataclass(frozen=True)
class EvalReport:
    eer: float
    threshold: float
    n_trials: int
    scores: tuple[float, ...]


# Upper bound on B * C * T * (T + C) for one evaluation batch, where C and T
# are its largest channel and frame counts: :func:`_forward` pads every
# utterance of the batch to them.  C counts each utterance's own channels,
# an upper bound on the kept channels that prior selection narrows it to
# before the stack.  sam's temporal and spatial passes hold (B, C, H, T, T)
# and (B, T, H, C, C) attention arrays, H times the two terms; gcn holds
# none, and its largest arrays, (B, C, T, D), are D / (T + C) times the
# bound.  Counting only the temporal term would let batches of
# many-channel, short utterances grow without bound in the spatial pass.
# Evaluation records no graph (:func:`_constants`), so each op's arrays are
# freed once the next op has read them.
# Measured on the verify-ragged inputs (400 arrays of 4-16 channels and
# 10-40 frames, batches mixing channel counts, seed 7) with its trained
# gcn + gpool model, one BLAS thread on a 2-core x86_64 machine, under the
# allocator policy of :func:`_set_allocator_policy`: peak RSS, 58.6-58.8 MiB
# after training, reached 68.5-68.7 MiB at every budget from 16384 to
# 262144; evaluate took a median 0.19 s at 16384, 0.15 s at 32768 and
# 0.13 s from 65536 up (seven calls at each).  An utterance over the budget
# on its own runs as a batch of one.
EVAL_BATCH_ENTRIES = 65536


def _embed_all(model: Model, utterances: dict[str, Utterance]) -> dict[str, np.ndarray]:
    """Embeddings of every utterance, computed in batches that :func:`_forward` pads.

    Utterances are sorted by (channels, frames, id), so the batches, and with
    them every embedding, do not depend on the order they are asked for in.
    A batch grows while its padded size stays within ``EVAL_BATCH_ENTRIES``.
    """
    batches: list[list[tuple[str, Utterance]]] = [[]]
    t_max = 0  # the open batch's padded frame count
    for item in sorted(utterances.items(),
                       key=lambda item: (item[1].features.c, item[1].features.t, item[0])):
        c, t = item[1].features.c, max(t_max, item[1].features.t)  # sorted: c is the widest
        if batches[-1] and (len(batches[-1]) + 1) * c * t * (t + c) > EVAL_BATCH_ENTRIES:
            batches.append([])
            t = item[1].features.t
        batches[-1].append(item)
        t_max = t
    embs: dict[str, np.ndarray] = {}
    constants = _constants(model)
    for batch in batches:
        vectors = _forward(constants, [u.features.data for _, u in batch],
                           [u.scene for _, u in batch])[0].data
        embs.update(zip([utt_id for utt_id, _ in batch], vectors))
    return embs


def evaluate(model: Model, utterances: dict[str, Utterance], trials: TrialSet) -> EvalReport:
    """Embed, score with cosine similarity, and compute the EER.

    Every utterance a trial references is checked before any is embedded;
    they are then embedded in padded batches (see ``_embed_all``).  A zero
    embedding, which has no cosine score, is a ``ProtocolError`` naming its
    utterance.  Every trial is scored in one :func:`cosine_score` call, and
    the scores, split by label, go to :func:`eer_from_scores`.
    """
    if not trials.trials:
        raise ProtocolError("EER needs at least one target and one nontarget trial")
    referenced: dict[str, Utterance] = {}
    for t in trials.trials:
        for utt_id in (t.enroll_id, t.test_id):
            if utt_id not in utterances:
                raise KeyError(f"trial references unknown utterance {utt_id!r}")
            referenced[utt_id] = utterances[utt_id]
    embs = _embed_all(model, referenced)
    index = {utt_id: i for i, utt_id in enumerate(embs)}
    vectors = np.stack(list(embs.values()))
    zero = np.flatnonzero(np.linalg.norm(vectors, axis=-1) == 0.0)
    if zero.size:
        raise ProtocolError(f"utterance {list(embs)[zero[0]]!r} has a zero embedding, "
                            "which has no cosine score")
    scores = cosine_score(vectors[[index[t.enroll_id] for t in trials.trials]],
                          vectors[[index[t.test_id] for t in trials.trials]])
    target = np.array([t.label == "target" for t in trials.trials])
    eer, threshold = eer_from_scores(scores[target], scores[~target])
    return EvalReport(eer=eer, threshold=threshold, n_trials=len(trials.trials),
                      scores=tuple(scores.tolist()))


def generate_trials(utterances: list[Utterance], n_target: int, n_nontarget: int,
                    rng: np.random.Generator) -> TrialSet:
    """Sample same-speaker and cross-speaker utterance pairs, targets first.

    A target trial draws a speaker uniformly from those with two or more
    utterances, then an ordered pair of two different utterances of it,
    uniformly.  A nontarget trial draws an ordered pair of two different
    speakers uniformly, then one utterance of each, uniformly.  Speakers
    are numbered in sorted order and their utterances in list order.  Each
    of these draws is one array draw over all trials, so from this version
    on a seed draws different trials than earlier versions did, from the
    same distribution.  A negative count is a ``ValueError`` naming it.
    """
    for name, count in (("n_target", n_target), ("n_nontarget", n_nontarget)):
        if count < 0:
            raise ValueError(f"{name} must be nonnegative, got {count}")
    by_speaker: dict[int, list[str]] = {}
    for u in utterances:
        by_speaker.setdefault(u.speaker, []).append(u.utt_id)
    speakers = sorted(by_speaker)
    names = np.array([utt_id for spk in speakers for utt_id in by_speaker[spk]], dtype=object)
    sizes = np.array([len(by_speaker[spk]) for spk in speakers], dtype=np.int64)
    first = np.cumsum(sizes) - sizes  # index in names of each speaker's first utterance
    multi = np.flatnonzero(sizes >= 2)
    if n_target > 0 and not multi.size:
        raise ProtocolError("no speaker has two utterances; cannot form target trials")
    if n_nontarget > 0 and len(speakers) < 2:
        raise ProtocolError("need two speakers for nontarget trials")

    def distinct_pair(n, size=None):
        """Ordered pairs (i, j) with i != j, uniform over [0, n)^2 off the diagonal."""
        i = rng.integers(n, size=size)
        j = rng.integers(n - 1, size=size)
        return i, j + (j >= i)

    def labelled(enroll, test, label):
        return list(map(Trial, names[enroll], names[test], repeat(label)))

    spk = multi[rng.integers(multi.size, size=n_target)]
    i, j = distinct_pair(sizes[spk])
    trials = labelled(first[spk] + i, first[spk] + j, "target")
    si, sj = distinct_pair(len(speakers), size=n_nontarget)
    trials += labelled(first[si] + rng.integers(sizes[si]), first[sj] + rng.integers(sizes[sj]),
                       "nontarget")
    return TrialSet(trials=trials)


def write_trials_csv(path, trials: TrialSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["enroll_id", "test_id", "label"])
        for t in trials.trials:
            writer.writerow([t.enroll_id, t.test_id, t.label])


def read_trials_csv(path) -> TrialSet:
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["enroll_id", "test_id", "label"]:
            raise ValueError(f"{path}: expected header enroll_id,test_id,label")
        trials = []
        for row in filter(None, reader):  # blank lines hold no trial
            if len(row) != 3:
                raise ValueError(f"{path}, line {reader.line_num}: expected 3 fields "
                                 f"enroll_id,test_id,label, got {len(row)}")
            trials.append(Trial(*row))
    return TrialSet(trials=trials)


def config_value(value, default, where: str):
    """The JSON ``value`` found at ``where``, converted to the type of ``default``.

    A None default takes the value as given.  Conversions that would change
    the value are refused: a bool field takes only true or false and no
    other field takes a bool, an int field takes no number that int()
    would round (2.9), and a float field no NaN or infinity; numeric
    strings such as "4" convert.  A refusal is a ValueError naming
    ``where``.
    """
    if default is None:
        return value
    kind = type(default)
    if isinstance(value, bool) != (kind is bool):
        raise ValueError(f"{where}: expected {kind.__name__}, got {value!r}")
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{where}: {err}") from err
    if kind is int and isinstance(value, float) and converted != value:
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    if kind is float and not math.isfinite(converted):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return converted


def config_from_json(cls, doc, where: str):
    """Build the config dataclass ``cls`` from the JSON object ``doc`` found at ``where``.

    Keys are field names and missing ones keep their defaults.  A dataclass
    default is read recursively and any other value through
    :func:`config_value`.  Every failure, ``cls``'s own checks included, is
    a ValueError naming the key path.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")
    defaults = cls()
    values = {}
    for key, value in doc.items():
        default = getattr(defaults, key)
        if is_dataclass(default):
            values[key] = config_from_json(type(default), value, f"{where}.{key}")
        else:
            values[key] = config_value(value, default, f"{where}.{key}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where}: {err}") from err


def model_config_to_json(cfg: ModelConfig) -> dict:
    return asdict(cfg)


def save_model(path, model: Model) -> None:
    meta = {"config": model_config_to_json(model.cfg), "n_speakers": model.n_speakers}
    save_checkpoint(path, model.params, meta)


def load_model(path) -> Model:
    manifest, values = load_checkpoint(path)
    missing = [key for key in ("config", "n_speakers") if key not in manifest]
    if missing:
        raise ValueError(f"{path}: checkpoint manifest lacks {missing}")
    cfg = config_from_json(ModelConfig, manifest["config"], "config")
    n_speakers = config_value(manifest["n_speakers"], 0, f"{path}: n_speakers")
    if n_speakers < 1:
        raise ValueError(f"{path}: n_speakers must be positive, got {n_speakers}")
    model = Model.init(cfg, n_speakers=n_speakers)
    missing = [p.name for p in model.params if p.name not in values]
    extra = [name for name in values if name not in model.params]
    if missing or extra:
        raise ValueError(f"checkpoint/model mismatch: missing={missing}, extra={extra}")
    for p in model.params:
        if values[p.name].shape != p.data.shape:
            raise ValueError(f"shape mismatch for {p.name!r}")
        p.data = values[p.name].copy()
    return model


def eval_per_node(model: Model, utterances: dict[str, Utterance],
                  trials: TrialSet) -> list[dict]:
    """Single-channel EER per node index, with mean node geometry.

    Each channel is scored on its own without channel selection, by a
    model that shares the trained blocks and head: one channel is always
    kept, and gpool's gate only scales the embedding, which the cosine
    score ignores.  A single channel's spatial graph is its self-loop
    whatever the configured kind.
    Coordinates and speaker distance are averaged over the evaluated
    utterances' scenes (exact when all utterances share one geometry).
    """
    n_channels = {u.features.c for u in utterances.values()}
    if len(n_channels) != 1:
        raise ProtocolError("per-node analysis needs a uniform channel count")
    c = n_channels.pop()
    single = Model(replace(model.cfg, selection=SelectionConfig()),
                   model.n_speakers, model.blocks, None, model.head_w, model.head_b)
    rows = []
    for node in range(c):
        sub = {}
        for utt_id, u in utterances.items():
            sub[utt_id] = replace(
                u,
                features=FrameTensor(u.features.data[node:node + 1]),
                scene=None if u.scene is None else u.scene.subset([node]),
            )
        try:
            report = evaluate(single, sub, trials)
        except (ValueError, FloatingPointError) as err:
            raise type(err)(f"node {node}: {err}") from err
        scenes = [u.scene for u in utterances.values() if u.scene is not None]
        if scenes:
            pos = np.mean([s.node_pos[node] for s in scenes], axis=0)
            dist = float(np.mean([np.linalg.norm(s.node_pos[node] - s.speaker_pos) for s in scenes]))
        else:
            pos, dist = np.full(3, np.nan), float("nan")
        rows.append({"node": node, "x": float(pos[0]), "y": float(pos[1]), "z": float(pos[2]),
                     "distance": dist, "eer": report.eer})
    return rows
