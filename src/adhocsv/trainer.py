"""Second-stage training and verification scoring.

The trainable system = spatial-temporal aggregation stack, optional
channel selection pooled as one weighted mean of the channels' frame
means, and a linear softmax classifier over speakers.  A stack of zero
blocks (``n_blocks=0``) is the MEAN baseline, with or without selection.
Frame-level features are frozen inputs.  One batched forward pass
computes the embeddings: training runs it on batches of same-shape
utterances, :func:`embed` on one utterance, and :func:`evaluate` on
batches of utterances with equal channel counts whose frame counts
differ, zero-padded on the frame axis and masked so that padding changes
no embedding.  Verification scores
utterance-embedding pairs with cosine similarity and reports the equal
error rate from a full threshold sweep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

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
    "train_second_stage",
    "embed",
    "embed_with_info",
    "cosine_score",
    "eer_from_scores",
    "evaluate",
    "generate_trials",
    "subsample_channels",
    "read_trials_csv",
    "write_trials_csv",
    "config_value",
    "config_from_json",
    "model_config_to_json",
    "model_config_from_json",
    "save_model",
    "load_model",
]

SELECTION_KINDS = ("none", "gpool", "prior")


class ProtocolError(ValueError):
    """The trial set cannot support the requested evaluation."""


class DegenerateTaskError(ValueError):
    """The training task is ill-posed (fewer than two speakers, or ragged shapes)."""


@dataclass(frozen=True)
class SelectionConfig:
    kind: str = "none"
    k: int | None = None  # gpool channel budget; None means ceil(C / 2)
    rho: float = 0.6
    noise: bool = False
    rho_noise: float = 0.2

    def __post_init__(self):
        if self.kind not in SELECTION_KINDS:
            raise ValueError(f"unknown selection kind {self.kind!r}")
        if self.kind == "prior" and not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if self.noise and not 0.0 < self.rho_noise <= 1.0:
            raise ValueError(f"rho_noise must lie in (0, 1], got {self.rho_noise}")
        if self.k is not None and (type(self.k) is not int or self.k < 1):
            raise ValueError(f"gpool k must be a positive channel count, got {self.k!r}")


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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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


def _forward(model: Model, x: np.ndarray, scenes: list[Scene | None],
             frames: list[int] | None = None):
    """Differentiable embeddings of a batch of utterances with equal channel counts.

    ``x`` is (B, C, T, D) with one scene (or None) per utterance, and
    ``frames`` each utterance's valid frame count (None: all T); the frames
    past it are padding, and only this function knows of them.  Each
    utterance's frames form its temporal graph inside a (B, 1, T, T) mask
    whose padded frames see only themselves, and the channels' frame means
    zbar (B, C, D) average valid frames only, so padding changes no
    embedding beyond rounding.

    A bool (B, C) array ``keep`` states which channels each utterance uses:
    all of them, the prior's mask (:func:`graphs.build_prior`, known before
    the stack), or gpool's top k (picked from zbar after it).  The spatial
    masks derive from it once, as the configured graph restricted to the
    kept channels, with a self-loop on every channel; a model of zero blocks
    builds no graph.  The kept channels are gated and pooled in one
    weighted mean (:func:`chansel.weighted_pool`).
    Returns the (B, D) embeddings, ``keep``, and gpool's (B, C) gate
    array (None for the other kinds).
    """
    cfg = model.cfg
    sel = cfg.selection
    if x.ndim != 4:
        raise dc.ShapeError(f"forward pass expects (B, C, T, D), got {x.shape}")
    b, c, t, _ = x.shape
    frames = np.full(b, t) if frames is None else np.asarray(frames, dtype=np.intp)
    if frames.shape != (b,) or frames.min() < 1 or frames.max() > t:
        raise dc.ShapeError(f"need {b} frame counts in [1, {t}], got {frames.tolist()}")
    valid = np.arange(t) < frames[:, None]  # (B, T)
    if any(scene is None for scene in scenes):
        if sel.kind == "prior":
            raise MissingPriorError("prior channel selection needs the utterance's scene")
        if model.blocks and cfg.spatial_graph.kind == "knn":
            raise MissingPriorError("knn spatial graph needs the utterance's scene")
    keep = np.ones((b, c), dtype=bool)  # no selection: every channel
    if sel.kind == "prior":
        rho_noise = sel.rho_noise if sel.noise else None
        keep = np.stack([build_prior(scene, sel.rho, rho_noise) for scene in scenes])
    out = Tensor(x)
    if model.blocks:
        positions = [None if scene is None else scene.node_pos for scene in scenes]
        graph = np.stack([build_graph(cfg.spatial_graph, c, pos) for pos in positions])
        a_spatial = graph & keep[:, :, None] & keep[:, None, :] | np.eye(c, dtype=bool)
        # The T-node graph's top-left n x n block is the n-node graph for
        # complete and span graphs (ModelConfig refuses knn over frames).
        a_temporal = (build_graph(cfg.temporal_graph, t)
                      & valid[:, None, :, None] & valid[:, None, None, :]) | np.eye(t, dtype=bool)
        out = st_stack(out, model.blocks, a_temporal, a_spatial)
    zbar = dc.div(dc.sum_axis(dc.mul(out, valid[:, None, :, None]), axis=2),
                  frames[:, None, None])  # (B, C, D)

    if sel.kind != "gpool":
        return weighted_pool(zbar, keep, 1.0), keep, None
    keep, gate = gpool_weights(zbar, model.gpool, sel.k if sel.k is not None else math.ceil(c / 2))
    return weighted_pool(zbar, keep, gate), keep, gate.data


def embed(model: Model, x, scene: Scene | None = None) -> np.ndarray:
    """Utterance-level embedding as a plain (D,) array."""
    data = x.data if isinstance(x, FrameTensor) else np.asarray(x, dtype=np.float64)
    embs, _, _ = _forward(model, data[None], [scene])
    return np.array(embs.data[0])


def embed_with_info(model: Model, x, scene: Scene | None = None):
    """Embedding plus the channel-selection report for this utterance.

    The report names the selection kind, the kept channels' indices, and
    gpool's gates of those channels (None for the other kinds).
    """
    data = x.data if isinstance(x, FrameTensor) else np.asarray(x, dtype=np.float64)
    embs, keep, gate = _forward(model, data[None], [scene])
    kept = keep[0]
    return np.array(embs.data[0]), {
        "mechanism": model.cfg.selection.kind,
        "selected_indices": np.flatnonzero(kept).tolist(),
        "gates": None if gate is None else gate[0, kept].tolist(),
    }


def train_second_stage(dataset: list[Utterance], cfg: ModelConfig,
                       hyper: TrainHyper) -> tuple[Model, list[float]]:
    """Minimize softmax cross-entropy over speakers with SGD + momentum.

    Deterministic given (cfg.seed, dataset order): initialization and the
    per-epoch shuffles derive from the seed.  Returns the trained model
    and the per-epoch mean loss curve.
    """
    if not dataset:
        raise DegenerateTaskError("empty training set")
    speakers = sorted({u.speaker for u in dataset})
    if len(speakers) < 2:
        raise DegenerateTaskError("training needs at least two speakers")
    shapes = sorted({u.features.data.shape for u in dataset})
    if len(shapes) > 1:
        raise DegenerateTaskError(
            f"training utterances must share one (channels, frames, dims) shape, got {shapes}")
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
                x = np.stack([u.features.data for u in batch])
                embs, _, _ = _forward(model, x, [u.scene for u in batch])
                logits = dc.add(dc.matmul(embs, model.head_w), model.head_b)
                labels = np.array([label_of[u.speaker] for u in batch])
                loss = dc.softmax_cross_entropy(logits, labels)
            except NonFiniteError as err:
                raise NonFiniteError(
                    f"training diverged at epoch {epoch}, step {start // hyper.batch_size}: {err}"
                ) from err
            loss.backward()
            for p in model.params:
                v = velocity[p.name]
                v *= hyper.momentum
                v += p.grad
                p.data -= hyper.lr * v
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


# Upper bound on the padded mask entries B * C * T * (T + C) of one
# evaluation batch.  The temporal pass masks B * C * T * T entries and the
# spatial pass B * T * C * C; counting only the temporal ones would let
# batches of many-channel, short utterances grow without bound in the
# spatial pass.  A batch's recorded graph holds every block's arrays until
# its embeddings are read out, so the budget bounds the memory of
# evaluation.  Measured on 400 arrays of 4-16 channels and 10-40 frames
# with a trained 2-block, 4-head gcn + gpool model (d = 16), one BLAS
# thread on a 2-core x86_64 machine: peak RSS, 54 MiB after training,
# reached 61, 64 and 71 MiB at budgets of 32768, 65536 and 131072; 16384
# ran slowest, and 32768 to 131072 ran within the machine's timing noise
# of each other.  An utterance over the budget on its own runs as a batch
# of one.
EVAL_BATCH_ENTRIES = 65536


def _embed_batch(model: Model, utts: list[Utterance]) -> np.ndarray:
    """(B, D) embeddings of utterances with one (C, D) shape, zero-padded to the longest."""
    c, d = utts[0].features.c, utts[0].features.d
    frames = [u.features.t for u in utts]
    x = np.zeros((len(utts), c, max(frames), d))
    for i, u in enumerate(utts):
        x[i, :, :frames[i]] = u.features.data
    embs, _, _ = _forward(model, x, [u.scene for u in utts], frames)
    return np.array(embs.data)  # the batch's graph is freed on return, before the next batch


def _embed_all(model: Model, utterances: dict[str, Utterance]) -> dict[str, np.ndarray]:
    """Embeddings of every utterance, computed in frame-padded batches.

    Utterances are grouped by (channels, dims), so channels are never padded,
    and sorted by (frames, id) within a group, so the batches, and with them
    every embedding, do not depend on the order they are asked for in.  A
    batch grows while its padded size stays within ``EVAL_BATCH_ENTRIES``.
    """
    groups: dict[tuple[int, int], list[tuple[str, Utterance]]] = {}
    for utt_id, u in utterances.items():
        groups.setdefault((u.features.c, u.features.d), []).append((utt_id, u))
    embs: dict[str, np.ndarray] = {}
    for (c, _), group in sorted(groups.items()):
        group.sort(key=lambda item: (item[1].features.t, item[0]))
        batches: list[list[tuple[str, Utterance]]] = [[]]
        for item in group:
            t = item[1].features.t  # the batch's padded length: the group is sorted by frames
            if batches[-1] and (len(batches[-1]) + 1) * c * t * (t + c) > EVAL_BATCH_ENTRIES:
                batches.append([])
            batches[-1].append(item)
        for batch in batches:
            embs.update(zip([utt_id for utt_id, _ in batch],
                            _embed_batch(model, [u for _, u in batch])))
    return embs


def evaluate(model: Model, utterances: dict[str, Utterance], trials: TrialSet) -> EvalReport:
    """Embed, score with cosine similarity, and compute the EER.

    Every utterance a trial references is checked before any is embedded;
    they are then embedded in frame-padded batches (see ``_embed_all``),
    every trial is scored in one :func:`cosine_score` call, and the scores,
    split by label, go to :func:`eer_from_scores`.
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
    scores = cosine_score(vectors[[index[t.enroll_id] for t in trials.trials]],
                          vectors[[index[t.test_id] for t in trials.trials]])
    target = np.array([t.label == "target" for t in trials.trials])
    eer, threshold = eer_from_scores(scores[target], scores[~target])
    return EvalReport(eer=eer, threshold=threshold, n_trials=len(trials.trials),
                      scores=tuple(scores.tolist()))


def generate_trials(utterances: list[Utterance], n_target: int, n_nontarget: int,
                    rng: np.random.Generator) -> TrialSet:
    """Sample same-speaker and cross-speaker utterance pairs."""
    by_speaker: dict[int, list[Utterance]] = {}
    for u in utterances:
        by_speaker.setdefault(u.speaker, []).append(u)
    multi = [spk for spk, us in by_speaker.items() if len(us) >= 2]
    if n_target > 0 and not multi:
        raise ProtocolError("no speaker has two utterances; cannot form target trials")
    if n_nontarget > 0 and len(by_speaker) < 2:
        raise ProtocolError("need two speakers for nontarget trials")
    trials: list[Trial] = []
    for _ in range(n_target):
        spk = multi[rng.integers(len(multi))]
        i, j = rng.choice(len(by_speaker[spk]), size=2, replace=False)
        trials.append(Trial(by_speaker[spk][i].utt_id, by_speaker[spk][j].utt_id, "target"))
    speakers = sorted(by_speaker)
    for _ in range(n_nontarget):
        si, sj = rng.choice(len(speakers), size=2, replace=False)
        u1 = by_speaker[speakers[si]][rng.integers(len(by_speaker[speakers[si]]))]
        u2 = by_speaker[speakers[sj]][rng.integers(len(by_speaker[speakers[sj]]))]
        trials.append(Trial(u1.utt_id, u2.utt_id, "nontarget"))
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


# Settings that older checkpoints record.  They load only at the value
# that made them a no-op, because the model no longer implements them (or,
# for leaky_slope, now fixes them: stagg.LEAKY_SLOPE).
_REMOVED_SETTINGS = {"warm_start": False, "head": "linear", "head_scale": 10.0,
                     "leaky_slope": 0.2}
_REMOVED_SELECTION_SETTINGS = {"pool_all": False, "orientation": False}


def _drop_removed(doc, removed: dict, where: str):
    if not isinstance(doc, dict):
        return doc  # config_from_json names the malformed section
    for key, no_op in removed.items():
        if key in doc and doc[key] != no_op:
            raise ValueError(f"{where}.{key}={doc[key]!r} is no longer supported "
                             f"(only {no_op!r} loads)")
    return {key: value for key, value in doc.items() if key not in removed}


def model_config_from_json(doc) -> ModelConfig:
    """Read a checkpoint's model config, dropping removed settings at their no-op values.

    A recorded ``"mechanism": "mean"``, once the MEAN baseline's own
    mechanism, reads as the stack of zero blocks.
    """
    doc = _drop_removed(doc, _REMOVED_SETTINGS, "config")
    if isinstance(doc, dict) and doc.get("mechanism") == "mean":
        doc = {**doc, "mechanism": ModelConfig.mechanism, "n_blocks": 0}
    if isinstance(doc, dict) and "selection" in doc:
        doc = {**doc, "selection": _drop_removed(doc["selection"], _REMOVED_SELECTION_SETTINGS,
                                                 "config.selection")}
    return config_from_json(ModelConfig, doc, "config")


def save_model(path, model: Model) -> None:
    meta = {"config": model_config_to_json(model.cfg), "n_speakers": model.n_speakers}
    save_checkpoint(path, model.params, meta)


def _drop_gcn_query_side(path, values: dict[str, np.ndarray]) -> None:
    """Read gcn heads written when they still held a query side.

    Such a head holds ``{head}.wl`` and a 2 * d_head ``{head}.beta`` whose
    first half scores the query node; the softmax cancels both, so the
    query weights and that half are dropped.
    """
    for name in [n for n in values if n.endswith(".wl")]:
        head = name[:-len(".wl")]
        wl, beta = values.pop(name), values.get(f"{head}.beta")
        if wl.ndim != 2 or beta is None or beta.shape != (2 * wl.shape[1],):
            raise ValueError(f"{path}: {name!r} comes without a beta of twice its width")
        values[f"{head}.beta"] = beta[wl.shape[1]:]


def load_model(path) -> Model:
    manifest, values = load_checkpoint(path)
    missing = [key for key in ("config", "n_speakers") if key not in manifest]
    if missing:
        raise ValueError(f"{path}: checkpoint manifest lacks {missing}")
    cfg = model_config_from_json(manifest["config"])
    n_speakers = config_value(manifest["n_speakers"], 0, f"{path}: n_speakers")
    if n_speakers < 1:
        raise ValueError(f"{path}: n_speakers must be positive, got {n_speakers}")
    if cfg.mechanism == "gcn":
        _drop_gcn_query_side(path, values)
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
        report = evaluate(single, sub, trials)
        scenes = [u.scene for u in utterances.values() if u.scene is not None]
        if scenes:
            pos = np.mean([s.node_pos[node] for s in scenes], axis=0)
            dist = float(np.mean([np.linalg.norm(s.node_pos[node] - s.speaker_pos) for s in scenes]))
        else:
            pos, dist = np.full(3, np.nan), float("nan")
        rows.append({"node": node, "x": float(pos[0]), "y": float(pos[1]), "z": float(pos[2]),
                     "distance": dist, "eer": report.eer})
    return rows
