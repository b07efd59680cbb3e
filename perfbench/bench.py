"""One benchmark run: set up a workload, time it, check its outputs.

A run repeats cycles of setup, training (training workloads) and a
verification pass for the given seconds.  The end-to-end run installs
nothing in the library.  The traced run installs :class:`tracing.Tracer`
for every other cycle; the untraced cycles between them measure the
tracing overhead.
"""

from __future__ import annotations

import ctypes
import glob
import gzip
import hashlib
import json
import os
import platform
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adhocsv import trainer

import stats
from tracing import Tracer
from workloads import WORKLOADS, Workload, make_test_set, make_train_set

MIN_CYCLES = 3  # end-to-end medians need a few samples even when cycles are long
SCORE_TOLERANCE = 1e-9

ROOT = Path(__file__).resolve().parent.parent


# -- bookkeeping ---------------------------------------------------------


@dataclass
class Ledger:
    """Operations attempted and failed: training steps, embeddings, trials and checks."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, n: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += n
        if failed:
            self.failed += failed
            self.reasons.append(f"{reason} ({failed} of {n})")


@dataclass
class Observations:
    """Raw samples gathered by the cycles of a run."""

    setup_s: list[float] = field(default_factory=list)
    train_rates: list[float] = field(default_factory=list)  # utterances per second
    cycle_s: list[float] = field(default_factory=list)
    embed_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    curve: list[float] | None = None
    eer: float | None = None


@dataclass
class Inputs:
    train: list
    test: dict
    trials: trainer.TrialSet
    model: trainer.Model | None = None  # trained in setup (verify workloads)


# -- the stages ----------------------------------------------------------


def train_job(w: Workload, train, obs: Observations, ledger: Ledger) -> trainer.Model:
    start = time.perf_counter()
    model, curve = trainer.train_second_stage(train, w.model, w.hyper)
    seconds = time.perf_counter() - start
    obs.train_rates.append(w.n_train * w.epochs / seconds)
    steps = w.steps_per_job
    if len(curve) != w.epochs or not np.all(np.isfinite(curve)):
        ledger.record(steps, steps, "training loss curve is incomplete or not finite")
    elif obs.curve is not None and curve != obs.curve:
        ledger.record(steps, steps, "repeating the training job gave another loss curve")
    else:
        ledger.record(steps)
    obs.curve = curve
    return model


def setup_once(w: Workload, seed: int, ckpt: Path, obs: Observations, ledger: Ledger) -> Inputs:
    inputs = Inputs(make_train_set(w, seed), *make_test_set(w, seed))
    if w.stage == "verify":
        model = train_job(w, inputs.train, obs, ledger)
        trainer.save_model(ckpt, model)
        inputs.model = trainer.load_model(ckpt)
        same = all(np.array_equal(p.data, inputs.model.params[p.name].data) for p in model.params)
        if not same:
            ledger.record(1, 1, "checkpoint round trip changed the parameters")
    return inputs


def verify_pass(model, inputs: Inputs, obs: Observations, ledger: Ledger) -> None:
    """Embed every test utterance (timed one by one), then run ``evaluate``."""
    embs = {}
    for utt_id, u in inputs.test.items():
        start = time.perf_counter()
        emb = trainer.embed(model, u.features, u.scene)
        obs.embed_s.append(time.perf_counter() - start)
        finite = bool(np.all(np.isfinite(emb)))
        ledger.record(1, 0 if finite else 1, "embedding is not finite")
        embs[utt_id] = emb

    start = time.perf_counter()
    report = trainer.evaluate(model, inputs.test, inputs.trials)
    obs.verify_s.append(time.perf_counter() - start)

    trials = inputs.trials.trials
    scores = np.asarray(report.scores, dtype=np.float64)
    if scores.shape != (len(trials),) or report.n_trials != len(trials):
        ledger.record(len(trials), len(trials), "evaluate did not score every trial")
    else:
        enroll = np.stack([embs[t.enroll_id] for t in trials])
        test = np.stack([embs[t.test_id] for t in trials])
        expected = np.sum(enroll * test, axis=1) / (
            np.linalg.norm(enroll, axis=1) * np.linalg.norm(test, axis=1))
        bad = ~np.isfinite(scores) | ~(np.abs(scores - expected) <= SCORE_TOLERANCE)
        ledger.record(len(trials), int(bad.sum()), "trial score is not the embeddings' cosine")
    if not 0.0 <= report.eer <= 1.0:
        ledger.record(1, 1, f"eer {report.eer} lies outside [0, 1]")
    elif obs.eer is not None and report.eer != obs.eer:
        ledger.record(1, 1, "repeating the cycle gave another eer")
    obs.eer = report.eer


def cycle(w, seed, ckpt, obs, ledger, span=lambda name: nullcontext()) -> None:
    """Set up, train (training workloads) and verify once.

    Runs repeat whole cycles, so every timing metric has samples spread
    over the whole run rather than bunched in one stretch of it.
    """
    start = time.perf_counter()
    with span("bench.setup"):
        inputs = setup_once(w, seed, ckpt, obs, ledger)
    obs.setup_s.append(time.perf_counter() - start)
    model = inputs.model
    if w.stage == "train":
        with span("bench.train"):
            model = train_job(w, inputs.train, obs, ledger)
    with span("bench.verify"):
        verify_pass(model, inputs, obs, ledger)
    obs.cycle_s.append(time.perf_counter() - start)


def enough(obs: Observations, deadline: float, min_cycles: int) -> bool:
    return (time.perf_counter() >= deadline and len(obs.cycle_s) >= min_cycles
            and (stats.tail_percentile(len(obs.embed_s)) or 0.0) >= 90.0)


def e2e_phase(w, seed, ckpt, seconds, obs, ledger) -> None:
    deadline = time.perf_counter() + seconds
    while not enough(obs, deadline, MIN_CYCLES):
        cycle(w, seed, ckpt, obs, ledger)


def traced_phase(w, seed, ckpt, seconds, obs, ref, ledger, tracer) -> None:
    """Untraced and traced cycles alternate after one untraced warm-up cycle.

    The traced ones feed the layer metrics; the untraced ones go to ``ref``
    and give the tracing overhead.
    """
    cycle(w, seed, ckpt, Observations(), ledger)
    deadline = time.perf_counter() + seconds
    while not enough(obs, deadline, 1):
        cycle(w, seed, ckpt, ref, ledger)
        with tracer.installed():
            cycle(w, seed, ckpt, obs, ledger, tracer.span)


# -- metrics -------------------------------------------------------------


def e2e_metrics(obs: Observations, ledger: Ledger) -> dict:
    embed_ms = [s * 1e3 for s in obs.embed_s]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (stats.median(obs.setup_s), "s"),
        "train_utts_per_s": (stats.median(obs.train_rates), "1/s"),
        "final_loss": (obs.curve[-1], "nat"),
        "embed_ms_p50": (stats.percentile(embed_ms, 50), "ms"),
        "embed_ms_p90": (stats.percentile(embed_ms, 90), "ms"),
        "verify_s": (stats.median(obs.verify_s), "s"),
        "eer": (obs.eer, "frac"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        "success_frac": (1.0 - ledger.failed / ledger.attempted, "frac"),
    }


def layer_metrics(tracer: Tracer, w: Workload, obs: Observations, ref: Observations) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Times are ms per unit of the workload's main stage: a training step on
    training workloads, an embedded utterance on ``verify-ragged``.  Setup layers
    are ms per setup repetition and scoring layers ms per ``evaluate``
    call.  Tensor counts are per training step and per embedded utterance
    over the whole traced run.
    """
    spans = tracer.spans()
    own = stats.self_times(spans)
    n = len(spans)
    root = list(range(n))
    in_train = [False] * n
    by_name: dict[str, list[int]] = {}
    tensors, tensor_bytes = list(tracer.tensors), list(tracer.tensor_bytes)
    for i, (name, _, _, parent) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            root[i] = root[parent]
            in_train[i] = in_train[parent]
        in_train[i] = in_train[i] or name == "trainer.train_second_stage"
    for i in range(n - 1, -1, -1):  # children follow their parent: fold counts upward
        parent = spans[i][3]
        if parent >= 0:
            tensors[parent] += tensors[i]
            tensor_bytes[parent] += tensor_bytes[i]

    def select(name, phase=None, train_only=False):
        return [i for i in by_name.get(name, ())
                if (phase is None or spans[root[i]][0] == phase)
                and (not train_only or in_train[i])]

    def incl_ms(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx) / 1e6

    def self_ms(idx):
        return sum(own[i] for i in idx) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    main = f"bench.{w.stage}"
    unit_name = "diffcore.Tensor.backward" if w.stage == "train" else "trainer.embed"
    units = len(select(unit_name, main))
    steps = select("diffcore.Tensor.backward", train_only=True)
    embeds = select("trainer.embed")
    train_spans = select("trainer.train_second_stage")
    setups = len(select("bench.setup"))
    evaluates = select("trainer.evaluate")
    attn = [tracer.notes[i] for i in select("diffcore.masked_softmax", main)]
    gpools = select("chansel.gpool", main)
    priors = select("graphs.build_prior", main)
    agg = {axis: [i for name in ("stagg.gcn_agg", "stagg.sam_agg")
                  for i in select(f"{name}.{axis}", main)] for axis in ("temporal", "spatial")}

    return {
        "diffcore.backward_ms": (ratio(self_ms(select("diffcore.Tensor.backward", main)), units), "ms"),
        "diffcore.masked_softmax_ms": (ratio(self_ms(select("diffcore.masked_softmax", main)), units), "ms"),
        "diffcore.matmul_ms": (ratio(self_ms(select("diffcore.matmul", main)), units), "ms"),
        "diffcore.tensors_per_step": (ratio(sum(tensors[i] for i in train_spans), len(steps)), "count"),
        "diffcore.tensor_mb_per_step": (
            ratio(sum(tensor_bytes[i] for i in train_spans), len(steps)) / 1e6, "MB"),
        "diffcore.tensors_per_utt": (ratio(sum(tensors[i] for i in embeds), len(embeds)), "count"),
        "stagg.temporal_fwd_ms": (ratio(incl_ms(agg["temporal"]), units), "ms"),
        "stagg.spatial_fwd_ms": (ratio(incl_ms(agg["spatial"]), units), "ms"),
        "stagg.attn_useful_frac": (ratio(sum(a for a, _ in attn), sum(c for _, c in attn)), "frac"),
        "stagg.load_checkpoint_ms": (ratio(incl_ms(select("stagg.load_checkpoint")), setups), "ms"),
        "chansel.gpool_ms": (ratio(incl_ms(gpools), units), "ms"),
        "chansel.gpool_calls": (ratio(len(gpools), units), "count"),
        "chansel.gpool_tie_frac": (ratio(sum(tracer.notes[i] for i in gpools), len(gpools)), "frac"),
        "graphs.build_prior_calls": (ratio(len(priors), units), "count"),
        "graphs.build_prior_ms": (ratio(incl_ms(priors), units), "ms"),
        "graphs.prior_fallback_frac": (ratio(sum(tracer.notes[i] for i in priors), len(priors)), "frac"),
        "scenesim.sample_scene_ms": (ratio(incl_ms(select("scenesim.sample_scene")), setups), "ms"),
        "scenesim.synth_features_ms": (ratio(incl_ms(select("scenesim.synth_features")), setups), "ms"),
        "trainer.train_self_ms": (ratio(self_ms(select("trainer.train_second_stage", main)), units), "ms"),
        "trainer.cosine_score_ms": (ratio(incl_ms(select("trainer.cosine_score")), len(evaluates)), "ms"),
        "trainer.eer_from_scores_ms": (
            ratio(incl_ms(select("trainer.eer_from_scores")), len(evaluates)), "ms"),
        "trace_overhead_frac": (stats.median(obs.cycle_s) / stats.median(ref.cycle_s) - 1.0, "frac"),
    }


# The end-to-end metric and workload each layer metric should move.
PREDICTIONS = {
    "diffcore.backward_ms": "train_utts_per_s on train-paper",
    "diffcore.masked_softmax_ms": "train_utts_per_s on train-paper",
    "diffcore.matmul_ms": "train_utts_per_s on train-paper",
    "diffcore.tensors_per_step": "train_utts_per_s on train-small; peak_rss_mb on train-paper",
    "diffcore.tensor_mb_per_step": "peak_rss_mb and train_utts_per_s on train-paper",
    "diffcore.tensors_per_utt": "embed_ms_p50 on verify-ragged",
    "stagg.temporal_fwd_ms": "train_utts_per_s on train-paper; embed_ms_p50 on verify-ragged",
    "stagg.spatial_fwd_ms": "train_utts_per_s on train-paper; embed_ms_p50 on verify-ragged",
    "stagg.attn_useful_frac": "train_utts_per_s on train-paper only (exactly 1.0 on complete graphs)",
    "stagg.load_checkpoint_ms": "setup_s on verify-ragged",
    "chansel.gpool_ms": "train_utts_per_s on train-small; embed_ms_p50 on verify-ragged",
    "chansel.gpool_calls": "train_utts_per_s on train-small",
    "chansel.gpool_tie_frac": "eer on train-small and verify-ragged",
    "graphs.build_prior_calls": "train_utts_per_s on train-paper only",
    "graphs.build_prior_ms": "train_utts_per_s on train-paper only",
    "graphs.prior_fallback_frac": "eer on train-paper",
    "scenesim.sample_scene_ms": "setup_s",
    "scenesim.synth_features_ms": "setup_s",
    "trainer.train_self_ms": "train_utts_per_s on train-small",
    "trainer.cosine_score_ms": "verify_s on verify-ragged",
    "trainer.eer_from_scores_ms": "verify_s on verify-ragged",
    "trace_overhead_frac": "none: the cost of the traced run itself",
}

EXACT_LAYER_METRICS = (
    "diffcore.tensors_per_step", "diffcore.tensor_mb_per_step", "diffcore.tensors_per_utt",
    "stagg.attn_useful_frac", "chansel.gpool_calls", "chansel.gpool_tie_frac",
    "graphs.build_prior_calls", "graphs.prior_fallback_frac",
)


# -- environment and records --------------------------------------------


def blas_threads_in_use() -> int | None:
    """Thread count the bundled OpenBLAS reports, when it can be queried."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def code_fingerprint() -> str:
    """Hash of the library and benchmark sources, so records of other code are not compared."""
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/adhocsv/*.py"), *ROOT.glob("perfbench/*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeatable(path: Path, section: str, values: dict, ledger: Ledger) -> None:
    """Compare values with an earlier run of the same code and seed, then record them."""
    fingerprint = code_fingerprint()
    doc = json.loads(path.read_text()) if path.exists() else {}
    if doc.get("fingerprint") != fingerprint:
        doc = {"fingerprint": fingerprint}
    current = {k: float(v).hex() for k, v in values.items()}
    for key, old in doc.get(section, {}).items():
        if current.get(key) != old:
            ledger.record(1, 1, f"{key} differs from an earlier run at this seed")
    doc[section] = current
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write_spans(path: Path, tracer: Tracer) -> None:
    names = sorted(set(tracer.names))
    code = {name: i for i, name in enumerate(names)}
    doc = {
        "fields": ["name", "start_ns", "end_ns", "parent", "tensors", "tensor_bytes"],
        "names": names,
        "spans": [[code[name], start, end, parent, n, b] for (name, start, end, parent), n, b
                  in zip(tracer.spans(), tracer.tensors, tracer.tensor_bytes)],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))


# -- one run -------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        blas_threads: int) -> dict:
    """Run one workload and return the result object the command prints last."""
    w = WORKLOADS[workload]
    env = environment(blas_threads)
    print(f"perfbench {w.name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("environment: " + json.dumps(env, sort_keys=True))
    ledger = Ledger()
    obs = Observations()
    record = out_dir / "records" / f"{w.name}-seed{seed}.json"
    ckpt = out_dir / f"{w.name}-seed{seed}-{os.getpid()}.ckpt"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if not trace:
            e2e_phase(w, seed, ckpt, seconds, obs, ledger)
            metrics = e2e_metrics(obs, ledger)
            check_repeatable(record, "e2e", {"final_loss": obs.curve[-1], "eer": obs.eer}, ledger)
            print(f"samples: cycles={len(obs.cycle_s)} embeddings={len(obs.embed_s)}; "
                f"highest tail with >= {stats.MIN_BEYOND} embeddings beyond it: "
                f"p{stats.tail_percentile(len(obs.embed_s))}")
        else:
            ref = Observations()
            tracer = Tracer()
            traced_phase(w, seed, ckpt, seconds, obs, ref, ledger, tracer)
            metrics = layer_metrics(tracer, w, obs, ref)
            check_repeatable(record, "trace", {k: metrics[k][0] for k in EXACT_LAYER_METRICS}, ledger)
            write_spans(out_dir / "traces" / f"{w.name}-seed{seed}.json.gz", tracer)
            print(f"spans: {len(tracer.names)} written to {out_dir / 'traces'}")
    finally:
        ckpt.unlink(missing_ok=True)

    for name, (value, unit) in metrics.items():
        moves = f"  (moves {PREDICTIONS[name]})" if trace else ""
        print(f"{name} = {value!r} {unit}{moves}")
    for reason in ledger.reasons:
        print(f"FAILED: {reason}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
