"""Command-line entry point for reproducible experiments.

Subcommands: simulate (scenes + synthetic features), graph (the graphs a
configured model reads for one scene), train (second-stage training), eval
(verification report), report (aggregate eval reports).  Every command is
deterministic given (config, seed); outputs are written atomically.
``graph --config CONFIG --scene SCENE [--frames T]`` prints, for the model
of CONFIG and the array of SCENE, what :func:`trainer.channel_graph` gives
its stack: ``channels``, the indices of the channels it reads (the prior's,
or all of them: gpool picks after the stack, and ``eval --dump-selection``
shows its choice), and ``spatial``, the graph among them; ``temporal`` is
the frame graph over T frames, T at most 4096.  A graph the model does
not read (``model.n_blocks: 0``) or that was not asked for is null.

Config keys: a top-level ``seed`` and sections ``model``, ``train`` and
``eval`` whose keys are the fields, with the defaults, of ModelConfig,
TrainHyper and EvalSpec, but ``model.d`` is ``sim.d`` and ``model.seed``
the top-level seed (``train.channels`` subsamples training channels).
``model.mechanism`` is ``sam`` or ``gcn``; ``model.n_blocks: 0`` is the
MEAN baseline, which pools the features without a stack and may still
select channels; gpool keeps the ceil(C / 2) of an array's C channels
that it scores highest.
``model.selection.rho_noise`` is prior selection's noise threshold, and
null (the default) means no noise test.
``sim`` keys name SimConfig fields, except the pairs ``snr_db`` and
``room.{width,length,height}`` (its ``*_range`` fields), ``noise_source``
(``with_noise_source``) and ``n_train``/``n_test``/``shared_scene``.
Unknown keys are config errors.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure,
141 stdout closed before the output was written (a reader such as
``head`` quit early; 128 + SIGPIPE, the shell's code for a process that
signal ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .chansel import DegenerateProjectionError
from .diffcore import NonFiniteError, ShapeError
from .graphs import adjacency_to_json
from .scenesim import (
    SimConfig,
    load_scene,
    make_codebook,
    read_features,
    sample_scene,
    save_scene,
    synth_features,
    write_features,
)
from .stagg import build_graph
from .trainer import (
    DegenerateTaskError,
    MissingPriorError,
    ModelConfig,
    ProtocolError,
    TrainHyper,
    Utterance,
    channel_graph,
    config_from_json,
    config_value,
    embed_with_info,
    eval_per_node,
    evaluate,
    generate_trials,
    load_model,
    read_trials_csv,
    save_model,
    subsample_channels,
    train_second_stage,
    write_trials_csv,
)

__all__ = ["main", "ConfigError", "DataError", "ExperimentConfig", "load_experiment_config"]


class ConfigError(Exception):
    """Invalid or malformed experiment configuration."""


class DataError(Exception):
    """Missing or malformed data artifacts."""


def _check_budget(channels, where: str) -> None:
    if channels is not None and (type(channels) is not int or channels < 1):
        raise ConfigError(f"{where} must be a positive channel count, got {channels!r}")


@dataclass(frozen=True)
class EvalSpec:
    n_target: int = 100
    n_nontarget: int = 100
    channels: int | None = None  # subsample this many channels; None keeps all

    def __post_init__(self):
        _check_budget(self.channels, "config.eval.channels")
        for name in ("n_target", "n_nontarget"):
            if getattr(self, name) < 0:
                raise ConfigError(f"config.eval.{name} must be nonnegative, "
                                  f"got {getattr(self, name)}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    sim: SimConfig
    n_train: int
    n_test: int
    shared_scene: bool
    model: ModelConfig
    train: TrainHyper
    train_channels: int | None
    eval: EvalSpec = field(default_factory=EvalSpec)

    def __post_init__(self):
        _check_budget(self.train_channels, "config.train.channels")
        for name in ("n_train", "n_test"):
            if getattr(self, name) < 0:
                raise ConfigError(f"config.sim.{name} must be nonnegative, "
                                  f"got {getattr(self, name)}")


def _check_keys(doc, allowed: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _value(doc: dict, key: str, default, where: str):
    """``doc[key]`` (``default`` when absent) read with :func:`trainer.config_value`."""
    try:
        return config_value(doc.get(key, default), default, f"{where}.{key}")
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _pair(doc: dict, key: str, where: str) -> tuple[float, float]:
    value = doc[key]
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise ConfigError(f"{where}.{key} must be a [low, high] pair")
    pair = dict(zip(("low", "high"), value))
    return _value(pair, "low", 0.0, f"{where}.{key}"), _value(pair, "high", 0.0, f"{where}.{key}")


def _read(cls, doc, section: str):
    try:
        return config_from_json(cls, doc, f"config.{section}")
    except ValueError as err:
        raise ConfigError(f"invalid {section} section: {err}") from err


# JSON names of SimConfig fields; its other fields keep their names.
_SIM_NAMES = {"noise_source": "with_noise_source"}
_SIM_SCALARS = {"n_nodes", "t", "d", "n_speakers", "base_sigma", "noise_source"}


def load_experiment_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and strictly validate an experiment configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err

    _check_keys(doc, {"seed", "sim", "model", "train", "eval"}, "config")
    seed = _value(doc, "seed", 0, "config") if seed_override is None else int(seed_override)

    sim_doc = doc.get("sim", {})
    _check_keys(sim_doc, _SIM_SCALARS | {"snr_db", "room", "n_train", "n_test", "shared_scene"},
                "config.sim")
    room = sim_doc.get("room", {})
    _check_keys(room, {"width", "length", "height"}, "config.sim.room")
    sim_fields = {_SIM_NAMES.get(key, key): sim_doc[key] for key in _SIM_SCALARS & set(sim_doc)}
    if "snr_db" in sim_doc:
        sim_fields["snr_range_db"] = _pair(sim_doc, "snr_db", "config.sim")
    sim_fields.update({f"{key}_range": _pair(room, key, "config.sim.room") for key in room})
    sim = _read(SimConfig, sim_fields, "sim")

    model_doc = doc.get("model", {})
    _check_keys(model_doc, {f.name for f in fields(ModelConfig)} - {"d", "seed"}, "config.model")
    model = _read(ModelConfig, {**model_doc, "d": sim.d, "seed": seed}, "model")

    train_doc = doc.get("train", {})
    _check_keys(train_doc, {f.name for f in fields(TrainHyper)} | {"channels"}, "config.train")
    hyper = _read(TrainHyper, {k: v for k, v in train_doc.items() if k != "channels"}, "train")

    return ExperimentConfig(
        seed=seed,
        sim=sim,
        n_train=_value(sim_doc, "n_train", 64, "config.sim"),
        n_test=_value(sim_doc, "n_test", 32, "config.sim"),
        shared_scene=_value(sim_doc, "shared_scene", False, "config.sim"),
        model=model,
        train=hyper,
        train_channels=train_doc.get("channels"),
        eval=_read(EvalSpec, doc.get("eval", {}), "eval"),
    )


def _atomic_write(path: str, write) -> None:
    """Move the file ``write(tmp)`` creates beside ``path`` onto it, with a plain write's mode."""
    head, tail = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".tmp-{os.getpid()}-{tail}")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_bytes(path: str, data: bytes) -> None:
    def write(tmp):
        with open(tmp, "wb") as f:
            f.write(data)

    _atomic_write(path, write)


def _atomic_write_json(path: str, doc) -> None:
    _atomic_write_bytes(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8"))


# Output to stdout is flushed as it is printed, so a closed stdout fails
# inside main(), which then exits with this code (128 + SIGPIPE).
EXIT_CLOSED_STDOUT = 141


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, flush=True)


def _write_or_print(args, name: str, doc, message: str = "") -> int:
    """Print ``doc`` as JSON, or with ``--out`` write it there as ``name`` and say ``message``.

    The default message names the file written.
    """
    if args.out is None:
        print(json.dumps(doc, sort_keys=True, indent=2), flush=True)
        return 0
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    _atomic_write_json(path, doc)
    _say(args.quiet, message or f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    cfg = load_experiment_config(args.config, args.seed)
    out = args.out
    if out is None:
        raise ConfigError("simulate needs --out DIR")
    os.makedirs(os.path.join(out, "scenes"), exist_ok=True)
    os.makedirs(os.path.join(out, "features"), exist_ok=True)

    codebook = make_codebook(cfg.sim.n_speakers, cfg.sim.d, seed=[cfg.seed, 10])
    shared = sample_scene(np.random.default_rng([cfg.seed, 11]), cfg.sim) if cfg.shared_scene else None

    entries = []
    for split, count in (("train", cfg.n_train), ("test", cfg.n_test)):
        for i in range(count):
            utt_id = f"utt_{split}_{i:05d}"
            speaker = i % cfg.sim.n_speakers
            scene = shared if shared is not None else sample_scene(
                np.random.default_rng([cfg.seed, 11, 0 if split == "train" else 1, i]), cfg.sim)
            rng = np.random.default_rng([cfg.seed, 12, 0 if split == "train" else 1, i])
            features = synth_features(scene, speaker, codebook, rng, cfg.sim)
            scene_rel = os.path.join("scenes", f"{utt_id}.json")
            feat_rel = os.path.join("features", f"{utt_id}.adhc")
            _atomic_write(os.path.join(out, scene_rel), lambda tmp: save_scene(tmp, scene))
            _atomic_write(os.path.join(out, feat_rel), lambda tmp: write_features(tmp, features))
            entries.append({"id": utt_id, "speaker": speaker, "split": split,
                            "scene": scene_rel, "features": feat_rel})
    manifest = {"seed": cfg.seed, "n_speakers": cfg.sim.n_speakers, "d": cfg.sim.d,
                "t": cfg.sim.t, "n_nodes": cfg.sim.n_nodes, "utterances": entries}
    _atomic_write_json(os.path.join(out, "manifest.json"), manifest)
    _say(args.quiet, f"wrote {len(entries)} utterances to {out}")
    return 0


# ---------------------------------------------------------------------------
# dataset loading


def _load_dataset(data_dir: str, split: str, channels: int | None, seed: int) -> list[Utterance]:
    manifest_path = os.path.join(data_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError as err:
        raise DataError(f"no manifest at {manifest_path}") from err
    except json.JSONDecodeError as err:
        raise DataError(f"malformed manifest: {err}") from err

    entries = manifest.get("utterances") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise DataError(f"malformed manifest {manifest_path}: 'utterances' must be a list")
    utterances = []
    for i, entry in enumerate(entries):
        if (not isinstance(entry, dict) or not isinstance(entry.get("id"), str)
                or type(entry.get("speaker")) is not int):
            raise DataError(f"malformed manifest entry {i}: expected an object with a string "
                            f"'id' and an integer 'speaker', got {entry!r}")
        if entry.get("split") != split:
            continue
        try:
            features = read_features(os.path.join(data_dir, entry["features"]))
            scene = load_scene(os.path.join(data_dir, entry["scene"]))
        except (FileNotFoundError, ValueError, KeyError, TypeError) as err:
            raise DataError(f"cannot load utterance {entry['id']!r}: {err}") from err
        utt = Utterance(utt_id=entry["id"], speaker=entry["speaker"],
                        features=features, scene=scene)
        if channels is not None:
            if channels > features.c:
                raise DataError(f"cannot subsample {channels} of {features.c} channels")
            utt = subsample_channels(utt, channels, np.random.default_rng([seed, 13, i]))
        utterances.append(utt)
    if not utterances:
        raise DataError(f"no {split!r} utterances in {data_dir}")
    return utterances


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config, args.seed)
    if args.out is None:
        raise ConfigError("train needs --out DIR")
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "model.ckpt")
    loss_path = os.path.join(args.out, "loss.csv")

    if args.resume and os.path.exists(ckpt_path):
        try:
            trained = load_model(ckpt_path)
        except ValueError as err:
            raise DataError(f"cannot load checkpoint {ckpt_path}: {err}") from err
        if trained.cfg == cfg.model:
            _say(args.quiet, f"checkpoint {ckpt_path} already matches config; nothing to do")
            return 0
        raise DataError(f"existing checkpoint {ckpt_path} was trained with a different config")

    dataset = _load_dataset(args.data, "train", cfg.train_channels, cfg.seed)
    model, curve = train_second_stage(dataset, cfg.model, cfg.train)

    _atomic_write(ckpt_path, lambda tmp: save_model(tmp, model))
    lines = ["epoch,mean_loss"] + [f"{i},{loss!r}" for i, loss in enumerate(curve)]
    _atomic_write_bytes(loss_path, ("\n".join(lines) + "\n").encode("utf-8"))
    _say(args.quiet, f"trained {cfg.model.n_blocks} {cfg.model.mechanism} blocks for "
                     f"{cfg.train.epochs} epochs; final loss {curve[-1]:.4f}; wrote {ckpt_path}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    cfg = load_experiment_config(args.config, args.seed)
    if args.out is None:
        raise ConfigError("eval needs --out DIR")
    _check_budget(args.channels, "--channels")
    try:
        model = load_model(args.ckpt)
    except FileNotFoundError as err:
        raise DataError(f"checkpoint not found: {args.ckpt}") from err
    except ValueError as err:
        raise DataError(f"cannot load checkpoint: {err}") from err

    channels = args.channels if args.channels is not None else cfg.eval.channels
    utterances = _load_dataset(args.data, "test", channels, cfg.seed)
    by_id = {u.utt_id: u for u in utterances}

    if args.trials is not None:
        try:
            trials = read_trials_csv(args.trials)
        except (FileNotFoundError, ValueError) as err:
            raise DataError(f"cannot read trials: {err}") from err
    else:
        trials = generate_trials(utterances, cfg.eval.n_target, cfg.eval.n_nontarget,
                                 np.random.default_rng([cfg.seed, 14]))

    # Every result is computed before any file is written, so a failed run
    # leaves no output that looks finished.
    try:
        report = evaluate(model, by_id, trials)
    except KeyError as err:
        raise DataError(str(err)) from err
    selection = None
    if args.dump_selection:
        selection = [{"id": u.utt_id, **embed_with_info(model, u.features, u.scene)[1]}
                     for u in utterances]
    rows = eval_per_node(model, by_id, trials) if args.per_node else None

    os.makedirs(args.out, exist_ok=True)
    if args.trials is None:
        _atomic_write(os.path.join(args.out, "trials.csv"),
                      lambda tmp: write_trials_csv(tmp, trials))
    _atomic_write_json(os.path.join(args.out, "report.json"),
                       {"eer": report.eer, "threshold": report.threshold,
                        "n_trials": report.n_trials})
    if selection is not None:
        _atomic_write_json(os.path.join(args.out, "selection.json"), selection)
    if rows is not None:
        lines = ["node,x,y,z,distance,eer"]
        lines += [f"{r['node']},{r['x']!r},{r['y']!r},{r['z']!r},{r['distance']!r},{r['eer']!r}"
                  for r in rows]
        _atomic_write_bytes(os.path.join(args.out, "per_node.csv"),
                            ("\n".join(lines) + "\n").encode("utf-8"))

    _say(args.quiet, f"eer={report.eer:.4f} threshold={report.threshold:.4f} "
                     f"n_trials={report.n_trials}")
    return 0


# ---------------------------------------------------------------------------
# graph


# graph prints T rows of T characters (16 MiB at 4096), built as T * T bools.
MAX_GRAPH_FRAMES = 4096


def cmd_graph(args) -> int:
    cfg = load_experiment_config(args.config, args.seed).model
    if args.scene is None:
        raise ConfigError("graph needs --scene")
    if (args.frames or 0) > MAX_GRAPH_FRAMES:
        raise ConfigError(f"--frames {args.frames} is over graph's {MAX_GRAPH_FRAMES} frames")
    try:
        scene = load_scene(args.scene)
    except FileNotFoundError as err:
        raise DataError(f"scene not found: {args.scene}") from err
    except ValueError as err:
        raise DataError(f"malformed scene: {err}") from err
    channels, spatial = channel_graph(cfg, scene, scene.n_nodes)
    try:
        temporal = None if args.frames is None else build_graph(cfg.temporal_graph, args.frames)
    except ValueError as err:
        raise ConfigError(f"--frames: {err}") from err
    stack = cfg.n_blocks > 0
    doc = {"channels": channels.tolist(),
           "spatial": adjacency_to_json(spatial) if stack else None,
           "temporal": adjacency_to_json(temporal) if stack and temporal is not None else None}
    return _write_or_print(args, "graph.json", doc)


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            eer = config_value(doc["eer"], 0.0, "eer")
        except (FileNotFoundError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise DataError(f"cannot read report {path}: {err}") from err
        if not 0.0 <= eer <= 1.0:
            raise DataError(f"cannot read report {path}: eer={eer!r} must lie in [0, 1]")
        reports.append({"path": path, "eer": eer})
    eers = [r["eer"] for r in reports]
    summary = {
        "n_reports": len(reports),
        "mean_eer": float(np.mean(eers)),
        "min_eer": float(np.min(eers)),
        "max_eer": float(np.max(eers)),
        "reports": reports,
    }
    return _write_or_print(args, "summary.json", summary,
                           f"mean eer {summary['mean_eer']:.4f} over {len(reports)} reports")


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(prog="adhocsv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate scenes and features")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("graph", parents=[common],
                       help="print the channels and graphs a configured model reads for a scene")
    p.add_argument("--scene", help="scene JSON file")
    p.add_argument("--frames", type=int, default=None,
                   help="also print the temporal graph over this many frames")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("train", parents=[common], help="train the channel-fusion model")
    p.add_argument("--data", required=True, help="simulated dataset directory")
    p.add_argument("--resume", action="store_true",
                   help="reuse an existing checkpoint trained with the same config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="score trials and report the EER")
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--data", required=True, help="simulated dataset directory")
    p.add_argument("--trials", default=None, help="trials CSV (default: generate from config)")
    p.add_argument("--channels", type=int, default=None, help="subsample this many channels")
    p.add_argument("--per-node", action="store_true", help="write single-channel EER per node")
    p.add_argument("--dump-selection", action="store_true", help="write per-utterance selection")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[common], help="aggregate eval reports")
    p.add_argument("inputs", nargs="+", help="report JSON files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is None and args.command != "report":
            raise ConfigError(f"{args.command} needs --config")
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DataError, ProtocolError, DegenerateTaskError, MissingPriorError, ShapeError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except (NonFiniteError, DegenerateProjectionError, FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
