"""Command-line entry point for reproducible experiments.

Subcommands: simulate (scenes + synthetic features), graph (adjacency
construction from a scene), train (second-stage training), eval
(verification report), report (aggregate eval reports).  Every command is
deterministic given (config, seed); outputs are written atomically.
``graph --kind prior`` prints the prior's clique: the spatial mask of a
prior-selection model over a complete spatial graph.  A knn + prior model
uses knn AND that clique instead (as does a span + prior one with span).

Config keys: a top-level ``seed`` and sections ``model``, ``train`` and
``eval`` whose keys are the fields, with the defaults, of ModelConfig,
TrainHyper and EvalSpec (``model.d`` defaults to ``sim.d``, and
``train.channels`` subsamples training channels).  ``model.mechanism`` is
``sam`` or ``gcn``; ``model.n_blocks: 0`` is the MEAN baseline, which
pools the features without a stack and may still select channels.
``sim`` keys name SimConfig fields, except the pairs ``snr_db`` and
``room.{width,length,height}`` (its ``*_range`` fields), ``noise_source``
(``with_noise_source``) and ``n_train``/``n_test``/``shared_scene``.
Unknown keys are config errors.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from .chansel import ChannelBudgetError, DegenerateProjectionError
from .diffcore import NonFiniteError
from .graphs import adjacency_from_mask, adjacency_to_json, build_prior
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
from .stagg import GraphSpec, build_graph
from .trainer import (
    DegenerateTaskError,
    MissingPriorError,
    ModelConfig,
    ProtocolError,
    TrainHyper,
    TrialSet,
    Utterance,
    config_from_json,
    config_value,
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
    _check_keys(model_doc, {f.name for f in fields(ModelConfig)} - {"seed"}, "config.model")
    model = _read(ModelConfig, {"d": sim.d, **model_doc, "seed": seed}, "model")
    if model.d != sim.d:
        raise ConfigError(f"model.d={model.d} must equal sim.d={sim.d}")

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
    """Run ``write(tmp)`` on a new file beside ``path``, then move it onto ``path``."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
    os.close(fd)
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


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


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
    counters = {"train": 0, "test": 0}
    for split, count in (("train", cfg.n_train), ("test", cfg.n_test)):
        for i in range(count):
            utt_id = f"utt_{split}_{counters[split]:05d}"
            counters[split] += 1
            speaker = i % cfg.sim.n_speakers
            scene = shared if shared is not None else sample_scene(
                np.random.default_rng([cfg.seed, 11, 0 if split == "train" else 1, i]), cfg.sim)
            rng = np.random.default_rng([cfg.seed, 12, 0 if split == "train" else 1, i])
            features = synth_features(scene, speaker, codebook, rng, cfg.sim)
            scene_rel = os.path.join("scenes", f"{utt_id}.json")
            feat_rel = os.path.join("features", f"{utt_id}.adhc")
            save_scene(os.path.join(out, scene_rel), scene)
            write_features(os.path.join(out, feat_rel), features)
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

    utterances = []
    for i, entry in enumerate(manifest.get("utterances", [])):
        if entry.get("split") != split:
            continue
        try:
            features = read_features(os.path.join(data_dir, entry["features"]))
            scene = load_scene(os.path.join(data_dir, entry["scene"]))
        except (FileNotFoundError, ValueError, KeyError) as err:
            raise DataError(f"cannot load utterance {entry.get('id')!r}: {err}") from err
        utt = Utterance(utt_id=entry["id"], speaker=int(entry["speaker"]),
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
    os.makedirs(args.out, exist_ok=True)
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
        _atomic_write(os.path.join(args.out, "trials.csv"),
                      lambda tmp: write_trials_csv(tmp, trials))

    try:
        report = evaluate(model, by_id, trials)
    except KeyError as err:
        raise DataError(str(err)) from err

    _atomic_write_json(os.path.join(args.out, "report.json"),
                       {"eer": report.eer, "threshold": report.threshold,
                        "n_trials": report.n_trials})

    if args.dump_selection:
        from .trainer import embed_with_info

        selection = []
        for u in utterances:
            _, info = embed_with_info(model, u.features, u.scene)
            selection.append({"id": u.utt_id, **info})
        _atomic_write_json(os.path.join(args.out, "selection.json"), selection)

    if args.per_node:
        rows = eval_per_node(model, by_id, trials)
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


def cmd_graph(args) -> int:
    scene = None
    if args.scene is not None:
        try:
            scene = load_scene(args.scene)
        except FileNotFoundError as err:
            raise DataError(f"scene not found: {args.scene}") from err
        except (ValueError, KeyError) as err:
            raise DataError(f"malformed scene: {err}") from err

    mask_doc = None
    if args.kind == "prior":
        if scene is None:
            raise ConfigError("prior graph needs --scene")
        try:
            mask = build_prior(scene, args.rho, args.noise_rho)
        except MissingPriorError:
            raise  # a data error: the scene lacks the noise source
        except ValueError as err:
            raise ConfigError(str(err)) from err
        adjacency = adjacency_from_mask(mask)
        mask_doc = {"selected_indices": np.flatnonzero(mask).tolist(),
                    "bits": "".join("1" if x else "0" for x in mask),
                    "k": int(mask.sum())}
    else:
        if args.kind == "knn":
            if scene is None:
                raise ConfigError("knn graph needs --scene")
            n, positions = scene.n_nodes, scene.node_pos
        else:
            if args.n is None:
                raise ConfigError(f"{args.kind} graph needs --n (node or frame count)")
            n, positions = args.n, None
        try:
            adjacency = build_graph(GraphSpec(args.kind, args.delta, args.k), n, positions)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    doc = {"adjacency": adjacency_to_json(adjacency), "mask": mask_doc}
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _atomic_write_json(os.path.join(args.out, "graph.json"), doc)
        _say(args.quiet, f"wrote {os.path.join(args.out, 'graph.json')}")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            reports.append({"path": path, "eer": float(doc["eer"])})
        except (FileNotFoundError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise DataError(f"cannot read report {path}: {err}") from err
    eers = [r["eer"] for r in reports]
    summary = {
        "n_reports": len(reports),
        "mean_eer": float(np.mean(eers)),
        "min_eer": float(np.min(eers)),
        "max_eer": float(np.max(eers)),
        "reports": reports,
    }
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _atomic_write_json(os.path.join(args.out, "summary.json"), summary)
        _say(args.quiet, f"mean eer {summary['mean_eer']:.4f} over {len(reports)} reports")
    else:
        print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


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

    p = sub.add_parser("graph", parents=[common], help="build an adjacency from a scene")
    p.add_argument("--scene", help="scene JSON file")
    p.add_argument("--kind", choices=["complete", "span", "knn", "prior"], required=True,
                   help="graph family; prior prints the prior's clique, the spatial mask of a "
                        "prior model over a complete spatial graph (a knn + prior model uses "
                        "knn AND the clique instead)")
    p.add_argument("--n", type=int, help="node/frame count for complete and span")
    p.add_argument("--delta", type=int, default=1, help="span half-window")
    p.add_argument("--k", type=int, default=4, help="neighbor count for knn")
    p.add_argument("--rho", type=float, default=0.6, help="prior distance-ratio threshold")
    p.add_argument("--noise-rho", type=float, default=None,
                   help="also mask nodes with noise-distance ratio below this value")
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
        if getattr(args, "config", None) is None and args.command in ("simulate", "train", "eval"):
            raise ConfigError(f"{args.command} needs --config")
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (DataError, ProtocolError, DegenerateTaskError, MissingPriorError,
            ChannelBudgetError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except (NonFiniteError, DegenerateProjectionError, FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
