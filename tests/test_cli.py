"""End-to-end command behavior: artifacts, determinism, exit codes."""

import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from adhocsv import cli, trainer
from adhocsv.cli import ConfigError, EvalSpec, load_experiment_config, main
from adhocsv.graphs import adjacency_to_json, build_prior
from adhocsv.scenesim import (FrameTensor, Scene, SimConfig, read_features, sample_scene,
                              save_scene, write_features)
from adhocsv.stagg import load_checkpoint, save_checkpoint
from adhocsv.trainer import (Model, ModelConfig, SelectionConfig, TrainHyper, embed_with_info,
                             load_model, model_config_to_json, read_trials_csv, save_model)

TINY_CONFIG = {
    "seed": 7,
    "sim": {
        "n_speakers": 4,
        "n_train": 12,
        "n_test": 8,
        "n_nodes": 4,
        "t": 6,
        "d": 8,
        "snr_db": [0.0, 20.0],
        "noise_source": True,
    },
    "model": {
        "mechanism": "gcn",
        "n_blocks": 1,
        "heads": 2,
        "selection": {"kind": "none"},
    },
    "train": {"epochs": 2, "batch_size": 8, "lr": 0.01},
    "eval": {"n_target": 12, "n_nontarget": 12},
}


def checkpoint_bytes(manifest: dict, header_len: int | None = None, blobs: bytes = b"") -> bytes:
    header = json.dumps(manifest).encode("utf-8")
    length = len(header) if header_len is None else header_len
    return length.to_bytes(8, "little") + header + blobs


_CKPT = {"format": "adhocsv-checkpoint", "version": 2}

# Each is a file that eval and train --resume must refuse as a data error naming it.
CORRUPT_CHECKPOINTS = {
    "short": b"\x10\x00\x00",
    "huge_header": checkpoint_bytes(_CKPT | {"params": []}, header_len=10**12),
    "huge_param": checkpoint_bytes(_CKPT | {"params": [{"name": "w", "shape": [10**7, 10**6]}]},
                                   blobs=bytes(64)),
    "not_a_checkpoint": checkpoint_bytes({"format": "something-else", "params": []}),
    "bad_shape": checkpoint_bytes(_CKPT | {"params": [{"name": "w", "shape": [-1, 2]}]}),
    "no_config": checkpoint_bytes(_CKPT | {"params": []}),
    "n_speakers_null": checkpoint_bytes(_CKPT | {"params": [], "config": {}, "n_speakers": None}),
    "n_speakers_zero": checkpoint_bytes(_CKPT | {"params": [], "config": {}, "n_speakers": 0}),
    "version_1": checkpoint_bytes(_CKPT | {"version": 1, "params": [], "config": {},
                                           "n_speakers": 2}),
    "non_finite": checkpoint_bytes(_CKPT | {"params": [{"name": "w", "shape": [2]}], "config": {},
                                            "n_speakers": 2}, blobs=struct.pack("<2d", 0.5, math.nan)),
    "inf": checkpoint_bytes(_CKPT | {"params": [{"name": "w", "shape": [2]}], "config": {},
                                     "n_speakers": 2}, blobs=struct.pack("<2d", -math.inf, 0.5)),
}


# Each is a feature file that train and eval must refuse as a data error naming it.
CORRUPT_FEATURE_FILES = {
    "3_bytes": b"ADH",
    "19_bytes": b"ADHC" + bytes(15),
    "huge_dims": b"ADHC" + struct.pack("<IIII", 1, 100000, 100000, 1000) + bytes(16),
    "truncated": b"ADHC" + struct.pack("<IIII", 1, 4, 6, 8) + bytes(4 * 4 * 6 * 8 - 4),
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as f:
                out[os.path.relpath(full, root)] = f.read()
    return out


def line_scene_file(tmp_path, distances):
    speaker = np.array([1.0, 7.0, 2.0])
    nodes = np.array([speaker + [d, 0.0, 0.0] for d in distances])
    scene = Scene(room=(10.0, 14.0, 5.0), speaker_pos=speaker,
                  noise_pos=np.array([1.5, 7.0, 2.0]), node_pos=nodes, snr_db=10.0)
    path = tmp_path / "scene.json"
    save_scene(path, scene)
    return str(path)


class TestSimulate:
    def test_writes_expected_artifacts(self, tmp_path, config_path):
        out = tmp_path / "data"
        assert main(["simulate", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["utterances"]) == 20
        splits = [u["split"] for u in manifest["utterances"]]
        assert splits.count("train") == 12 and splits.count("test") == 8
        first = manifest["utterances"][0]
        ft = read_features(out / first["features"])
        assert (ft.c, ft.t, ft.d) == (4, 6, 8)
        assert (out / first["scene"]).exists()
        umask = os.umask(0)
        os.umask(umask)
        modes = {os.stat(out / name).st_mode & 0o777 for name in tree_bytes(out)}
        assert modes == {0o666 & ~umask}  # moved into place, but with a plain write's mode

    def test_default_node_count_is_forty(self, tmp_path):
        cfg = dict(TINY_CONFIG)
        cfg["sim"] = {k: v for k, v in TINY_CONFIG["sim"].items() if k != "n_nodes"}
        cfg["sim"]["n_train"], cfg["sim"]["n_test"] = 1, 1
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        ft = read_features(out / manifest["utterances"][0]["features"])
        assert ft.c == 40

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert main(["simulate", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_failed_feature_write_keeps_the_old_file(self, tmp_path, config_path, monkeypatch):
        # Scene and feature files are written beside their targets and moved into place.
        out = tmp_path / "data"
        args = ["simulate", "--config", config_path, "--out", str(out), "--quiet"]
        assert main(args) == 0
        before = tree_bytes(out)

        def half_written(path, features):
            with open(path, "wb") as f:
                f.write(b"ADHC")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_features", half_written)
        with pytest.raises(OSError, match="disk full"):
            main(args)
        after = tree_bytes(out)
        assert after == before
        assert not [name for name in after if ".tmp-" in name]

    def test_unknown_config_key_rejected_before_writing(self, tmp_path):
        bad = dict(TINY_CONFIG)
        bad["typo_section"] = {}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()

    def test_seed_flag_overrides(self, tmp_path, config_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["simulate", "--config", config_path, "--out", str(out1),
                     "--seed", "99", "--quiet"]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(out2), "--quiet"]) == 0
        assert tree_bytes(out1) != tree_bytes(out2)


class TestGraphSpecConfig:
    @pytest.mark.parametrize("section, spec", [
        ("temporal_graph", {"kind": "bogus"}),
        ("temporal_graph", {"kind": "span", "delta": -1}),
        ("spatial_graph", {"kind": "knn", "k": -1}),
        ("temporal_graph", {"kind": "knn"}),
        ("spatial_graph", {"kind": "span", "delta": 1}),
    ], ids=["unknown_kind", "negative_delta", "negative_k", "knn_over_frames", "span_over_channels"])
    def test_bad_graph_is_config_error_before_data_is_read(self, tmp_path, capsys, section,
                                                           spec):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"][section] = spec
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="invalid model section"):
            load_experiment_config(path)
        # The data directory does not exist: reading it first would be exit 3.
        assert main(["train", "--config", str(path), "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error:")


def edited_config(tmp_path, path, value):
    """TINY_CONFIG with the value at key path ``path`` replaced, written to a file."""
    cfg = json.loads(json.dumps(TINY_CONFIG))
    section = cfg
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    out = tmp_path / "config.json"
    out.write_text(json.dumps(cfg))
    return out


class TestConfigErrors:
    # Each edit must be a config error that names its key.
    @pytest.mark.parametrize("path, value, named", [
        (("train", "epochs"), 0, "epochs=0"),
        (("train", "batch_size"), 0, "batch_size=0"),
        (("train", "lr"), "fast", "config.train.lr"),
        (("train", "channels"), 0, "config.train.channels"),
        (("train", "channels"), "abc", "config.train.channels"),
        (("eval", "channels"), 0, "config.eval.channels"),
        (("eval", "channels"), "abc", "config.eval.channels"),
        (("model", "heads"), 0, "heads=0"),
        (("model", "n_blocks"), -1, "n_blocks=-1"),
        (("model", "mechanism"), "mean", "unknown mechanism 'mean'"),  # MEAN is n_blocks: 0
        (("seed",), "x", "config.seed"),
        (("model",), [1, 2], "config.model must be an object"),
        (("model", "selection"), "gpool", "config.model.selection must be an object"),
        (("model", "selection", "k"), 2.5, "gpool k must be a positive channel count, got 2.5"),
        (("sim", "room"), "big", "config.sim.room must be an object"),
        (("sim", "n_train"), "x", "config.sim.n_train"),
        # Keys of removed settings, the orientation prior and the noise switch
        # (t60_bool below is another).
        (("model", "selection", "orientation"), "false",
         "unknown keys in config.model.selection: ['orientation']"),
        (("model", "selection", "noise"), "no",
         "unknown keys in config.model.selection: ['noise']"),
        # Values that a plain bool() or int() would silently turn into others.
        (("sim", "noise_source"), "false", "noise_source"),
        (("sim", "shared_scene"), "false", "config.sim.shared_scene"),
        (("model", "heads"), 2.9, "config.model.heads"),
        (("model", "heads"), True, "config.model.heads"),
        (("seed",), 7.5, "config.seed"),
        (("sim", "n_train"), True, "config.sim.n_train"),
        (("sim", "n_test"), 2.9, "config.sim.n_test"),
        (("train", "lr"), True, "config.train.lr"),
        (("sim", "t60"), [True, 0.5], "unknown keys in config.sim: ['t60']"),  # removed
        (("model", "selection", "k"), True, "gpool k must be a positive channel count, got True"),
        (("train", "channels"), True, "config.train.channels"),
        (("train", "lr"), float("nan"), "config.train.lr"),
        (("sim", "snr_db"), [float("nan"), 5.0], "config.sim.snr_db.low"),
        (("seed",), -1, "seed must be nonnegative, got -1"),
        (("sim", "snr_db"), [True, 0.5], "config.sim.snr_db.low"),
        (("model", "selection"), {"kind": "prior", "rho_noise": 5.0},
         "config.model.selection: rho_noise must lie in (0, 1], got 5.0"),
        (("model", "selection", "rho_noise"), True, "rho_noise must lie in (0, 1], got True"),
        (("model", "selection", "rho_noise"), "0.2", "rho_noise must lie in (0, 1], got '0.2'"),
        (("model", "selection", "rho_noise"), 0, "rho_noise must lie in (0, 1], got 0"),
        (("model", "selection", "rho_noise"), 1.5, "rho_noise must lie in (0, 1], got 1.5"),
        (("train", "lr"), -0.01, "lr=-0.01 must be nonnegative"),
        (("train", "momentum"), 1.0, "momentum=1.0 must lie in [0, 1)"),
        (("train", "momentum"), -0.5, "momentum=-0.5 must lie in [0, 1)"),
    ], ids=["epochs_zero", "batch_size_zero", "lr_string", "train_channels_zero",
            "train_channels_string", "eval_channels_zero", "eval_channels_string", "heads_zero",
            "n_blocks_negative", "mechanism_mean", "seed_string", "model_list", "selection_string", "gpool_k_fraction",
            "room_string", "n_train_string", "orientation_string", "noise_string",
            "noise_source_string", "shared_scene_string", "heads_fraction", "heads_bool",
            "seed_fraction", "n_train_bool", "n_test_fraction", "lr_bool", "t60_bool",
            "gpool_k_bool", "train_channels_bool", "lr_nan", "snr_db_nan",
            "seed_negative", "snr_db_bool", "rho_noise_over_one", "rho_noise_bool",
            "rho_noise_string", "rho_noise_zero", "rho_noise_one_and_a_half", "lr_negative",
            "momentum_one", "momentum_negative"])
    def test_malformed_value_exits_2_before_data_is_read(self, tmp_path, capsys, path, value,
                                                          named):
        config = edited_config(tmp_path, path, value)
        # The data directory does not exist: reading it first would be exit 3.
        assert main(["train", "--config", str(config), "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    def test_numeric_strings_load_as_numbers(self, tmp_path):
        config = edited_config(tmp_path, ("model", "heads"), "2")
        doc = json.loads(config.read_text())
        doc["seed"], doc["sim"]["n_train"], doc["train"]["lr"] = "7", "12", "0.01"
        config.write_text(json.dumps(doc))
        cfg = load_experiment_config(config)
        assert (cfg.model.heads, cfg.seed, cfg.n_train, cfg.train.lr) == (2, 7, 12, 0.01)

    def test_negative_seed_flag_exits_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "data"
        assert main(["simulate", "--config", config_path, "--out", str(out), "--seed", "-1",
                     "--quiet"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err and not out.exists()

    def test_negative_utterance_counts_exit_2(self, tmp_path, capsys):
        config = edited_config(tmp_path, ("sim", "n_train"), -3)
        doc = json.loads(config.read_text())
        doc["sim"]["n_test"] = -2
        config.write_text(json.dumps(doc))
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        assert "config.sim.n_train must be nonnegative, got -3" in capsys.readouterr().err
        assert not out.exists()
        doc["sim"]["n_train"] = 3
        config.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="config.sim.n_test must be nonnegative, got -2"):
            load_experiment_config(config)

    def test_channels_flag_below_one_exits_2(self, tmp_path, config_path, capsys):
        assert main(["eval", "--config", config_path, "--ckpt", str(tmp_path / "absent.ckpt"),
                     "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "e"),
                     "--channels", "0", "--quiet"]) == 2
        assert "--channels" in capsys.readouterr().err

    # Keys outside the dataclass fields, the model seed (set by the top-level
    # seed) and settings the model no longer implements are all refused.
    @pytest.mark.parametrize("path", [
        ("sim", "typo"), ("sim", "room", "typo"), ("sim", "seed"), ("model", "typo"),
        ("model", "seed"), ("model", "warm_start"), ("model", "leaky_slope"),
        ("model", "selection", "pool_all"),
        ("model", "selection", "typo"), ("model", "temporal_graph", "typo"),
        ("train", "typo"), ("eval", "typo"),
    ], ids=lambda path: ".".join(path))
    def test_unknown_key_rejected(self, tmp_path, path):
        config = edited_config(tmp_path, path, False)
        with pytest.raises(ConfigError, match=f"unknown keys in config.{'.'.join(path[:-1])}"):
            load_experiment_config(config)

    def test_empty_sections_load_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sim": {}, "model": {}, "train": {}, "eval": {}}))
        cfg = load_experiment_config(path)
        assert (cfg.sim, cfg.model, cfg.train, cfg.eval) == (
            SimConfig(), ModelConfig(), TrainHyper(), EvalSpec())


@pytest.mark.filterwarnings("ignore:.*falling back to the nearest channel")
@pytest.mark.parametrize("model", [
    {"mechanism": "gcn", "n_blocks": 1, "heads": 2, "selection": {"kind": "gpool"}},
    {"mechanism": "sam", "n_blocks": 1, "heads": 2, "selection": {"kind": "prior"}},
    {"n_blocks": 0},
    {"n_blocks": 0, "selection": {"kind": "gpool"}},
], ids=["gcn_gpool", "sam_prior", "mean", "mean_gpool"])
@pytest.mark.parametrize("n_nodes, t", [(1, 6), (4, 1)], ids=["one_channel", "one_frame"])
def test_single_channel_or_frame_runs_end_to_end(tmp_path, capsys, model, n_nodes, t):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["sim"].update(n_nodes=n_nodes, t=t)
    cfg["model"] = model
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    data, run, out = (str(tmp_path / name) for name in ("data", "run", "eval"))
    common = ["--config", str(config), "--quiet"]
    assert main(["simulate", *common, "--out", data]) == 0
    assert main(["train", *common, "--data", data, "--out", run]) == 0
    assert main(["eval", *common, "--ckpt", os.path.join(run, "model.ckpt"), "--data", data,
                 "--out", out, "--per-node", "--dump-selection"]) == 0
    with open(os.path.join(out, "report.json"), encoding="utf-8") as f:
        assert 0.0 <= json.load(f)["eer"] <= 1.0
    with open(os.path.join(out, "per_node.csv"), encoding="utf-8") as f:
        assert len(f.read().strip().splitlines()) == 1 + n_nodes


# Nodes on a line through the speaker at (1, 7, 2), given as distances along +x.
DEGENERATE_SCENES = {
    # Every node sits on the speaker: all are near it, so all are kept.
    "all_nodes_on_speaker": ([0.0, 0.0, 0.0, 0.0], (8.0, 7.0, 2.0), 0.6, [0, 1, 2, 3]),
    # rho 0.8 keeps nodes 0-2; node 1 sits on the noise source and is dropped.
    "noise_on_a_node": ([1.0, 2.0, 3.0, 4.0], (3.0, 7.0, 2.0), 0.8, [0, 2]),
    # Distance ratios .75 .25 .5 1 all miss rho 0.2: the nearest node, 1, is kept.
    "prior_falls_back": ([3.0, 1.0, 2.0, 4.0], (8.0, 12.0, 4.0), 0.2, [1]),
}


@pytest.mark.parametrize("case", list(DEGENERATE_SCENES))
def test_degenerate_scene_selection_end_to_end(tmp_path, case):
    # train then eval --dump-selection with prior + noise selection, every
    # utterance recorded in the one hand-placed scene of the case.
    offsets, noise, rho, expected = DEGENERATE_SCENES[case]
    speaker = np.array([1.0, 7.0, 2.0])
    scene = Scene(room=(10.0, 14.0, 5.0), speaker_pos=speaker, noise_pos=np.array(noise),
                  node_pos=np.array([speaker + [d, 0.0, 0.0] for d in offsets]), snr_db=10.0)
    data = tmp_path / "data"
    os.makedirs(data / "features")
    save_scene(data / "scene.json", scene)
    rng = np.random.default_rng(50)
    entries = []
    for i, split in enumerate(["train"] * 8 + ["test"] * 4):
        write_features(data / "features" / f"u{i}.adhc",
                       FrameTensor(rng.standard_normal((len(offsets), 6, 8))))
        entries.append({"id": f"u{i}", "speaker": i % 2, "split": split,
                        "scene": "scene.json", "features": f"features/u{i}.adhc"})
    (data / "manifest.json").write_text(json.dumps({"utterances": entries}))
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["model"]["selection"] = {"kind": "prior", "rho": rho, "rho_noise": 0.2}
    cfg["eval"] = {"n_target": 4, "n_nontarget": 4}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    run, out = tmp_path / "run", tmp_path / "eval"
    steps = [["train", "--data", str(data), "--out", str(run)],
             ["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data), "--out", str(out),
              "--dump-selection"]]
    for step in steps:
        args = step + ["--config", str(config), "--quiet"]
        if case == "prior_falls_back":
            with pytest.warns(UserWarning, match="falling back to the nearest channel"):
                assert main(args) == 0
        else:
            assert main(args) == 0  # pytest turns a fallback warning into an error here
    selection = json.loads((out / "selection.json").read_text())
    assert [s["id"] for s in selection] == ["u8", "u9", "u10", "u11"]
    assert all(s["selected_indices"] == expected for s in selection)


class TestTrainEval:
    @pytest.fixture()
    def dataset(self, tmp_path, config_path):
        out = tmp_path / "data"
        main(["simulate", "--config", config_path, "--out", str(out), "--quiet"])
        return str(out)

    def test_train_writes_checkpoint_and_loss_curve(self, tmp_path, config_path, dataset):
        run = tmp_path / "run"
        assert main(["train", "--config", config_path, "--data", dataset,
                     "--out", str(run), "--quiet"]) == 0
        manifest, values = load_checkpoint(run / "model.ckpt")
        assert manifest["config"]["mechanism"] == "gcn"
        assert values
        lines = (run / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3  # header + 2 epochs

    def test_train_deterministic(self, tmp_path, config_path, dataset):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for run in (r1, r2):
            assert main(["train", "--config", config_path, "--data", dataset,
                         "--out", str(run), "--quiet"]) == 0
        assert (r1 / "model.ckpt").read_bytes() == (r2 / "model.ckpt").read_bytes()
        assert (r1 / "loss.csv").read_bytes() == (r2 / "loss.csv").read_bytes()

    def test_resume_reuses_matching_checkpoint(self, tmp_path, config_path, dataset):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        before = (run / "model.ckpt").read_bytes()
        assert main(["train", "--config", config_path, "--data", dataset,
                     "--out", str(run), "--resume", "--quiet"]) == 0
        assert (run / "model.ckpt").read_bytes() == before

    def test_mean_baseline_checkpoint_has_only_head(self, tmp_path, dataset):
        cfg = dict(TINY_CONFIG)
        cfg["model"] = {"n_blocks": 0}
        path = tmp_path / "mean.json"
        path.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        assert main(["train", "--config", str(path), "--data", dataset,
                     "--out", str(run), "--quiet"]) == 0
        _, values = load_checkpoint(run / "model.ckpt")
        assert sorted(values) == ["head.b", "head.w"]

    def test_eval_report_and_determinism(self, tmp_path, config_path, dataset):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        for out in (e1, e2):
            assert main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                         "--data", dataset, "--out", str(out), "--quiet"]) == 0
        report = json.loads((e1 / "report.json").read_text())
        assert set(report) == {"eer", "threshold", "n_trials"}
        assert report["n_trials"] == 24
        assert 0.0 <= report["eer"] <= 1.0
        assert tree_bytes(e1) == tree_bytes(e2)
        trials = read_trials_csv(e1 / "trials.csv")
        assert len(trials.trials) == 24

    def test_failed_trials_write_keeps_the_old_file(self, tmp_path, config_path, dataset,
                                                    monkeypatch):
        # trials.csv is written beside its target and moved into place, as report.json is.
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        args = ["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                "--data", dataset, "--out", str(out), "--quiet"]
        assert main(args) == 0
        before = tree_bytes(out)

        def half_written(path, trials):
            with open(path, "w", encoding="utf-8") as f:
                f.write("enroll_id,test_id,label\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_trials_csv", half_written)
        with pytest.raises(OSError, match="disk full"):
            main(args)
        assert tree_bytes(out) == before

    def test_eval_channel_subsampling(self, tmp_path, config_path, dataset):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        out = tmp_path / "eval"
        assert main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(out), "--channels", "2", "--quiet"]) == 0
        assert (out / "report.json").exists()
        too_many = main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                         "--data", dataset, "--out", str(tmp_path / "e3"),
                         "--channels", "9", "--quiet"])
        assert too_many == 3

    def test_gpool_budget_over_channel_count_is_data_error(self, tmp_path, dataset, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"]["selection"] = {"kind": "gpool", "k": 4}
        config = tmp_path / "gpool.json"
        config.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--data", dataset,
                     "--out", str(run), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(tmp_path / "e"), "--channels", "2",
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "k=4" in err and "C=2" in err and "Traceback" not in err
        cfg["model"]["selection"]["k"] = 9  # the scenes have 4 nodes
        config.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(config), "--data", dataset,
                     "--out", str(tmp_path / "run9"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "k=9" in err and "C=4" in err

    def test_knn_model_evaluates_fewer_channels_than_k(self, tmp_path, dataset, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"]["spatial_graph"] = {"kind": "knn", "k": 4}  # the scenes have 4 nodes
        config = tmp_path / "knn.json"
        config.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--data", dataset,
                     "--out", str(run), "--quiet"]) == 0
        out = tmp_path / "e"
        assert main(["eval", "--config", str(config), "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(out), "--channels", "3", "--per-node",
                     "--quiet"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "report.json").exists()
        assert len((out / "per_node.csv").read_text().splitlines()) == 4  # header + 3 nodes

    def test_eval_per_node_and_selection_dump(self, tmp_path, config_path, dataset):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        out = tmp_path / "eval"
        assert main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(out), "--per-node",
                     "--dump-selection", "--quiet"]) == 0
        lines = (out / "per_node.csv").read_text().strip().splitlines()
        assert lines[0] == "node,x,y,z,distance,eer"
        assert len(lines) == 1 + 4  # header + one row per node
        selection = json.loads((out / "selection.json").read_text())
        assert len(selection) == 8
        assert all(s["selection"] == "none" for s in selection)

    @pytest.mark.parametrize("per_node", [False, True], ids=["eval", "per_node"])
    def test_zero_embedding_is_data_error(self, tmp_path, config_path, dataset, capsys,
                                          per_node):
        # Zero features embed to zero, which has no cosine score.  With one
        # channel zeroed, whole arrays still embed, and only --per-node meets it.
        run, out = tmp_path / "run", tmp_path / "eval"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        with open(os.path.join(dataset, "manifest.json"), encoding="utf-8") as f:
            test_ids = {e["id"]: e for e in json.load(f)["utterances"] if e["split"] == "test"}
        for entry in test_ids.values():
            path = os.path.join(dataset, entry["features"])
            data = read_features(path).data.copy()
            data[0 if per_node else slice(None)] = 0.0
            write_features(path, FrameTensor(data))
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(out), "--quiet"]
                    + ["--per-node"] * per_node) == 3
        err = capsys.readouterr().err
        named = re.search(r"utterance '(\w+)' has a zero embedding", err)
        assert err.startswith("data error:") and named and named.group(1) in test_ids
        assert not (out / "report.json").exists()
        assert not (out / "per_node.csv").exists()
        # Only the per-node pass meets the zero channel, and it names the node.
        assert ("data error: node 0: utterance" in err) == per_node

    def test_eval_per_node_with_gpool_budget_above_one(self, tmp_path, dataset):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"]["selection"] = {"kind": "gpool", "k": 2}
        config = tmp_path / "gpool.json"
        config.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--data", dataset,
                     "--out", str(run), "--quiet"]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(config), "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(out), "--per-node", "--quiet"]) == 0
        lines = (out / "per_node.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + one row per node

    def test_malformed_trials_row_is_data_error(self, tmp_path, config_path, dataset, capsys):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        trials = tmp_path / "trials.csv"
        trials.write_text("enroll_id,test_id,label\na,b\n")
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(tmp_path / "eval"), "--trials", str(trials),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 2" in err

    def test_scene_that_misses_its_features_is_data_error(self, tmp_path, config_path, dataset,
                                                          capsys):
        # Training takes mixed channel counts, but not features cut to 2
        # channels beside their 4-node scene.
        with open(os.path.join(dataset, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        entry = next(e for e in manifest["utterances"] if e["split"] == "train")
        path = os.path.join(dataset, entry["features"])
        write_features(path, FrameTensor(read_features(path).data[:2]))
        assert main(["train", "--config", config_path, "--data", dataset,
                     "--out", str(tmp_path / "run"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "2 channels" in err and "4 nodes" in err

    def test_eval_feature_width_mismatch_is_data_error(self, tmp_path, config_path, dataset,
                                                       capsys):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        with open(os.path.join(dataset, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        for entry in manifest["utterances"]:
            path = os.path.join(dataset, entry["features"])
            write_features(path, FrameTensor(read_features(path).data[:, :, :6]))
        capsys.readouterr()
        assert main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(tmp_path / "e"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "(C, T, 8)" in err

    def test_eval_rejects_removed_setting(self, tmp_path, config_path, dataset, capsys):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        model = load_model(run / "model.ckpt")
        config = model_config_to_json(model.cfg)
        config["selection"]["pool_all"] = True
        save_checkpoint(run / "model.ckpt", model.params,
                        meta={"config": config, "n_speakers": model.n_speakers})
        assert main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(tmp_path / "e"), "--quiet"]) == 3
        assert "pool_all" in capsys.readouterr().err

    def test_resume_ignores_settings_a_mean_model_never_reads(self, tmp_path, dataset):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["model"] = {"n_blocks": 0}
        config = tmp_path / "mean.json"
        config.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        assert main(["train", "--config", str(config), "--data", dataset,
                     "--out", str(run), "--quiet"]) == 0
        before = (run / "model.ckpt").read_bytes()
        cfg["model"] = {"n_blocks": 0, "mechanism": "sam", "heads": 2,
                        "selection": {"kind": "none", "rho": 0.3},
                        "spatial_graph": {"kind": "complete", "delta": 3}}
        config.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(config), "--data", dataset,
                     "--out", str(run), "--resume", "--quiet"]) == 0
        assert (run / "model.ckpt").read_bytes() == before

    def test_resume_rejects_parameters_that_miss_their_config(self, tmp_path, config_path,
                                                             dataset, capsys):
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        model = load_model(run / "model.ckpt")
        config = model_config_to_json(model.cfg) | {"n_blocks": 2}
        save_checkpoint(run / "model.ckpt", model.params,
                        meta={"config": config, "n_speakers": model.n_speakers})
        capsys.readouterr()
        assert main(["train", "--config", config_path, "--data", dataset,
                     "--out", str(run), "--resume", "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "model.ckpt" in err and "block1" in err

    def test_non_finite_parameter_is_data_error_naming_it(self, tmp_path, config_path, dataset,
                                                          capsys):
        # With its config matching, such a file used to resume as "nothing to
        # do", and eval failed at the first embedding without naming the file.
        run = tmp_path / "run"
        main(["train", "--config", config_path, "--data", dataset, "--out", str(run), "--quiet"])
        model = load_model(run / "model.ckpt")
        model.params["head.w"].data[1, 0] = np.nan
        save_model(run / "model.ckpt", model)
        capsys.readouterr()
        assert main(["train", "--config", config_path, "--data", dataset,
                     "--out", str(run), "--resume", "--quiet"]) == 3
        assert main(["eval", "--config", config_path, "--ckpt", str(run / "model.ckpt"),
                     "--data", dataset, "--out", str(tmp_path / "e"), "--quiet"]) == 3
        errors = capsys.readouterr().err.strip().splitlines()
        assert len(errors) == 2
        for err in errors:
            assert err.startswith("data error:") and "model.ckpt" in err and "'head.w'" in err
        assert not (tmp_path / "e").exists()

    def test_update_that_overflows_exits_4_and_writes_nothing(self, tmp_path, capsys):
        # Features of order 100 (SNR -40 dB) give head.w a gradient over 1.8,
        # so lr * v overflows in the one step of the one epoch.
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["sim"].update({"n_train": 8, "snr_db": [-40.0, -40.0]})
        cfg["model"] = {"n_blocks": 0}
        cfg["train"] = {"epochs": 1, "batch_size": 8, "lr": 1e308}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        data, run = str(tmp_path / "data"), tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", data, "--quiet"]) == 0
        assert main(["train", "--config", str(config), "--data", data,
                     "--out", str(run), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: training diverged at epoch 0, step 0:")
        assert "'head.w'" in err
        assert not (run / "model.ckpt").exists() and not (run / "loss.csv").exists()

    @pytest.mark.filterwarnings("error")  # the missing source is reported before any fallback
    def test_noise_prior_without_noise_source_is_data_error(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["sim"]["noise_source"] = False
        cfg["model"]["selection"] = {"kind": "prior", "rho_noise": 0.2}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        data = str(tmp_path / "data")
        assert main(["simulate", "--config", str(config), "--out", data, "--quiet"]) == 0
        assert main(["train", "--config", str(config), "--data", data,
                     "--out", str(tmp_path / "run"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "noise source" in err

    @pytest.mark.parametrize("edit, named", [
        (lambda config: [config], "config must be an object"),
        (lambda config: config | {"selection": "gpool"}, "config.selection must be an object"),
        (lambda config: config | {"typo": 1}, "unknown keys in config: ['typo']"),
        # Spatial span makes embeddings depend on channel order, so no model
        # may carry it, one saved before it was refused included.
        (lambda config: config | {"spatial_graph": {"kind": "span", "delta": 1, "k": 4}},
         "spatial graph cannot be span"),
    ], ids=["config_list", "selection_string", "unknown_key", "spatial_span"])
    def test_malformed_checkpoint_config_is_data_error(self, tmp_path, config_path, capsys, edit,
                                                       named):
        model = Model.init(ModelConfig(n_blocks=1, heads=2, d=8), n_speakers=4)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, model.params,
                        meta={"config": edit(model_config_to_json(model.cfg)), "n_speakers": 4})
        # The checkpoint is read before the (absent) data directory.
        assert main(["eval", "--config", config_path, "--ckpt", str(path),
                     "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "e"),
                     "--quiet"]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("blob", sorted(CORRUPT_CHECKPOINTS))
    def test_corrupt_checkpoint_is_data_error(self, tmp_path, config_path, dataset, capsys,
                                              blob):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(CORRUPT_CHECKPOINTS[blob])
        assert main(["eval", "--config", config_path, "--ckpt", str(path),
                     "--data", dataset, "--out", str(tmp_path / "e"), "--quiet"]) == 3
        assert "bad.ckpt" in capsys.readouterr().err
        run = tmp_path / "run"
        run.mkdir()
        path.replace(run / "model.ckpt")
        assert main(["train", "--config", config_path, "--data", dataset,
                     "--out", str(run), "--resume", "--quiet"]) == 3
        assert "model.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", sorted(CORRUPT_FEATURE_FILES))
    def test_corrupt_feature_file_is_data_error(self, tmp_path, config_path, dataset, capsys,
                                                blob):
        with open(os.path.join(dataset, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        run = tmp_path / "run"
        assert main(["train", "--config", config_path, "--data", dataset,
                     "--out", str(run), "--quiet"]) == 0
        for split, command in (("test", ["eval", "--ckpt", str(run / "model.ckpt")]),
                               ("train", ["train"])):
            entry = next(e for e in manifest["utterances"] if e["split"] == split)
            path = os.path.join(dataset, entry["features"])
            with open(path, "wb") as f:
                f.write(CORRUPT_FEATURE_FILES[blob])
            capsys.readouterr()
            assert main(command + ["--config", config_path, "--data", dataset,
                                   "--out", str(tmp_path / split), "--quiet"]) == 3
            assert os.path.basename(path) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["entry_without_speaker", "string_entry", "manifest_list",
                                      "features_null"])
    def test_malformed_manifest_is_data_error(self, tmp_path, config_path, dataset, capsys, case):
        path = os.path.join(dataset, "manifest.json")
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
        first = manifest["utterances"][0]
        if case == "entry_without_speaker":
            del first["speaker"]
        elif case == "string_entry":
            manifest["utterances"][0] = first["id"]
        elif case == "features_null":
            first["features"] = None
        else:
            manifest = manifest["utterances"]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f)
        assert main(["train", "--config", config_path, "--data", dataset,
                     "--out", str(tmp_path / "run"), "--quiet"]) == 3
        err = capsys.readouterr().err
        named = {"manifest_list": "malformed manifest", "features_null": "cannot load utterance"}
        assert err.startswith("data error: " + named.get(case, "malformed manifest entry 0"))

    @pytest.mark.parametrize("command", ["train", "graph"])
    def test_scene_that_is_a_list_is_data_error(self, tmp_path, config_path, dataset, capsys,
                                                command):
        with open(os.path.join(dataset, "manifest.json"), encoding="utf-8") as f:
            entry = json.load(f)["utterances"][0]
        scene = os.path.join(dataset, entry["scene"])
        with open(scene, "w", encoding="utf-8") as f:
            json.dump([[1.0, 2.0, 1.0]], f)
        args = {"train": ["train", "--config", config_path, "--data", dataset,
                          "--out", str(tmp_path / "run"), "--quiet"],
                "graph": ["graph", "--config", config_path, "--scene", scene]}[command]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "scene must be a JSON object" in err

    def test_eval_missing_checkpoint(self, tmp_path, config_path, dataset):
        assert main(["eval", "--config", config_path, "--ckpt", str(tmp_path / "nope.ckpt"),
                     "--data", dataset, "--out", str(tmp_path / "e"), "--quiet"]) == 3

    def test_train_missing_data(self, tmp_path, config_path):
        assert main(["train", "--config", config_path, "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "run"), "--quiet"]) == 3


def graph_config(tmp_path, **model):
    """TINY_CONFIG with the given ``model`` keys replaced, written to a file."""
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["model"].update(model)
    path = tmp_path / "graph_config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_graph(capsys, config, scene, *extra):
    """The JSON that ``graph`` prints for ``config`` and the scene file ``scene``."""
    assert main(["graph", "--config", config, "--scene", scene, *extra]) == 0
    return json.loads(capsys.readouterr().out)


def complete_json(n):
    return adjacency_to_json(np.ones((n, n), dtype=bool))


class TestGraphCommand:
    def test_complete_graph_json(self, tmp_path, capsys):
        scene = line_scene_file(tmp_path, [1.0, 2.0, 3.0])
        doc = run_graph(capsys, graph_config(tmp_path), scene, "--frames", "2")
        assert doc == {"channels": [0, 1, 2], "spatial": {"n": 3, "rows": ["111"] * 3},
                       "temporal": {"n": 2, "rows": ["11", "11"]}}

    def test_span_graph(self, tmp_path, capsys):
        config = graph_config(tmp_path, temporal_graph={"kind": "span", "delta": 0})
        scene = line_scene_file(tmp_path, [1.0, 2.0])
        doc = run_graph(capsys, config, scene, "--frames", "4")
        assert doc["temporal"]["rows"] == ["1000", "0100", "0010", "0001"]
        assert run_graph(capsys, config, scene)["temporal"] is None  # no --frames

    def test_prior_forced_mask(self, tmp_path, capsys):
        scene = line_scene_file(tmp_path, [1.0, 2.0, 3.0, 4.0])
        config = graph_config(tmp_path, selection={"kind": "prior", "rho": 0.6})
        assert run_graph(capsys, config, scene) == {"channels": [0, 1], "spatial": complete_json(2),
                                                    "temporal": None}

    def test_prior_with_noise_composes(self, tmp_path, capsys):
        # Noise sits on node 0 (distance 0.5 from speaker along +x), so the
        # noise mask must drop it from the prior's selection.
        speaker = np.array([1.0, 7.0, 2.0])
        nodes = np.array([speaker + [0.5, 0.0, 0.0], speaker + [1.0, 0.0, 0.0],
                          speaker + [2.0, 0.0, 0.0], speaker + [6.0, 0.0, 0.0]])
        scene = Scene(room=(10.0, 14.0, 5.0), speaker_pos=speaker,
                      noise_pos=nodes[0].copy(), node_pos=nodes, snr_db=10.0)
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        config = graph_config(tmp_path, selection={"kind": "prior", "rho": 0.6, "rho_noise": 0.2})
        doc = run_graph(capsys, config, str(path))
        mask = build_prior(scene, 0.6, 0.2)
        assert doc["channels"] == np.flatnonzero(mask).tolist()
        assert 0 not in doc["channels"]
        assert doc["spatial"] == complete_json(int(mask.sum()))

    def test_prior_mask_matches_embed_selection(self, tmp_path, capsys):
        sampled = sample_scene(np.random.default_rng(7), SimConfig(n_nodes=10, d=8, t=3))
        # The noise source sits on the node nearest the speaker, which the
        # prior keeps, so the noise mask narrows the selection.
        nearest = np.argmin(np.linalg.norm(sampled.node_pos - sampled.speaker_pos, axis=1))
        scene = dataclasses.replace(sampled, noise_pos=sampled.node_pos[nearest])
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        config = graph_config(tmp_path, selection={"kind": "prior", "rho": 0.7, "rho_noise": 0.3})
        selected = run_graph(capsys, config, str(path))["channels"]
        cfg = ModelConfig(mechanism="gcn", n_blocks=1, heads=2, d=8, selection=SelectionConfig(
            kind="prior", rho=0.7, rho_noise=0.3))
        x = FrameTensor(np.random.default_rng(8).standard_normal((10, 3, 8)))
        _, info = embed_with_info(Model.init(cfg, n_speakers=2), x, scene)
        assert info["selected_indices"] == selected
        assert selected != np.flatnonzero(build_prior(scene, 0.7)).tolist()

    def test_knn_graph(self, tmp_path, capsys):
        scene = line_scene_file(tmp_path, [1.0, 2.0, 3.0, 4.0])
        config = graph_config(tmp_path, spatial_graph={"kind": "knn", "k": 1})
        assert run_graph(capsys, config, scene)["spatial"]["rows"][0] == "1100"

    def test_graph_writes_file_with_out(self, tmp_path, capsys):
        out = tmp_path / "g"
        scene = line_scene_file(tmp_path, [1.0, 2.0])
        assert main(["graph", "--config", graph_config(tmp_path), "--scene", scene,
                     "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads((out / "graph.json").read_text())
        assert doc == {"channels": [0, 1], "spatial": complete_json(2), "temporal": None}

    def test_missing_scene_is_config_error(self, tmp_path, capsys):
        config = graph_config(tmp_path, selection={"kind": "prior", "rho": 0.5})
        for args in (["--config", config], ["--scene", line_scene_file(tmp_path, [1.0])]):
            assert main(["graph", *args]) == 2
            assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.filterwarnings("error")  # the missing source is reported before any fallback
    def test_noise_prior_without_noise_source_is_data_error(self, tmp_path, capsys):
        scene = sample_scene(np.random.default_rng(3), SimConfig(n_nodes=4,
                                                                 with_noise_source=False))
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        # rho 0.05 keeps no channel by the speaker distances alone.
        for rho in (0.6, 0.05):
            config = graph_config(tmp_path, selection={"kind": "prior", "rho": rho,
                                                       "rho_noise": 0.2})
            assert main(["graph", "--config", config, "--scene", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "noise source" in err

    @pytest.mark.parametrize("model, args, code", [
        ({"temporal_graph": {"kind": "span", "delta": -1}}, [], 2),
        ({}, ["--frames", "0"], 2),
        # knn links each node to its min(k, n - 1) nearest: one node keeps its self-loop.
        ({"spatial_graph": {"kind": "knn", "k": 5}}, [], 0),
    ], ids=["negative_delta", "no_nodes", "k_over_node_count"])
    def test_out_of_range_argument_is_config_error(self, tmp_path, capsys, model, args, code):
        assert main(["graph", "--config", graph_config(tmp_path, **model),
                     "--scene", line_scene_file(tmp_path, [1.0]), *args]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("config error:")
        else:
            assert json.loads(captured.out)["spatial"] == {"n": 1, "rows": ["1"]}

    # Every selection kind on complete and knn spatial graphs, for each
    # mechanism and for MEAN: graph prints exactly the channels whose frames
    # the stack reads, and the graphs it reads them with.
    @pytest.mark.parametrize("selection", ["none", "prior", "gpool"])
    @pytest.mark.parametrize("mechanism, spatial", [
        ("gcn", "complete"), ("gcn", "knn"), ("sam", "complete"), ("sam", "knn"),
        ("mean", "complete")])
    def test_graph_prints_what_the_stack_reads(self, tmp_path, capsys, monkeypatch, mechanism,
                                               spatial, selection):
        scene = sample_scene(np.random.default_rng(9), SimConfig(n_nodes=8, d=8))
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        stack = ({"n_blocks": 0} if mechanism == "mean"
                 else {"mechanism": mechanism, "n_blocks": 2})
        config = graph_config(tmp_path, **stack, spatial_graph={"kind": spatial, "k": 2},
                              temporal_graph={"kind": "span", "delta": 1},
                              selection={"kind": selection, "rho": 0.7})
        doc = run_graph(capsys, config, str(path), "--frames", "5")
        seen, stack_fn = [], trainer.st_stack

        def spy(x, blocks, a_temporal, a_spatial):
            seen.append((x.data, a_temporal, a_spatial))
            return stack_fn(x, blocks, a_temporal, a_spatial)

        monkeypatch.setattr(trainer, "st_stack", spy)
        x = np.random.default_rng(10).standard_normal((8, 5, 8))
        model = Model.init(load_experiment_config(config).model, n_speakers=2)
        _, info = embed_with_info(model, x, scene)
        channels = doc["channels"]
        assert channels == (info["selected_indices"] if selection == "prior" else list(range(8)))
        if selection == "prior":
            assert len(channels) < 8
        if mechanism == "mean":
            assert seen == [] and doc["spatial"] is None and doc["temporal"] is None
            return
        ((stack_x, a_temporal, a_spatial),) = seen
        assert stack_x[0].tobytes() == x[channels].tobytes()
        assert doc["spatial"] == adjacency_to_json(a_spatial[0])
        assert doc["temporal"] == adjacency_to_json(a_temporal[0, 0])
        assert (spatial == "knn") == (doc["spatial"] != complete_json(len(channels)))


class TestReportCommand:
    def test_aggregates(self, tmp_path, capsys):
        for i, eer in enumerate([0.1, 0.2, 0.3]):
            (tmp_path / f"r{i}.json").write_text(json.dumps(
                {"eer": eer, "threshold": 0.5, "n_trials": 10}))
        inputs = [str(tmp_path / f"r{i}.json") for i in range(3)]
        assert main(["report", *inputs]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_reports"] == 3
        assert abs(doc["mean_eer"] - 0.2) < 1e-12
        assert doc["min_eer"] == 0.1 and doc["max_eer"] == 0.3

    def test_missing_report_is_data_error(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.json"), "--quiet"]) == 3

    def test_eer_bounds_are_inclusive(self, tmp_path, capsys):
        for i, eer in enumerate([0.0, 1.0, "0.5"]):
            (tmp_path / f"r{i}.json").write_text(json.dumps({"eer": eer}))
        assert main(["report", *(str(tmp_path / f"r{i}.json") for i in range(3))]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["min_eer"], doc["max_eer"], doc["mean_eer"]) == (0.0, 1.0, 0.5)

    @pytest.mark.parametrize("text", ['{"eer": "nan"}', '{"eer": NaN}', '{"eer": 1e999}',
                                      '{"eer": true}', '{"eer": -0.1}', '{"eer": 1.5}',
                                      '{"eer": null}', '{"eer": "low"}', '[0.1]'],
                             ids=["nan_string", "nan", "infinity", "bool", "negative",
                                  "over_one", "null", "word", "not_an_object"])
    def test_malformed_eer_is_data_error(self, tmp_path, capsys, text):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"eer": 0.2}))
        bad.write_text(text)
        out = tmp_path / "summary"
        assert main(["report", str(good), str(bad), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read report {bad}")
        assert not out.exists()


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write fails as one to a closed pipe does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def printing_commands(tmp_path):
    """The commands that print JSON without ``--out``: graph and report."""
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"eer": 0.25}))
    scene = line_scene_file(tmp_path, [1.0, 2.0, 3.0])
    return {"graph": ["graph", "--config", graph_config(tmp_path), "--scene", scene],
            "report": ["report", str(report)]}


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["graph", "report"])
    def test_exits_141_without_a_traceback(self, tmp_path, capsys, monkeypatch, command):
        args = printing_commands(tmp_path)[command]
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        assert main(args) == cli.EXIT_CLOSED_STDOUT == 141
        assert capsys.readouterr().err == ""

    def test_a_pipe_closed_before_the_output_exits_141(self, tmp_path):
        # A whole process, so that its exit, which flushes stdout again, is checked too.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "adhocsv.cli",
                                     *printing_commands(tmp_path)["report"]],
                                    stdout=write_end, stderr=subprocess.PIPE, text=True,
                                    env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, "")


def test_missing_config_is_config_error(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "d"), "--quiet"]) == 2
    assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "d"), "--quiet"]) == 2
