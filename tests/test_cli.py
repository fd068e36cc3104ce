import collections
import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from dmil import MALLOC_THRESHOLDS_SET, blas, runner
from dmil.autodiff import ContractError, NumericError
from dmil.checkpoint import CheckpointSchemaError, load_checkpoint, save_checkpoint
from dmil.cli import COMMANDS, main
from dmil.config import DEFAULT_CONFIG, METHODS, ConfigError, load_config, resolve_config
from dmil.policies import init_hierarchical
from dmil.runner import init_model
from dmil.tasks import (
    MIN_HORIZON,
    MIN_QUERY,
    MIN_SUPPORT,
    DatasetFormatError,
    load_datasets,
    make_dataset,
    sample_task,
    save_datasets,
)

TINY = {
    "data": {
        "n_train_tasks": 3,
        "n_test_tasks": 2,
        "n_support": 6,
        "n_query": 2,
        "horizon": 24,
    },
    "model": {"hidden": [8, 8]},
    "dmil": {
        "batch_size": 1,
        "tasks_per_step": 2,
        "inner_rate": 1e-3,
        "outer_rate": 1e-3,
        "inner_steps": 2,
    },
    "eval": {"shots": [1], "episodes": 2, "adapt_rate": 1e-3, "adapt_steps": 2},
    "run": {"iterations": 3, "checkpoint_every": 2},
}


def write_tiny(tmp_path, **overrides) -> Path:
    cfg = json.loads(json.dumps(TINY))
    for section, vals in overrides.items():
        cfg.setdefault(section, {}).update(vals)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_unknown_key_lists_valid_keys(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dmil": {"iner_rate": 0.1}}))
    with pytest.raises(ConfigError, match="iner_rate") as exc:
        load_config(path)
    assert "inner_rate" in str(exc.value)  # valid keys are listed


def test_config_unknown_method_rejected() -> None:
    want = "config key 'dmil.method' must be one of dmil, dmil_high, dmil_low, maml, em_only, got 'ppo'"
    with pytest.raises(ConfigError, match=re.escape(want)):
        resolve_config({"dmil": {"method": "ppo"}})


@pytest.mark.parametrize("name", ["Adam", "adamw", ""])
def test_config_unknown_outer_optimizer_rejected(tmp_path, name) -> None:
    want = f"config key 'dmil.outer_optimizer' must be one of sgd, adam, got {name!r}"
    with pytest.raises(ConfigError, match=re.escape(want)):
        resolve_config({"dmil": {"outer_optimizer": name}})
    cfg = write_tiny(tmp_path, dmil={"outer_optimizer": name})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["polar", "Raw", ""])
def test_config_unknown_features_rejected(tmp_path, caplog, name) -> None:
    # Rejected with the config, not by the first feature map after the run
    # directory exists.
    want = f"config key 'model.features' must be one of raw, relative, got {name!r}"
    with pytest.raises(ConfigError, match=re.escape(want)):
        resolve_config({"model": {"features": name}})
    cfg = write_tiny(tmp_path, model={"features": name})
    caplog.clear()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert one_line_error(caplog, "config error") == f"config error: {want}"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section, key, value, want",
    [
        ("dmil", "inner_steps", "3", "int, got str"),
        ("run", "iterations", True, "int, got bool"),
        ("run", "iterations", 3.0, "int, got float"),
        ("dmil", "outer_rate", False, "float, got bool"),
        ("dmil", "outer_rate", "1e-3", "float, got str"),
        ("model", "hidden", 64, "list, got int"),
        ("dmil", "method", None, "str, got NoneType"),
        ("eval", "shots", {"1": 1}, "list, got dict"),
    ],
)
def test_config_value_type_rejected(tmp_path, section, key, value, want) -> None:
    with pytest.raises(ConfigError, match=f"config key '{section}.{key}' must be {want}") as exc:
        resolve_config({section: {key: value}})
    assert "\n" not in str(exc.value)
    cfg = write_tiny(tmp_path, **{section: {key: value}})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


def test_config_value_type_accepts_int_for_float_and_any_for_none() -> None:
    cfg = resolve_config({"dmil": {"outer_rate": 1}, "data": {"train_path": None, "test_path": None}})
    assert cfg["dmil"]["outer_rate"] == 1 and cfg["data"]["train_path"] is None
    with pytest.raises(ConfigError, match="'data' must be a section"):
        resolve_config({"data": None})


def test_train_zero_iterations_initial_checkpoint_only(tmp_path) -> None:
    cfg = write_tiny(tmp_path, run={"iterations": 0, "checkpoint_every": 2})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    body = (out / "metrics.csv").read_text().splitlines()
    assert body == ["iteration,outer_loss,grad_norm_high,grad_norm_skills,diverged"]
    ckpts = sorted(p.name for p in out.glob("checkpoint_*.json"))
    assert ckpts == ["checkpoint_000000.json", "checkpoint_final.json"]


def test_train_runs_are_byte_identical(tmp_path) -> None:
    cfg = write_tiny(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    for name in ("checkpoint_000000.json", "checkpoint_000002.json", "checkpoint_final.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_directory_contains_configs(tmp_path) -> None:
    cfg = write_tiny(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "config.input.json").read_bytes() == cfg.read_bytes()
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["dmil"]["batch_size"] == 1  # resolved config echoes overrides
    assert resolved["run"]["iterations"] == 3


def test_every_run_directory_records_its_environment(tmp_path, monkeypatch) -> None:
    cfg = write_tiny(tmp_path, run={"iterations": 1})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ablate")]) == 0
    run_dirs = [tmp_path / "train", tmp_path / "data", tmp_path / "ablate"]
    run_dirs += [p for p in (tmp_path / "ablate").iterdir() if p.is_dir()]
    assert len(run_dirs) == 3 + len(METHODS)
    for out in run_dirs:
        env = json.loads((out / "env.json").read_text())
        assert env["numpy"] and env["python"] and env["numpy_simd"]["baseline"] is not None
        assert env["openblas"]["threads"] == blas.threads()
        assert env["malloc_thresholds_set"] is MALLOC_THRESHOLDS_SET
    # env.json describes the byte-identity contract and is not part of it:
    # another description changes no other file of the run.
    monkeypatch.setattr(runner, "environment", lambda: {"numpy": "another"})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
    assert json.loads((tmp_path / "again" / "env.json").read_text()) == {"numpy": "another"}
    for name in ("metrics.csv", "config.json", "checkpoint_000000.json", "checkpoint_final.json"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "train" / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path) -> None:
    cfg = write_tiny(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["run"]["seed"] == 7


def test_gen_data_roundtrip(tmp_path) -> None:
    cfg = write_tiny(tmp_path)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    train_tasks = load_datasets(out / "train.jsonl")
    test_tasks = load_datasets(out / "test.jsonl")
    assert len(train_tasks) == 3 and len(test_tasks) == 2
    assert all(len(t.support) == 6 for t in train_tasks)


def test_gen_data_reproduces_pinned_sha256(tmp_path) -> None:
    pin = json.loads((Path(__file__).parent / "data" / "gen_data_sha256.json").read_text())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(pin["config"]))
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pin["sha256"]}
    assert got == pin["sha256"], f"generator output moved (pinned under {pin['environment']})"


def test_eval_command_writes_reports(tmp_path) -> None:
    cfg = write_tiny(tmp_path)
    run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    assert main(
        ["eval", "--config", str(cfg), "--out", str(eval_dir),
         "--checkpoint", str(run_dir / "checkpoint_final.json")]
    ) == 0
    report = (eval_dir / "report.csv").read_text().splitlines()
    assert len(report) == 1 + 2  # header + 2 test tasks x 1 shot count
    summary = json.loads((eval_dir / "summary.json").read_text())
    assert "dmil/shots=1" in summary


def test_gradcheck_command_tiny(tmp_path) -> None:
    cfg = write_tiny(tmp_path, gradcheck={"instances": 2})
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["pass"] is True
    assert report["max_rel_err_high"] <= report["tolerance"]
    assert report["max_rel_err_low"] <= report["tolerance"]
    assert report["skill_objectives_checked"] > 0
    assert not any("tape" in key for key in report)


def test_train_exits_nonzero_on_flagged_divergence(tmp_path) -> None:
    cfg = write_tiny(tmp_path, dmil={"inner_rate": 50.0, "batch_size": 1, "tasks_per_step": 2})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1


@pytest.mark.parametrize("flagged", [False, True])
def test_train_exit_code_reports_flagged_divergence(tmp_path, caplog, monkeypatch, flagged) -> None:
    # Exit 1 and one error line when a step flags a diverged inner
    # adaptation (here the second of three), exit 0 when none does.
    keep, calls = runner.meta_train_step, []

    def step(*args):
        calls.append(1)
        res = keep(*args)
        return dataclasses.replace(res, diverged_count=1) if flagged and len(calls) == 2 else res

    monkeypatch.setattr(runner, "meta_train_step", step)
    out = tmp_path / "run"
    assert main(["train", "--config", str(write_tiny(tmp_path)), "--out", str(out)]) == int(flagged)
    with (out / "metrics.csv").open() as f:
        assert [r["diverged"] for r in csv.DictReader(f)] == ["0", "1" if flagged else "0", "0"]
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == (["1 inner adaptations were flagged as diverged"] if flagged else [])


def test_metrics_and_timing_rows_are_appended_as_each_iteration_ends(tmp_path, monkeypatch) -> None:
    # Both CSV files hold their header from the start and gain one row as
    # each iteration ends, so a run stopped by a NumericError in its third
    # iteration keeps two rows, byte-equal to an unbroken run's first two.
    cfg = write_tiny(tmp_path, run={"iterations": 5, "checkpoint_every": 1})
    whole, out = tmp_path / "whole", tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(whole)]) == 0
    keep, seen = runner.meta_train_step, []

    def step(*args):
        seen.append(tuple(len((out / name).read_text().splitlines()) for name in ("metrics.csv", "timing.csv")))
        if len(seen) == 3:
            raise NumericError("stopped in iteration 3")
        return keep(*args)

    monkeypatch.setattr(runner, "meta_train_step", step)
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 4
    assert seen == [(1, 1), (2, 2), (3, 3)]
    assert len((whole / "metrics.csv").read_text().splitlines()) == 6
    assert (out / "metrics.csv").read_bytes() == b"".join((whole / "metrics.csv").read_bytes().splitlines(True)[:3])
    assert [line.split(",")[0] for line in (out / "timing.csv").read_text().splitlines()] == ["iteration", "0", "1"]
    assert sorted(p.name for p in out.glob("checkpoint_*")) == [f"checkpoint_00000{i}.json" for i in range(3)]


def test_ablate_paired_report(tmp_path) -> None:
    cfg = write_tiny(tmp_path, run={"iterations": 2, "checkpoint_every": 0})
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ablate_report.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 2  # header + 5 methods x 2 tasks x 1 shot
    assert (out / "ablate_summary.json").exists()
    for method in ("dmil", "dmil_high", "dmil_low", "maml", "em_only"):
        assert (out / method / "metrics.csv").exists()


def test_ablate_evaluates_seven_skills(tmp_path) -> None:
    # Skill recovery matches the 3 true labels into 7 skills.
    cfg = write_tiny(tmp_path, model={"n_skills": 7}, run={"iterations": 1, "checkpoint_every": 0})
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "ablate_report.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5 * 2
    assert all(0.0 < float(r["skill_acc"]) <= 1.0 for r in rows if r["method"] != "maml")


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_too_many_shots_exit_3_before_anything_trains(tmp_path, caplog, monkeypatch, command) -> None:
    # Rejected on the config and the test tasks before any method trains
    # and before the run directory exists.
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the evaluation was checked")

    monkeypatch.setattr(runner, "train", no_training)
    monkeypatch.setattr(runner, "warm_start", no_training)
    # 5 shots of 4 support demonstrations.
    cfg = write_tiny(tmp_path, data={"n_support": 4}, eval={"shots": [5]})
    want = "eval.shots=5 exceeds the 4 support demonstrations of test task 9000"
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "run")]
    if command == "eval":
        ckpt = tmp_path / "ck.json"
        save_checkpoint(ckpt, init_model(load_config(cfg)), "dmil", 1, 0)
        argv += ["--checkpoint", str(ckpt)]
    caplog.clear()
    assert main(argv) == 3
    assert one_line_error(caplog, "contract error") == f"contract error: {want}"
    assert not (tmp_path / "run").exists()
    with pytest.raises(ContractError, match=re.escape(want)):
        runner.ablate(load_config(cfg))


def test_eval_scores_skill_recovery_of_48_skills(tmp_path) -> None:
    # Matching the 3 true labels is exact for any skill count: 48 skills
    # (48 * 47 * 46 label maps) are scored like 3.
    cfg = write_tiny(tmp_path, model={"n_skills": 48})
    ckpt = tmp_path / "ck.json"
    save_checkpoint(ckpt, init_model(load_config(cfg)), "dmil", 1, 0)
    out = tmp_path / "run"
    assert main(["eval", "--config", str(cfg), "--out", str(out), "--checkpoint", str(ckpt)]) == 0
    with open(out / "report.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 and all(0.0 < float(r["skill_acc"]) <= 1.0 for r in rows)


def test_checkpoint_roundtrip_and_schema_error(tmp_path) -> None:
    params = init_hierarchical(4, 2, 2, (6,), seed=3, features="relative")
    path = tmp_path / "ck.json"
    save_checkpoint(path, params, "dmil", rng_state=12345, iteration=7)
    ck = load_checkpoint(path)
    assert ck.method == "dmil" and ck.iteration == 7 and ck.rng_state == 12345
    assert ck.params.feature_kind == "relative"
    import numpy as np

    assert np.array_equal(ck.params.high.values, params.high.values)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointSchemaError, match="99"):
        load_checkpoint(path)


def test_config_error_exit_code(tmp_path, caplog) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nonsense": 1}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    caplog.clear()
    missing = tmp_path / "missing.json"
    assert main(["train", "--config", str(missing), "--out", str(tmp_path / "y")]) == 2
    assert one_line_error(caplog, "config error").startswith(f"config error: config file {missing} cannot be read")
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("dmil", "inner_steps", 0),
        ("dmil", "batch_size", 0),
        ("dmil", "tasks_per_step", 0),
        ("model", "n_skills", 0),
        ("run", "iterations", -1),
        ("dmil", "inner_rate", -1e-3),
        ("dmil", "outer_rate", -1e-3),
        ("dmil", "warmup_rate", -0.05),
        ("eval", "adapt_rate", -1e-3),
        ("eval", "adapt_steps", 0),
        ("eval", "episodes", 0),
        ("data", "n_train_tasks", 0),
        ("data", "n_support", 3),
        ("data", "n_query", 0),
        ("data", "horizon", 1),
        ("gradcheck", "instances", 0),
        ("dmil", "warmup_restarts", 0),
        ("dmil", "warmup_trajs_per_task", 0),
        ("dmil", "warmup_probe_epochs", -1),
        ("data", "n_test_tasks", 0),
        ("dmil", "warmup_epochs", -1),
        ("dmil", "warmup_consolidate", -1),
        ("dmil", "aux_weight", -0.1),
        ("run", "checkpoint_every", -3),
    ],
)
def test_config_out_of_range_rejected(section, key, value) -> None:
    with pytest.raises(ConfigError, match=rf"'{section}\.{key}' must be >= "):
        resolve_config({section: {key: value}})


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("dmil", "aux_weight", math.nan),
        ("dmil", "inner_rate", math.inf),
        ("dmil", "outer_rate", -math.inf),
        ("eval", "adapt_rate", math.nan),
    ],
)
def test_config_non_finite_rejected(tmp_path, caplog, section, key, value) -> None:
    # json reads NaN and Infinity, and no range check rejects them: a NaN
    # is neither below nor above its bound.
    want = f"config key '{section}.{key}' must be finite, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(want)):
        resolve_config({section: {key: value}})
    cfg = write_tiny(tmp_path, **{section: {key: value}})
    assert ("NaN" if math.isnan(value) else "Infinity") in cfg.read_text()
    caplog.clear()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert one_line_error(caplog, "config error") == f"config error: {want}"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section,key,value",
    [
        pytest.param(section, key, value, id=f"{key}{i}")
        for section, key in (("eval", "shots"), ("model", "hidden"), ("gradcheck", "inner_steps"))
        for i, value in enumerate([[-1], [0], [1, 0], [1.0], [True], ["1"], [1.5], ["a"]])
    ],
)
def test_config_shots_must_be_positive_integers(section, key, value) -> None:
    with pytest.raises(ConfigError, match=rf"'{section}\.{key}' must list integers >= 1, got "):
        resolve_config({section: {key: value}})
    assert resolve_config({section: {key: [1, 5]}})[section][key] == [1, 5]


def test_defaults_satisfy_their_rules() -> None:
    # Each key's default and rule sit side by side in config.SCHEMA, so no
    # key can be checked without being a config key; its default must still
    # pass its own rule.
    assert resolve_config() == DEFAULT_CONFIG


def test_config_range_accepts_its_bounds() -> None:
    cfg = resolve_config({"run": {"iterations": 0}, "dmil": {"inner_rate": 0.0, "inner_steps": 1, "batch_size": 1}})
    assert cfg["run"]["iterations"] == 0 and cfg["dmil"]["inner_rate"] == 0.0
    cfg = resolve_config({"eval": {"adapt_steps": 1, "episodes": 1}})
    assert cfg["eval"]["adapt_steps"] == 1 and cfg["eval"]["episodes"] == 1
    cfg = resolve_config({"dmil": {"warmup_probe_epochs": 0, "warmup_restarts": 1}, "gradcheck": {"instances": 1}})
    assert cfg["dmil"]["warmup_probe_epochs"] == 0 and cfg["gradcheck"]["instances"] == 1
    cfg = resolve_config({"data": {"n_test_tasks": 1}, "dmil": {"warmup_epochs": 0, "warmup_consolidate": 0}})
    assert cfg["data"]["n_test_tasks"] == 1
    assert cfg["dmil"]["warmup_epochs"] == 0 and cfg["dmil"]["warmup_consolidate"] == 0
    cfg = resolve_config({"model": {"hidden": []}})  # a network without hidden layers
    assert init_model(cfg).high_shape.layer_sizes == (7, 3)
    cfg = resolve_config({"run": {"checkpoint_every": 0}})  # first and final checkpoints only
    assert cfg["run"]["checkpoint_every"] == 0
    # The data bounds are the simulator's own minimums: the config and
    # make_dataset accept each and reject one below it.
    bounds = {"n_support": MIN_SUPPORT, "n_query": MIN_QUERY, "horizon": MIN_HORIZON}
    make_dataset(sample_task(0), *bounds.values(), seed=0)
    for key, low in bounds.items():
        assert resolve_config({"data": {key: low}})["data"][key] == low
        with pytest.raises(ConfigError, match=f"'data.{key}' must be >= {low}, got {low - 1}"):
            resolve_config({"data": {key: low - 1}})
        with pytest.raises(ContractError, match=f"must be >= {low}, got {low - 1}"):
            make_dataset(sample_task(0), *{**bounds, key: low - 1}.values(), seed=0)


@pytest.mark.parametrize("key", ["inner_steps", "batch_size"])
def test_train_out_of_range_exits_2_before_any_output(tmp_path, key) -> None:
    cfg = write_tiny(tmp_path, dmil={key: 0})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "checkpoint_000000.json").exists()
    assert not out.exists()


@pytest.mark.parametrize(
    "section,key,value,error",
    [
        ("data", "n_train_tasks", 0, "config key 'data.n_train_tasks' must be >= 1, got 0"),
        ("eval", "shots", [-1], "config key 'eval.shots' must list integers >= 1, got [-1]"),
        ("model", "hidden", [1.5], "config key 'model.hidden' must list integers >= 1, got [1.5]"),
        ("run", "checkpoint_every", -3, "config key 'run.checkpoint_every' must be >= 0, got -3"),
    ],
    ids=["n_train_tasks", "shots", "hidden", "checkpoint_every"],
)
def test_train_without_tasks_or_shots_exits_2_before_any_output(tmp_path, caplog, section, key, value, error) -> None:
    cfg = write_tiny(tmp_path, **{section: {key: value}})
    caplog.clear()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert one_line_error(caplog, "config error") == f"config error: {error}"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, section, key", [("train", "eval", "shots"), ("gradcheck", "gradcheck", "inner_steps")])
def test_empty_shots_or_inner_steps_exit_2_before_any_output(tmp_path, caplog, command, section, key) -> None:
    # Neither list may be empty: a run would check or report nothing.
    cfg = write_tiny(tmp_path, **{section: {key: []}})
    caplog.clear()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    want = f"config error: config key '{section}.{key}' must list at least one integer"
    assert one_line_error(caplog, "config error") == want
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("given", ["train_path", "test_path"])
def test_config_dataset_paths_must_be_set_together(tmp_path, given) -> None:
    with pytest.raises(ConfigError, match="'data.train_path' and 'data.test_path' must be set together"):
        resolve_config({"data": {given: "tasks.jsonl"}})
    cfg = write_tiny(tmp_path, data={given: "tasks.jsonl"})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bad", [5, "missing.jsonl", "", "."])
@pytest.mark.parametrize("key", ["train_path", "test_path"])
def test_config_dataset_path_must_name_a_file(tmp_path, caplog, key, bad) -> None:
    other = "test_path" if key == "train_path" else "train_path"
    real = tmp_path / "tasks.jsonl"
    real.write_text("")
    data = {key: bad, other: str(real)}
    with pytest.raises(ConfigError, match=f"config key 'data.{key}' must name a dataset file, got {bad!r}"):
        resolve_config({"data": data})
    cfg = write_tiny(tmp_path, data=data)
    caplog.clear()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    one_line_error(caplog, "config error")
    assert not (tmp_path / "run").exists()


def one_line_error(caplog, prefix: str) -> str:
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(prefix + ": ")
    assert "\n" not in errors[0] and "Traceback" not in caplog.text
    return errors[0]


def test_cli_contract_error_exit_code(tmp_path, caplog) -> None:
    # More shots than the 6 support demonstrations of each test task.
    cfg = write_tiny(tmp_path, eval={"shots": [7]})
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    caplog.clear()
    argv = ["eval", "--config", str(cfg), "--out", str(tmp_path / "eval"),
            "--checkpoint", str(run_dir / "checkpoint_final.json")]
    assert main(argv) == 3
    assert "eval.shots=7" in one_line_error(caplog, "contract error")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_cli_numeric_error_exit_code(tmp_path, caplog) -> None:
    # An outer step this large overflows the parameters in the first update.
    cfg = write_tiny(tmp_path, dmil={"outer_rate": 1e300})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
    assert "finite" in one_line_error(caplog, "numeric error")


@pytest.mark.parametrize(
    "body",
    ["wrong schema_version", "not json", "missing field", "json list", "high text", "rng_state text", "skills null",
     "no features", "no file", "rng_state float", "iteration text", "K float", "high NaN", "high string",
     "skills bool", "layer string", "layer float", "layer 0", "K 0", "K 2", "rng_state -5", "rng_state 2^64",
     "iteration -3", "method 7", "method ppo"],
)
def test_cli_checkpoint_error_exit_code(tmp_path, caplog, body) -> None:
    params = init_hierarchical(4, 2, 3, (8, 8), seed=0, features="relative")
    ckpt = tmp_path / "ck.json"
    save_checkpoint(ckpt, params, "dmil", rng_state=1, iteration=0)
    doc = json.loads(ckpt.read_text())
    if body == "no file":
        ckpt.unlink()
    elif body == "not json":
        ckpt.write_text("{checkpoint")
    elif body == "json list":
        ckpt.write_text(json.dumps([doc]))
    else:
        if body == "missing field":
            del doc["skills"]
        elif body == "high text":
            doc["high"] = "abc"
        elif body == "rng_state text":
            doc["rng_state"] = "q"
        elif body == "rng_state float":
            doc["rng_state"] = 12.9
        elif body == "iteration text":
            doc["iteration"] = "7"
        elif body == "K float":
            doc["K"] = 3.0
        elif body == "high NaN":
            doc["high"][0] = float("nan")
        elif body == "high string":
            doc["high"][0] = "1.5"
        elif body == "skills bool":
            doc["skills"][1][0] = True
        elif body == "layer string":
            doc["shapes"]["high"][0] = "7"
        elif body == "layer float":
            doc["shapes"]["skill"][1] = 8.9
        elif body == "layer 0":
            doc["shapes"]["skill"][1] = 0
        elif body == "K 0":
            doc["K"] = 0
        elif body == "K 2":
            doc["K"] = 2
        elif body == "rng_state -5":
            doc["rng_state"] = -5
        elif body == "rng_state 2^64":
            doc["rng_state"] = 2**64
        elif body == "iteration -3":
            doc["iteration"] = -3
        elif body == "method 7":
            doc["method"] = 7
        elif body == "method ppo":
            doc["method"] = "ppo"
        elif body == "skills null":
            doc["skills"] = None
        elif body == "no features":
            del doc["features"]
        else:
            doc["schema_version"] = 99
        ckpt.write_text(json.dumps(doc))
    cfg = write_tiny(tmp_path)
    argv = ["eval", "--config", str(cfg), "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt)]
    assert main(argv) == 5
    message = one_line_error(caplog, "checkpoint error")
    if body == "no features":  # a raw-feature model is no default
        assert "has no field 'features'" in message
    if body == "no file":
        assert message.startswith(f"checkpoint error: checkpoint {ckpt} cannot be read")
    want = {
        "rng_state float": "field 'rng_state' must be an integer, got 12.9",
        "iteration text": "field 'iteration' must be an integer, got '7'",
        "K float": "field 'K' must be an integer, got 3.0",
        "high NaN": "field 'high' must be finite numbers, got nan",
        "high string": "field 'high' must be finite numbers, got '1.5'",
        "skills bool": "field 'skills' must be finite numbers, got True",
        "layer string": "a layer size must be an integer, got '7'",
        "layer float": "a layer size must be an integer, got 8.9",
        "layer 0": "a layer size must be >= 1, got 0",
        "K 0": "field 'K' must be >= 1, got 0",
        "K 2": "field 'K' is 2 for 3 skill arrays",
        "rng_state -5": f"field 'rng_state' must be in [0, {2**64}), got -5",
        "rng_state 2^64": f"field 'rng_state' must be in [0, {2**64}), got {2**64}",
        "iteration -3": "field 'iteration' must be >= 0, got -3",
        "method 7": f"field 'method' must name one of {', '.join(runner.METHODS)}, got 7",
        "method ppo": f"field 'method' must name one of {', '.join(runner.METHODS)}, got 'ppo'",
    }
    assert message.endswith(want.get(body, ""))
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "model, field",
    [
        ({"n_skills": 2}, "checkpoint K 3 does not match the config's 2"),
        ({"hidden": [16, 16]}, "checkpoint selector layers (7, 8, 8, 3) does not match the config's (7, 16, 16, 3)"),
        ({"features": "raw"}, "checkpoint features 'relative' does not match the config's 'raw'"),
        ({"features": "raw", "hidden": [16, 16], "n_skills": 2}, "checkpoint features 'relative' does not match the config's 'raw'"),
    ],
)
def test_eval_rejects_a_checkpoint_of_another_model(tmp_path, caplog, model, field) -> None:
    # A relative/[8, 8]/K=3 checkpoint (TINY's model) against other models.
    ckpt = tmp_path / "ck.json"
    save_checkpoint(ckpt, init_hierarchical(4, 2, 3, (8, 8), seed=0, features="relative"), "dmil", 1, 0)
    caplog.clear()
    argv = ["eval", "--config", str(write_tiny(tmp_path, model=model)), "--out", str(tmp_path / "eval"),
            "--checkpoint", str(ckpt)]
    assert main(argv) == 3
    assert one_line_error(caplog, "contract error") == f"contract error: {field}"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("saved, configured", [("dmil", "dmil_low"), ("dmil_low", "dmil"), ("em_only", "dmil_high")])
def test_eval_rejects_a_checkpoint_of_another_method(tmp_path, caplog, saved, configured) -> None:
    # Same model, other method: the method decides which levels adapt at
    # test time (dmil_low keeps the selector fixed), so it must match too.
    ckpt = tmp_path / "ck.json"
    save_checkpoint(ckpt, init_hierarchical(4, 2, 3, (8, 8), seed=0, features="relative"), saved, 1, 0)
    caplog.clear()
    argv = ["eval", "--config", str(write_tiny(tmp_path, dmil={"method": configured})), "--out",
            str(tmp_path / "eval"), "--checkpoint", str(ckpt)]
    assert main(argv) == 3
    want = f"contract error: checkpoint method {saved!r} does not match the config's {configured!r}"
    assert one_line_error(caplog, "contract error") == want
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("eval", "selector_steps", 4), ("eval", "n_true_skills", 3), ("gradcheck", "state_dim", 4),
     ("gradcheck", "action_dim", 2), ("data", "train_task_seed0", 1000), ("data", "test_task_seed0", 9000),
     ("gradcheck", "hidden", 8), ("gradcheck", "n_skills", 2), ("gradcheck", "inner_rate", 5e-4),
     ("gradcheck", "fd_step", 1e-5), ("gradcheck", "tolerance", 1e-4), ("gradcheck", "trajectories", 1),
     ("gradcheck", "horizon", 16), ("gradcheck", "seed0", 42)],
)
def test_removed_config_key_exits_2(tmp_path, caplog, section, key, value) -> None:
    # Knobs with a single working value are constants now: setting one is an
    # unknown-key error, whatever the value.
    cfg = write_tiny(tmp_path, **{section: {key: value}})
    caplog.clear()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert f"unknown config key '{section}.{key}'" in one_line_error(caplog, "config error")
    assert not (tmp_path / "run").exists()


def test_cli_dataset_format_error_exit_code(tmp_path, caplog) -> None:
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(write_tiny(tmp_path)), "--out", str(data_dir)]) == 0
    corrupt = data_dir / "train.jsonl"
    corrupt.write_text(corrupt.read_text()[:-40] + "\n")  # cut the last record short
    caplog.clear()
    cfg = write_tiny(tmp_path, data={"train_path": str(corrupt), "test_path": str(data_dir / "test.jsonl")})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 6
    assert "line" in one_line_error(caplog, "dataset format error")


# What data.read_json rejects, as the bytes of a whole config or checkpoint
# file or of one dataset line, and what its message says after the file or
# the line.
UNREADABLE = {
    "not UTF-8": (b'{"run": "\xff"}', "is not UTF-8: "),
    "UTF-16": (json.dumps({"x": 1}).encode("utf-16"), "is not UTF-8: "),  # json.loads(bytes) would sniff it
    "not JSON": (b"{run", "is not JSON: "),
    "too deep": (b"[" * 100_000 + b"]" * 100_000, "nests deeper than the JSON parser's limit"),
    "repeated key": (b'{"run": {"iterations": 1, "iterations": 2}}', "repeats the key 'iterations'"),  # json keeps the last
    "not an object": (b"[1, 2]", "holds a JSON list, not an object"),
}


@pytest.mark.parametrize("case", ["missing", *UNREADABLE])
@pytest.mark.parametrize("kind", ["config", "checkpoint", "dataset"])
def test_unreadable_input_file_exits_with_its_kind_code(tmp_path, caplog, kind, case) -> None:
    cfg = write_tiny(tmp_path)
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
    if kind == "config":
        bad, where, code, prefix = cfg, f"config file {cfg}", 2, "config error"
    elif kind == "checkpoint":
        bad, where, code, prefix = tmp_path / "ck.json", f"checkpoint {tmp_path / 'ck.json'}", 5, "checkpoint error"
        save_checkpoint(bad, init_model(load_config(cfg)), "dmil", 1, 0)
        argv = ["eval", *argv[1:], "--checkpoint", str(bad)]
    else:
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        bad, where, code, prefix = tmp_path / "data" / "train.jsonl", "line 2", 6, "dataset format error"
        write_tiny(tmp_path, data={"train_path": str(bad), "test_path": str(tmp_path / "data" / "test.jsonl")})
    if case == "missing":
        bad.unlink()
        want = f"{where} cannot be read: No such file or directory"
        if kind == "dataset":  # rejected earlier, with the config
            code, prefix, want = 2, "config error", f"config key 'data.train_path' must name a dataset file, got {str(bad)!r}"
    elif kind == "dataset":
        lines = bad.read_bytes().split(b"\n")
        lines[1] = UNREADABLE[case][0]
        bad.write_bytes(b"\n".join(lines))
        want = f"{where} {UNREADABLE[case][1]}"
    else:
        bad.write_bytes(UNREADABLE[case][0])
        want = f"{where} {UNREADABLE[case][1]}"
    caplog.clear()
    assert main(argv) == code
    assert one_line_error(caplog, prefix).startswith(f"{prefix}: {want}")
    assert not (tmp_path / "run").exists()


def mutations(base: bytes, n: int, seed: int = 0):
    """n copies of base, each with 1-3 one-byte edits: a byte replaced by
    any value, deleted, or one of any value inserted."""
    rng = random.Random(seed)
    for _ in range(n):
        body = bytearray(base)
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(3)
            if op == 0:
                body[rng.randrange(len(body))] = rng.randrange(256)
            elif op == 1:
                del body[rng.randrange(len(body))]
            else:
                body.insert(rng.randrange(len(body) + 1), rng.randrange(256))
        yield bytes(body)


def test_corrupted_input_files_raise_only_their_loaders_error(tmp_path) -> None:
    # Random byte corruptions of each file kind load or raise the loader's
    # own error class; about half are not UTF-8.
    ckpt, data = tmp_path / "ck.json", tmp_path / "tasks.jsonl"
    save_checkpoint(ckpt, init_hierarchical(4, 2, 2, (3,), seed=0, features="relative"), "dmil", 1, 0)
    save_datasets(data, [make_dataset(sample_task(9000), MIN_SUPPORT, MIN_QUERY, MIN_HORIZON, seed=0)])
    kinds = ((write_tiny(tmp_path), load_config, ConfigError), (ckpt, load_checkpoint, CheckpointSchemaError),
             (data, load_datasets, DatasetFormatError))
    for path, load, error in kinds:
        outcomes = collections.Counter()
        bad = tmp_path / f"bad{path.suffix}"
        for body in mutations(path.read_bytes(), 1000):
            bad.write_bytes(body)
            try:
                load(bad)
                outcomes["loaded"] += 1
            except error as e:
                outcomes["not UTF-8" if "is not UTF-8" in str(e) else "rejected"] += 1
        assert min(outcomes[k] for k in ("loaded", "not UTF-8", "rejected")) > 0, (path.name, outcomes)


def test_config_value_nested_within_the_parser_limit_exits_2(tmp_path, caplog) -> None:
    # A deep list parses, and is rejected by the key's rule, not by a
    # recursion while the config is merged.
    deep = "[" * 900 + "]" * 900
    for body in ('{"eval": {"shots": %s}}' % deep, '{"data": {"train_path": %s, "test_path": "x"}}' % deep):
        cfg = tmp_path / "deep.json"
        cfg.write_text(body)
        caplog.clear()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        one_line_error(caplog, "config error")
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["a file", "under a file", "a used directory"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_out_naming_a_file_exits_2_before_any_output(tmp_path, caplog, command, case) -> None:
    cfg = write_tiny(tmp_path, gradcheck={"instances": 1})
    afile = tmp_path / "afile"
    afile.write_text("kept")
    used = tmp_path / "used"  # another run's directory: its files must not mix with this run's
    used.mkdir()
    (used / "metrics.csv").write_text("iteration,outer_loss\n0,1.0\n")
    out, reason = {
        "a file": (afile, "cannot be made: File exists"),
        "under a file": (afile / "sub", "cannot be made: Not a directory"),
        "a used directory": (used, "is not empty"),
    }[case]
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "eval":
        save_checkpoint(tmp_path / "ck.json", init_model(load_config(cfg)), "dmil", 1, 0)
        argv += ["--checkpoint", str(tmp_path / "ck.json")]
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    caplog.clear()
    assert main(argv) == 2
    assert one_line_error(caplog, "config error") == f"config error: run directory {out} {reason}"
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


def test_train_opens_its_run_directory_once(tmp_path, monkeypatch) -> None:
    # The command makes the run directory and copies its config file there
    # before anything trains; runner.train writes into that directory.
    real_open, real_train = runner.open_run_dir, runner.train
    opened = []

    def open_run_dir(out, cfg):
        opened.append(Path(out))
        return real_open(out, cfg)

    def train(cfg, out_dir=None, **kwargs):
        assert sorted(p.name for p in out_dir.iterdir()) == ["config.input.json", "config.json", "env.json"]
        return real_train(cfg, out_dir=out_dir, **kwargs)

    monkeypatch.setattr(runner, "open_run_dir", open_run_dir)
    monkeypatch.setattr("dmil.cli.open_run_dir", open_run_dir)
    monkeypatch.setattr("dmil.cli.train", train)
    cfg = write_tiny(tmp_path, run={"iterations": 2, "checkpoint_every": 1})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert opened == [out]
    checkpoints = ["checkpoint_000000.json", "checkpoint_000001.json", "checkpoint_000002.json", "checkpoint_final.json"]
    want = ["config.input.json", "config.json", "env.json", "metrics.csv", "timing.csv", *checkpoints]
    assert sorted(p.name for p in out.iterdir()) == sorted(want)


MISSING = object()  # changed_dataset's value for a field it deletes


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("task_seed", 1.5, "task_seed must be an integer, got 1.5"),
        ("task_seed", "abc", "task_seed must be an integer, got 'abc'"),
        ("task_seed", True, "task_seed must be an integer, got True"),
        ("states", [[0.0, 0.0, 1.0]] * 24, "states must have shape (T, 4), got (24, 3)"),
        ("actions", [[0.0, 0.0, 0.0]] * 24, "actions must have shape (T, 2), got (24, 3)"),
        ("true_skills", [7] * 24, "true_skills must be integers in [0, 3)"),
        ("true_skills", [-1] * 24, "true_skills must be integers in [0, 3)"),
        ("true_skills", [1.5] * 24, "true_skills must be integers in [0, 3)"),
        ("true_skills", None, "true_skills must be integers in [0, 3)"),
        ("true_skills", [1] * 23, "true_skills must align with states"),
        ("true_skills", [True] + [1] * 23, "true_skills must be integers in [0, 3)"),
        ("true_skills", MISSING, "missing field 'true_skills'"),
        ("states", [[math.nan, 0.0, 0.0, 0.0]] * 24, "states must be finite numbers, got nan"),
        ("actions", [[0.0, -math.inf]] * 24, "actions must be finite numbers, got -inf"),
        ("states", [["1.5", 0.0, 0.0, 0.0]] * 24, "states must be finite numbers, got '1.5'"),
        ("states", [[0.0, True, 0.0, 0.0]] * 24, "states must be finite numbers, got True"),
        ("states", [[10**400, 0.0, 0.0, 0.0]] * 24, "int too large to convert to float"),
    ],
    ids=["seed float", "seed text", "seed bool", "states 3 columns", "actions 3 columns", "label 7", "label -1",
         "label float", "labels null", "labels short", "label bool", "labels missing", "state NaN",
         "action -Infinity", "state text", "state bool", "state huge int"],
)
def test_dataset_line_not_as_simulated_exits_6(tmp_path, caplog, field, value, error) -> None:
    cfg = write_tiny(tmp_path, data=changed_dataset(tmp_path, field, value))
    caplog.clear()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 6
    assert one_line_error(caplog, "dataset format error") == f"dataset format error: line 2: {error}"


def changed_dataset(tmp_path, field, value, split: str = "train") -> dict:
    """The data section of gen-data files of TINY (one 24-step trajectory per
    line) whose second `split`.jsonl line has `field` set to `value`, or
    deleted for MISSING; each call writes into a fresh directory."""
    data_dir = Path(tempfile.mkdtemp(prefix="data", dir=tmp_path))
    assert main(["gen-data", "--config", str(write_tiny(tmp_path)), "--out", str(data_dir)]) == 0
    changed = data_dir / f"{split}.jsonl"
    lines = changed.read_text().splitlines()
    rec = json.loads(lines[1])
    if value is MISSING:
        del rec[field]
    else:
        rec[field] = value
    lines[1] = json.dumps(rec)
    changed.write_text("\n".join(lines) + "\n")
    return {"train_path": str(data_dir / "train.jsonl"), "test_path": str(data_dir / "test.jsonl")}


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "ablate"])
def test_malformed_dataset_exits_6_before_any_output(tmp_path, caplog, command) -> None:
    # eval reads only the test file, every other command both.  Labels are
    # required: without them a file would train, then fail to score skill
    # recovery after the run directory exists.
    split = "test" if command == "eval" else "train"
    for labels in ([7] * 24, None):
        data = changed_dataset(tmp_path, "true_skills", labels, split)
        cfg = write_tiny(tmp_path, data=data)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "run")]
        if command == "eval":
            ckpt = tmp_path / "ck.json"
            save_checkpoint(ckpt, init_model(load_config(cfg)), "dmil", 1, 0)
            argv += ["--checkpoint", str(ckpt)]
        caplog.clear()
        assert main(argv) == 6
        want = "dataset format error: line 2: true_skills must be integers in [0, 3)"
        assert one_line_error(caplog, "dataset format error") == want
        assert not (tmp_path / "run").exists()

    # A file with no trajectory at all (empty, or blank lines only).
    empty = Path(data[f"{split}_path"])
    empty.write_text("\n")
    caplog.clear()
    assert main(argv) == 6
    assert one_line_error(caplog, "dataset format error") == f"dataset format error: {empty} holds no trajectory"
    assert not (tmp_path / "run").exists()


def test_eval_builds_only_the_test_tasks(tmp_path, monkeypatch) -> None:
    # A malformed train file does not fail an eval, which never reads it.
    cfg = write_tiny(tmp_path, data=changed_dataset(tmp_path, "true_skills", [7] * 24, "train"))
    ckpt = tmp_path / "ck.json"
    save_checkpoint(ckpt, init_model(load_config(cfg)), "dmil", 1, 0)
    argv = ["eval", "--config", str(cfg), "--out", str(tmp_path / "run"), "--checkpoint", str(ckpt)]
    assert main(argv) == 0
    assert len(list(csv.DictReader((tmp_path / "run" / "report.csv").open()))) == 2  # 2 test tasks, 1 shot count

    # Without dataset files it simulates the 2 test tasks and no train task.
    seeds = []
    keep = runner.make_dataset
    monkeypatch.setattr(runner, "make_dataset", lambda spec, *a, **kw: seeds.append(spec.seed) or keep(spec, *a, **kw))
    argv = ["eval", "--config", str(write_tiny(tmp_path)), "--out", str(tmp_path / "sim"), "--checkpoint", str(ckpt)]
    assert main(argv) == 0
    assert seeds == [runner.TEST_TASK_SEED0, runner.TEST_TASK_SEED0 + 1]


def test_train_is_byte_identical_across_blas_thread_counts(tmp_path) -> None:
    # Importing dmil pins OpenBLAS to one thread after numpy has read
    # OPENBLAS_NUM_THREADS, so the variable cannot change a run's bits.  The
    # 64x64 networks on 480-row batches are large enough for OpenBLAS to
    # split products over two threads when it is allowed to; unpinned, the
    # two checkpoints differ in the last bits.
    cfg = write_tiny(
        tmp_path,
        data={"n_train_tasks": 6, "n_test_tasks": 1, "n_support": 16, "horizon": 60},
        model={"hidden": [64, 64]},
        dmil={"batch_size": 8, "tasks_per_step": 2, "inner_rate": 1e-2, "outer_rate": 1e-3},
        run={"iterations": 10, "checkpoint_every": 0},
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for n in ("1", "2"):
        out = tmp_path / f"threads{n}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "dmil.cli", "train", "--config", str(cfg), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode in (0, 1), proc.stderr  # 1: a flagged divergence, still a full run
        digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("metrics.csv", "checkpoint_final.json")])
    assert digests[0] == digests[1]


def test_blas_runs_on_one_thread() -> None:
    # Importing dmil pins the suite, as it pins every command (dmil/__init__.py).
    assert blas.threads() == 1
    assert blas.pin_one_thread() == 1
