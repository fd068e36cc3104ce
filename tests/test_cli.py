import json
from pathlib import Path

import pytest

from dmil.checkpoint import CheckpointSchemaError, load_checkpoint, save_checkpoint
from dmil.cli import main
from dmil.config import ConfigError, load_config, resolve_config
from dmil.policies import init_hierarchical
from dmil.tasks import load_datasets

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
    with pytest.raises(ConfigError, match="unknown method"):
        resolve_config({"dmil": {"method": "ppo"}})


@pytest.mark.parametrize("name", ["Adam", "adamw", ""])
def test_config_unknown_outer_optimizer_rejected(tmp_path, name) -> None:
    with pytest.raises(ConfigError, match="valid optimizers: sgd, adam"):
        resolve_config({"dmil": {"outer_optimizer": name}})
    cfg = write_tiny(tmp_path, dmil={"outer_optimizer": name})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
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
    cfg = resolve_config({"dmil": {"outer_rate": 1}, "eval": {"selector_steps": 4}, "data": {"train_path": None}})
    assert cfg["dmil"]["outer_rate"] == 1 and cfg["eval"]["selector_steps"] == 4
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
    cfg = write_tiny(tmp_path, gradcheck={"instances": 2, "horizon": 10})
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["pass"] is True
    assert report["max_rel_err_high"] <= report["tolerance"]
    assert report["tape_tolerance"] == 1e-10
    assert report["max_rel_err_tape_high"] <= 1e-10 and report["max_rel_err_tape_low"] <= 1e-10


def test_train_exits_nonzero_on_flagged_divergence(tmp_path) -> None:
    cfg = write_tiny(tmp_path, dmil={"inner_rate": 50.0, "batch_size": 1, "tasks_per_step": 2})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1


def test_ablate_paired_report(tmp_path) -> None:
    cfg = write_tiny(tmp_path, run={"iterations": 2, "checkpoint_every": 0})
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ablate_report.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 2  # header + 5 methods x 2 tasks x 1 shot
    assert (out / "ablate_summary.json").exists()
    for method in ("dmil", "dmil_high", "dmil_low", "maml", "em_only"):
        assert (out / method / "metrics.csv").exists()


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


def test_config_error_exit_code(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nonsense": 1}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


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
        ("eval", "selector_steps", 0),
        ("eval", "episodes", 0),
        ("data", "n_support", 3),
        ("data", "n_query", 0),
        ("data", "horizon", 1),
    ],
)
def test_config_out_of_range_rejected(section, key, value) -> None:
    with pytest.raises(ConfigError, match=rf"'{section}\.{key}' must be >= "):
        resolve_config({section: {key: value}})


def test_config_range_accepts_its_bounds() -> None:
    cfg = resolve_config({"run": {"iterations": 0}, "dmil": {"inner_rate": 0.0, "inner_steps": 1, "batch_size": 1}})
    assert cfg["run"]["iterations"] == 0 and cfg["dmil"]["inner_rate"] == 0.0
    assert resolve_config()["eval"]["selector_steps"] is None


@pytest.mark.parametrize("key", ["inner_steps", "batch_size"])
def test_train_out_of_range_exits_2_before_any_output(tmp_path, key) -> None:
    cfg = write_tiny(tmp_path, dmil={key: 0})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "checkpoint_000000.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("given", ["train_path", "test_path"])
def test_config_dataset_paths_must_be_set_together(tmp_path, given) -> None:
    with pytest.raises(ConfigError, match="'data.train_path' and 'data.test_path' must be set together"):
        resolve_config({"data": {given: "tasks.jsonl"}})
    cfg = write_tiny(tmp_path, data={given: "tasks.jsonl"})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
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


@pytest.mark.parametrize("body", ["wrong schema_version", "not json", "missing field"])
def test_cli_checkpoint_error_exit_code(tmp_path, caplog, body) -> None:
    params = init_hierarchical(4, 2, 3, (8, 8), seed=0, features="relative")
    ckpt = tmp_path / "ck.json"
    save_checkpoint(ckpt, params, "dmil", rng_state=1, iteration=0)
    doc = json.loads(ckpt.read_text())
    if body == "not json":
        ckpt.write_text("{checkpoint")
    elif body == "missing field":
        del doc["skills"]
        ckpt.write_text(json.dumps(doc))
    else:
        doc["schema_version"] = 99
        ckpt.write_text(json.dumps(doc))
    cfg = write_tiny(tmp_path)
    argv = ["eval", "--config", str(cfg), "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt)]
    assert main(argv) == 5
    one_line_error(caplog, "checkpoint error")


def test_cli_dataset_format_error_exit_code(tmp_path, caplog) -> None:
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(write_tiny(tmp_path)), "--out", str(data_dir)]) == 0
    corrupt = data_dir / "train.jsonl"
    corrupt.write_text(corrupt.read_text()[:-40] + "\n")  # cut the last record short
    caplog.clear()
    cfg = write_tiny(tmp_path, data={"train_path": str(corrupt), "test_path": str(data_dir / "test.jsonl")})
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 6
    assert "line" in one_line_error(caplog, "dataset format error")
