"""Byte pins of a three-skill run through the command line: the files
`dmil train` and `dmil ablate` write for a tiny config, hashed; and `dmil
eval` of its final checkpoint against the in-process result."""

import hashlib
import json
from pathlib import Path

from dmil import runner
from dmil.checkpoint import load_checkpoint
from dmil.cli import main
from dmil.config import load_config
from dmil.evaluation import write_report_csv

PIN_PATH = Path(__file__).parent / "data" / "three_skill_sha256.json"
FILES = ("train/metrics.csv", "train/checkpoint_final.json", "ablate/ablate_report.csv", "ablate/ablate_summary.json")


def three_skill_digests(tmp_path) -> dict:
    pin = json.loads(PIN_PATH.read_text())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(pin["config"]))
    for command in ("train", "ablate"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FILES}


def test_three_skill_outputs_reproduce_pinned_sha256(tmp_path) -> None:
    pin = json.loads(PIN_PATH.read_text())
    got = three_skill_digests(tmp_path)
    assert got == pin["sha256"], f"three-skill outputs moved (pinned under {pin['environment']})"


def test_eval_of_the_final_checkpoint_equals_evaluating_the_trained_params(tmp_path) -> None:
    # The checkpoint read path is exact: dmil eval of a dmil train run's
    # final checkpoint (Adam, three skills) writes the report that evaluating
    # the in-process training result writes.
    pin = json.loads(PIN_PATH.read_text())
    assert pin["config"]["dmil"]["outer_optimizer"] == "adam"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(pin["config"]))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "train")]) == 0
    ckpt = tmp_path / "train" / "checkpoint_final.json"
    assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt)]) == 0
    cfg = load_config(cfg_path)
    result = runner.train(cfg)
    # The report sees the selector only through its argmax, so compare the
    # parameters' bits as well.
    read = load_checkpoint(ckpt).params
    for got, want in zip((read.high, *read.skills), (result.params.high, *result.params.skills), strict=True):
        assert got.values.tobytes() == want.values.tobytes()
    write_report_csv(tmp_path / "want.csv", runner.evaluate(cfg, result.params, result.method, result.test_tasks))
    assert (tmp_path / "eval" / "report.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
