"""Byte pins of a three-skill run through the command line: the files
`dmil train` and `dmil ablate` write for a tiny config, hashed."""

import hashlib
import json
from pathlib import Path

from dmil.cli import main

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
