"""A one-skill model (maml's K=1 hierarchy) never forwards or differentiates
its selector: the one-way softmax's labels, routing and gradient are known
without computing them.  These tests pin the outputs of the K=1 paths
byte for byte and count the selector work they do."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dmil import dmil, runner
from dmil.config import resolve_config
from dmil.kernels import SelectorLoss

PIN_PATH = Path(__file__).parent / "data" / "one_skill_sha256.json"


def one_skill_config() -> dict:
    return resolve_config(json.loads(PIN_PATH.read_text())["config"])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def one_skill_digests(cfg: dict) -> dict:
    """sha256 of the K=1 warm start's parameters, of maml's metrics rows
    trained from it and of its evaluate rows (JSON writes floats with repr,
    so every bit counts)."""
    datasets = runner.build_datasets(cfg)
    warm = runner.warm_start(cfg, datasets[0])
    res = runner.train(cfg, datasets=datasets, warm_params=warm)
    rows = runner.evaluate(cfg, res.params, "maml", res.test_tasks)
    return {
        "warm_start": _sha(b"".join(v.values.tobytes() for v in (warm.high, *warm.skills))),
        "metrics": _sha(json.dumps(res.metrics).encode()),
        "evaluate": _sha(json.dumps(rows).encode()),
    }


def test_one_skill_outputs_reproduce_pinned_sha256() -> None:
    pin = json.loads(PIN_PATH.read_text())
    got = one_skill_digests(one_skill_config())
    assert got == pin["sha256"], f"one-skill outputs moved (pinned under {pin['environment']})"


@pytest.fixture
def selector_work(monkeypatch):
    """Counts selector forwards (dmil.mlp_forward calls on a one-output
    network) and every SelectorLoss evaluation: value, linearization and
    gradient all run its _forward."""
    seen = {"forward": 0, "loss": 0}
    keep_forward, keep_loss = dmil.mlp_forward, SelectorLoss._forward

    def forward(theta, shape, x):
        seen["forward"] += shape.out_dim == 1
        return keep_forward(theta, shape, x)

    def loss(self, theta, batch):
        seen["loss"] += 1
        return keep_loss(self, theta, batch)

    monkeypatch.setattr(dmil, "mlp_forward", forward)
    monkeypatch.setattr(SelectorLoss, "_forward", loss)
    return seen


def test_one_skill_paths_run_no_selector_work(selector_work) -> None:
    cfg = one_skill_config()
    datasets = runner.build_datasets(cfg)
    warm = runner.warm_start(cfg, datasets[0])
    res = runner.train(cfg, datasets=datasets, warm_params=warm)
    rows = runner.evaluate(cfg, res.params, "maml", res.test_tasks)
    actions, skills = dmil.predict_action(res.params, datasets[1][0].query[0].states)
    assert selector_work == {"forward": 0, "loss": 0}
    assert len(rows) == len(cfg["eval"]["shots"]) * len(datasets[1])
    assert np.all(np.isfinite(actions)) and not skills.any()
