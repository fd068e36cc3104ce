"""The benchmark harness in perfbench/ times the package by replacing module
attributes at the names their callers look up.  Renaming or deleting one of
those names must fail here, not only in a benchmark run."""

import sys
from pathlib import Path

from dmil import autodiff, baselines, evaluation, policies, rng, runner, tasks
from dmil import dmil as core

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HOOKED = (autodiff, baselines, evaluation, policies, rng, runner, tasks, core, autodiff.Node, rng.SplitMix64)


def test_tracer_hooks_every_name_and_restores_it(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    import tracing

    before = [dict(vars(owner)) for owner in HOOKED]
    tracer = tracing.Tracer()
    try:
        tracer.install_stages()
        tracer.install_layers()
        during = [dict(vars(owner)) for owner in HOOKED]
    finally:
        tracer.restore()
    replaced = {
        (owner.__name__, name)
        for owner, old, new in zip(HOOKED, before, during)
        for name in old
        if new[name] is not old[name]
    }
    for owner, attr in (
        ("dmil.runner", "train"),
        ("dmil.runner", "warm_start"),
        ("dmil.runner", "meta_train_step"),
        ("dmil.runner", "maml_train_step"),
        ("dmil.runner", "em_only_train"),
        ("dmil.baselines", "meta_grad"),
        ("dmil.evaluation", "inner_adapt"),
        ("dmil.evaluation", "mlp_forward"),
        ("Node", "__init__"),
    ):
        assert (owner, attr) in replaced
    assert [dict(vars(owner)) for owner in HOOKED] == before


def test_tiny_ablate_records_a_span_at_every_layer(monkeypatch) -> None:
    # A refactor that routes a call around a hooked name leaves its layer
    # empty; this run of all five methods (K=3, warm start on) must reach
    # every one.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing

    from dmil.config import resolve_config

    cfg = resolve_config({
        "data": {"n_train_tasks": 2, "n_test_tasks": 1, "n_support": 4, "n_query": 1, "horizon": 20},
        "model": {"hidden": [8], "n_skills": 3},
        "dmil": {"batch_size": 1, "tasks_per_step": 2, "inner_rate": 1e-3, "inner_steps": 2,
                 "warmup_epochs": 2, "warmup_consolidate": 1, "warmup_restarts": 2, "warmup_probe_epochs": 1},
        "eval": {"shots": [1], "episodes": 1, "adapt_steps": 1},
        "run": {"iterations": 1, "checkpoint_every": 0},
    })
    tracer = tracing.Tracer()
    try:
        tracer.install_stages()
        tracer.install_layers()
        runner.ablate(cfg)
    finally:
        tracer.restore()
    seen = set(tracer.table())
    missing = [name for name, _ in tracing.LAYERS if name not in seen]
    assert not missing, f"no span recorded for {missing}"
    assert {"dmil.few_shot_adapt", "tasks.rollout_policy", "policies.mlp_forward"} <= seen
