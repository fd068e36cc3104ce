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
