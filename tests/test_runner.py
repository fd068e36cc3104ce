import ast
from pathlib import Path

import numpy as np
import pytest

from dmil import evaluation, runner
from dmil.autodiff import ContractError
from dmil.config import METHODS, resolve_config
from dmil.rng import SplitMix64, derive_seed

TINY = {
    "data": {"n_train_tasks": 2, "n_test_tasks": 1, "n_support": 4, "n_query": 1, "horizon": 20},
    "model": {"hidden": [8], "features": "raw"},
    "dmil": {"inner_rate": 1e-3, "outer_rate": 1e-2, "inner_steps": 2, "batch_size": 2, "tasks_per_step": 2},
    "eval": {"shots": [1], "episodes": 1},
    "run": {"iterations": 1, "checkpoint_every": 0},
}


def tiny(method: str = "dmil", **dmil) -> dict:
    cfg = resolve_config(TINY)
    cfg["dmil"].update(method=method, **dmil)
    return cfg


@pytest.mark.parametrize("method", list(METHODS))
def test_method_table_row_drives_every_reader(monkeypatch, method) -> None:
    # The skill count, the adapted levels (in training and at test time) and
    # the step function all come from the method's row of config.METHODS.
    row = METHODS[method]
    cfg = tiny(method)
    k = 1 if row.one_network else cfg["model"]["n_skills"]
    assert runner.init_model(cfg).K == k
    tc = runner.train_config_from(cfg)
    assert (tc.meta_high, tc.meta_low) == row.adapts

    called = []

    def spy(name):
        keep = getattr(runner, name)
        return lambda *args: called.append(name) or keep(*args)

    for name in {r.step for r in METHODS.values()}:
        monkeypatch.setattr(runner, name, spy(name))
    res = runner.train(cfg)
    assert called == [row.step]

    levels = []
    keep_adapt = evaluation.few_shot_adapt

    def adapt(*args, adapt_high, adapt_low, **kwargs):
        levels.append((adapt_high, adapt_low))
        return keep_adapt(*args, adapt_high=adapt_high, adapt_low=adapt_low, **kwargs)

    monkeypatch.setattr(evaluation, "few_shot_adapt", adapt)
    runner.evaluate(cfg, res.params, method, res.test_tasks)
    assert levels == [row.adapts]


def test_only_the_config_names_methods() -> None:
    # Per-method rules live in config.METHODS alone: no other module of the
    # package spells a method's name (the package name "dmil" aside).
    names = {"dmil_high", "dmil_low", "maml", "em_only"}
    src = Path(runner.__file__).parent
    found = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(src.glob("*.py"))
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert found == []


@pytest.mark.parametrize("method", list(METHODS))
def test_train_sgd_applies_the_step_gradients_once(method) -> None:
    # runner.train is the one place that applies the outer update, for
    # every method and under both outer optimizers.
    step = getattr(runner, METHODS[method].step)
    for optimizer, opt_class in (("sgd", runner.Sgd), ("adam", runner.Adam)):
        cfg = tiny(method, outer_optimizer=optimizer)
        datasets = runner.build_datasets(cfg)
        start = runner.init_model(cfg)
        res = runner.train(cfg, datasets=datasets)

        # Replay the first iteration's task picks and step seed.
        task_rng = SplitMix64(derive_seed(0, runner.SALT_TASK_SELECT))
        batch = [datasets[0][task_rng.randint(2)] for _ in range(2)]
        step_seed = derive_seed(0, runner.SALT_STEP, 0)
        grads = step(start, batch, runner.train_config_from(cfg), step_seed)
        assert grads.grad_norm_skills > 0.0
        want_high = opt_class(len(start.high), 1e-2).step(start.high, grads.g_high)
        want_skills = [opt_class(len(s), 1e-2).step(s, g) for s, g in zip(start.skills, grads.g_skills, strict=True)]
        assert np.array_equal(res.params.high.values, want_high.values)
        for got, want in zip(res.params.skills, want_skills, strict=True):
            assert np.array_equal(got.values, want.values)
        if method == "maml":  # the zero selector gradient leaves the selector as it is
            assert np.array_equal(res.params.high.values, start.high.values)


def test_train_rejects_mismatched_warm_start(monkeypatch) -> None:
    def never(*args, **kwargs):
        raise AssertionError("training started despite a mismatched warm start")

    monkeypatch.setattr(runner, "maml_train_step", never)
    monkeypatch.setattr(runner, "meta_train_step", never)
    monkeypatch.setattr(runner, "em_only_train", never)
    monkeypatch.setattr(runner, "build_datasets", never)
    k3 = runner.init_model(tiny("dmil"))
    with pytest.raises(ContractError, match="warm start has 3 skills; method maml needs 1"):
        runner.train(tiny("maml"), warm_params=k3)
    k1 = runner.init_model(tiny("maml"))
    with pytest.raises(ContractError, match="warm start has 1 skills; method dmil_low needs 3"):
        runner.train(tiny("dmil_low"), warm_params=k1)
    with pytest.raises(ContractError, match="warm start has 1 skills; method em_only needs 3"):
        runner.train(tiny("em_only"), warm_params=k1)


def test_ablate_computes_one_warm_start_per_skill_count(monkeypatch) -> None:
    calls = []
    keep = runner.warm_start

    def counted(cfg, train_tasks):
        calls.append(cfg["dmil"]["method"])
        return keep(cfg, train_tasks)

    monkeypatch.setattr(runner, "warm_start", counted)
    cfg = tiny(warmup_epochs=2, warmup_consolidate=1, warmup_probe_epochs=1)
    rows = runner.ablate(cfg)
    assert calls == ["dmil", "maml"]
    assert [r["method"] for r in rows] == list(runner.METHODS)

