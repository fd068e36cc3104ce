import numpy as np
import pytest

from dmil import runner
from dmil.autodiff import ContractError
from dmil.config import resolve_config
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


@pytest.mark.parametrize("method", ["dmil", "dmil_high", "dmil_low", "maml"])
def test_train_sgd_applies_the_step_gradients_once(method) -> None:
    # runner.train is the one place that applies the outer update.
    cfg = tiny(method)
    datasets = runner.build_datasets(cfg)
    start = runner.init_model(cfg)
    res = runner.train(cfg, datasets=datasets)

    # Replay the first iteration's task picks and step seed.
    task_rng = SplitMix64(derive_seed(0, runner.SALT_TASK_SELECT))
    batch = [datasets[0][task_rng.randint(2)] for _ in range(2)]
    step_seed = derive_seed(0, runner.SALT_STEP, 0)
    tc = runner.train_config_from(cfg)
    if method == "maml":
        g = runner.maml_train_step(start.skills[0], start.skill_shape, batch, tc, step_seed, "raw").g
        want_high, want_skills = start.high, [start.skills[0].minus_scaled(g, 1e-2)]
    else:
        step = runner.meta_train_step(start, batch, tc, step_seed)
        want_high = start.high.minus_scaled(step.g_high, 1e-2)
        want_skills = [s.minus_scaled(g, 1e-2) for s, g in zip(start.skills, step.g_skills)]
    assert np.array_equal(res.params.high.values, want_high.values)
    for got, want in zip(res.params.skills, want_skills, strict=True):
        assert np.array_equal(got.values, want.values)


def test_train_rejects_mismatched_warm_start(monkeypatch) -> None:
    def never(*args, **kwargs):
        raise AssertionError("training started despite a mismatched warm start")

    monkeypatch.setattr(runner, "maml_train_step", never)
    monkeypatch.setattr(runner, "meta_train_step", never)
    monkeypatch.setattr(runner, "build_datasets", never)
    k3 = runner.init_model(tiny("dmil"))
    with pytest.raises(ContractError, match="warm start has 3 skills; method maml needs 1"):
        runner.train(tiny("maml"), warm_params=k3)
    k1 = runner.init_model(tiny("maml"))
    with pytest.raises(ContractError, match="warm start has 1 skills; method dmil_low needs 3"):
        runner.train(tiny("dmil_low"), warm_params=k1)


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

