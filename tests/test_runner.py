import ast
from pathlib import Path

import numpy as np
import pytest

from dmil import autodiff as ad
from dmil import evaluation, runner
from dmil.autodiff import ContractError, inner_adapt
from dmil.config import METHODS, resolve_config
from dmil.dmil import (
    TrainConfig,
    adapt_phases,
    hard_labels,
    high_batch,
    ho_grad,
    lo_grad,
    partition_by_skill,
    pool,
    route,
    task_phases,
)
from dmil.evaluation import max_rel_err
from dmil.policies import init_hierarchical
from dmil.rng import SplitMix64, derive_seed
from dmil.tasks import ACTION_DIM, STATE_DIM, rollout_expert, sample_task
from oracle import tape_high_loss, tape_skill_loss

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


def test_only_autodiff_names_the_tape() -> None:
    # The tape is a test reference (tests/oracle.py): autodiff keeps the
    # engine, and no other module of the package names a tape class,
    # function or loss.
    names = {"Node", "TapeLoss", "mlp_logits", "tape_high_loss", "tape_skill_loss"}
    src = Path(runner.__file__).parent
    found = [
        f"{path.name}:{getattr(node, 'lineno', '?')} {name}"
        for path in sorted(src.glob("*.py"))
        if path.name != "autodiff.py"
        for node in ast.walk(ast.parse(path.read_text()))
        for name in {getattr(node, field, None) for field in ("id", "attr", "name")} & names
    ]
    assert found == []


def test_only_tasks_and_evaluation_name_the_regime_count() -> None:
    # The simulator's regime count matters only where labels are made and
    # scored: skill recovery (evaluation) decides which policies it scores.
    src = Path(runner.__file__).parent
    found = [
        f"{path.name}:{getattr(node, 'lineno', '?')}"
        for path in sorted(src.glob("*.py"))
        if path.name not in ("tasks.py", "evaluation.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if "N_REGIMES" in {getattr(node, field, None) for field in ("id", "attr", "name")}
    ]
    assert found == []


def test_runner_builds_no_phase_of_its_own() -> None:
    # dmil.task_phases is the one composition of a task's phases: the
    # runner (training and gradcheck alike) labels, routes, partitions and
    # builds loss objects only through it.
    tree = ast.parse(Path(runner.__file__).read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert called & {"high_batch", "partition_by_skill", "route"} == set()
    kernels = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "kernels"
        or isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "kernels" for a in node.names)
    ]
    assert kernels == []


def same_pool(a, b) -> bool:
    return (
        a.states.tobytes() == b.states.tobytes()
        and a.actions.tobytes() == b.actions.tobytes()
        and a.slices == b.slices
    )


def same_high_batch(a, b) -> bool:
    return (
        a.states.tobytes() == b.states.tobytes()
        and a.onehot.tobytes() == b.onehot.tobytes()
        and a.slices == b.slices
        and a.aux_weight == b.aux_weight
    )


def tape_meta_grad(loss, theta, inner_batch, outer_batch, rate: float, steps: int):
    """Adapt on the inner batch, take the outer gradient, push it back."""
    trace = inner_adapt(loss, theta, rate, inner_batch, steps)
    return ad.meta_grad(trace, ad.value_and_grad(loss, trace.final, outer_batch)[1])


def test_gradcheck_instances_match_the_tape() -> None:
    # The closed-form meta-gradients (ho_grad, lo_grad) of dmil gradcheck's
    # instances 0 and 1 against the same chain on the tape losses: both are
    # exact, so only rounding separates them.  The batches built here by
    # hand are the reference for the ones task_phases returns and for the
    # inner batches its traces record.
    rate, aux, b = runner.GRADCHECK_INNER_RATE, 0.1, runner.GRADCHECK_TRAJECTORIES
    checked = 0
    for i in range(2):
        seed = runner.GRADCHECK_SEED0 + i
        params = init_hierarchical(
            STATE_DIM, ACTION_DIM, runner.GRADCHECK_SKILLS, (runner.GRADCHECK_HIDDEN,), seed=derive_seed(seed, 1)
        )
        trajs = [rollout_expert(sample_task(seed), runner.GRADCHECK_HORIZON, j) for j in range(4 * b)]
        groups = tuple(trajs[j * b : (j + 1) * b] for j in range(4))
        p1, p2, p3, p4 = (pool(group, params.feature_kind) for group in groups)
        tape_high, tape_skill = tape_high_loss(params.high_shape), tape_skill_loss(params.skill_shape)
        for steps in (1, 3):
            trace_h, traces_l = adapt_phases(params, p1, p2, rate, steps, aux)
            batch1 = high_batch(p1, hard_labels(p1, params.skills, params.skill_shape), params.K, aux)
            adapted = [t.final for t in traces_l]
            batch3 = high_batch(p3, hard_labels(p3, adapted, params.skill_shape), params.K, aux)
            exact_h = ho_grad(trace_h, params, batch3)[0]
            ref_h = tape_meta_grad(tape_high, params.high, batch1, batch3, rate, steps)
            assert max_rel_err(exact_h.values, ref_h.values) <= 1e-10

            batches2, batches4 = (
                partition_by_skill(q, route(trace_h.final, params.high_shape, q.states), params.K) for q in (p2, p4)
            )
            exact_l = lo_grad(traces_l, params, batches4)[0]

            cfg = TrainConfig(inner_rate=rate, inner_steps=steps, aux_weight=aux)
            phase_h, phase_l, batch_h, batches_l = task_phases(params, groups, cfg)
            assert same_high_batch(phase_h.batch, batch1) and same_high_batch(batch_h, batch3)
            assert len(batches_l) == len(phase_l) == params.K
            for trace, batch2k, got4, want4 in zip(phase_l, batches2, batches_l, batches4):
                assert same_pool(got4, want4)
                assert same_pool(trace.batch, batch2k) if len(batch2k) else trace.batch is None
            for k, (batch2k, batch4k) in enumerate(zip(batches2, batches4)):
                if len(batch2k) and len(batch4k):
                    ref = tape_meta_grad(tape_skill, params.skills[k], batch2k, batch4k, rate, steps)
                    assert max_rel_err(exact_l[k].values, ref.values) <= 1e-10
                    checked += 1
    assert checked > 0


def test_gradcheck_that_checks_no_objective_fails() -> None:
    cfg = resolve_config({"gradcheck": {"instances": 1}})
    cfg["gradcheck"]["inner_steps"] = []  # resolve_config rejects this; the report must too
    report = runner.gradcheck_run(cfg)
    assert report["skill_objectives_checked"] == 0
    assert report["pass"] is False


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

