import ast
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from dmil import autodiff as ad
from dmil import dmil, evaluation, runner
from dmil.autodiff import ContractError, NumericError, ParamVector, inner_adapt
from dmil.checkpoint import save_checkpoint
from dmil.cli import main
from dmil.config import METHODS, load_config, resolve_config
from dmil.dmil import (
    Inner,
    StepResult,
    adapt_selector,
    adapt_skills,
    hard_labels,
    high_batch,
    lo_grad,
    outer_grad,
    partition_by_skill,
    pool,
    route,
)
from dmil.evaluation import max_rel_err
from dmil.policies import init_hierarchical
from dmil.rng import SplitMix64, derive_seed
from dmil.tasks import ACTION_DIM, STATE_DIM, rollout_expert, sample_task
import oracle
from oracle import tape_high_loss, tape_skill_loss
from phases import one_task_phases

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

    called, trained = [], []

    def spy(name):
        keep = getattr(runner, name)
        return lambda *args: called.append(name) or keep(*args)

    for name in {r.step for r in METHODS.values()}:
        monkeypatch.setattr(runner, name, spy(name))

    def phase(name):
        keep = getattr(dmil, name)

        def recording(*args, **kwargs):
            bound = inspect.signature(keep).bind(*args, **kwargs)
            trained.append((name, bound.arguments["inner"].adapts))
            return keep(*args, **kwargs)

        return recording

    with monkeypatch.context() as m:
        for name in ("adapt_selector", "adapt_skills"):
            m.setattr(dmil, name, phase(name))
        res = runner.train(cfg)
    assert called == [row.step]
    # The meta-learned levels: what the step hands to the inner phases, in
    # one adapt_selector call per stack of equal-shape tasks, then one
    # adapt_skills call per task, and every step's tasks here share one
    # shape (em_only takes no inner step).
    n_stacks, n_tasks = cfg["run"]["iterations"], cfg["dmil"]["tasks_per_step"]
    assert n_tasks > 1
    phases = [("adapt_selector", row.adapts)] + [("adapt_skills", row.adapts)] * n_tasks
    assert trained == ([] if method == "em_only" else phases * n_stacks)

    levels = []
    keep_adapt = evaluation.few_shot_adapt

    def adapt(params, demos, inner):
        levels.append(inner.adapts)
        return keep_adapt(params, demos, inner)

    monkeypatch.setattr(evaluation, "few_shot_adapt", adapt)
    runner.evaluate(cfg, res.params, method, res.test_tasks)
    assert levels == [row.adapts]


@pytest.mark.parametrize("scale", [True, False])
def test_evaluate_builds_one_inner_phase_per_shots_count(monkeypatch, scale) -> None:
    # Few-shot adaptation runs eval.adapt_rate, eval.adapt_steps (times the
    # shots count when eval.scale_steps_with_shots is on) and dmil.aux_weight.
    cfg = tiny(aux_weight=0.25)
    cfg["eval"].update(shots=[1, 3], adapt_rate=2e-3, adapt_steps=2, scale_steps_with_shots=scale)
    received = []
    keep_adapt = evaluation.few_shot_adapt

    def adapt(params, demos, inner):
        received.append(inner)
        return keep_adapt(params, demos, inner)

    monkeypatch.setattr(evaluation, "few_shot_adapt", adapt)
    _, test_tasks = runner.build_datasets(cfg)
    runner.evaluate(cfg, runner.init_model(cfg), "dmil", test_tasks)
    steps = [2, 6] if scale else [2, 2]
    assert received == [Inner(2e-3, s, 0.25, METHODS["dmil"].adapts) for s in steps]


def test_warm_start_consolidates_the_selector_alone(monkeypatch) -> None:
    # The consolidation is the selector's inner phase at the warm start's
    # rate and switch weight, and keeps no linearizations.
    cfg = tiny(aux_weight=0.25, warmup_epochs=2, warmup_consolidate=3, warmup_rate=4e-2, warmup_probe_epochs=1)
    received = []
    keep_phase = runner.adapt_selector

    def phase(params, p, inner, keep=True):
        received.append((inner, keep))
        return keep_phase(params, p, inner, keep)

    monkeypatch.setattr(runner, "adapt_selector", phase)
    runner.warm_start(cfg, runner.build_datasets(cfg)[0])
    assert received == [(Inner(4e-2, 3, 0.25, (True, False)), False)]


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


def _names(path: Path) -> set:
    return {getattr(node, f, None) for node in ast.walk(ast.parse(path.read_text())) for f in ("id", "attr", "name")}


def test_one_number_rule_and_one_model_check() -> None:
    # Both file loaders read numbers through data.finite_reals and
    # data.json_int: the checkpoint loader neither coerces file content to
    # float64 nor tests integers itself.  runner.check_model is the one
    # model comparison, so cli names no model field.
    src = Path(runner.__file__).parent
    for name in ("checkpoint.py", "tasks.py"):
        assert {"finite_reals", "json_int"} <= _names(src / name), name
    assert not _names(src / "cli.py") & {"layer_sizes", "feature_kind"}
    found = []
    for node in ast.walk(ast.parse((src / "checkpoint.py").read_text())):
        if isinstance(node, ast.Call) and any(k.arg == "dtype" for k in node.keywords):
            found.append(f"checkpoint.py:{node.lineno} converts with a dtype")
        left = getattr(node, "left", None)
        if isinstance(node, ast.Compare) and isinstance(left, ast.Call) and getattr(left.func, "id", None) == "type":
            found.append(f"checkpoint.py:{node.lineno} tests a type")
    assert found == []


# The tape engine that tests/oracle.py holds: its ops, their bookkeeping
# and its backward pass.
TAPE_ENGINE = frozenset({
    "constant", "leaf", "_op", "add", "sub", "neg", "mul", "div", "smul", "sadd", "matmul", "transpose", "relu",
    "exp", "log", "asum", "mean", "expand", "sum_rows", "sum_cols", "expand_rows", "expand_cols", "reshape",
    "slice1d", "pad1d", "slice_rows", "pad_rows", "add_rowvec", "log_softmax", "_toposort", "backward",
})
TAPE_LOSSES = frozenset({"TapeLoss", "mlp_logits", "tape_high_loss", "tape_skill_loss"})


def test_only_autodiff_names_the_tape() -> None:
    # The tape is a test reference (tests/oracle.py).  autodiff keeps only
    # its entry, Node, which the benchmark's tracer counts: it defines,
    # imports and names none of the engine or the tape losses (an attribute
    # such as numpy's reshape is not a name of the tape).  No other module
    # names Node or a tape loss, or takes an engine name from autodiff;
    # kernels' own backward pass is a namesake.
    assert len(TAPE_ENGINE) == 31 and all(callable(getattr(oracle, name)) for name in TAPE_ENGINE)
    src = Path(runner.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {
            a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name == "autodiff"
        }
        for node in ast.walk(tree):
            named = {getattr(node, field, None) for field in ("id", "name", "arg")}
            if path.name == "autodiff.py":
                bad = named & (TAPE_ENGINE | TAPE_LOSSES)
            else:
                bad = (named | {getattr(node, "attr", None)}) & (TAPE_LOSSES | {"Node"})
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
                    bad |= {a.name for a in node.names} & TAPE_ENGINE
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                    bad |= {node.attr} & TAPE_ENGINE
            found += [f"{path.name}:{getattr(node, 'lineno', '?')} {name}" for name in sorted(bad)]
    assert found == []


def test_no_command_builds_a_tape_node(monkeypatch, tmp_path) -> None:
    # Every command takes its derivatives from the closed forms: ablate (all
    # five methods, the warm start and evaluate), gradcheck, gen-data and
    # eval from dataset files construct no autodiff.Node.
    built = []
    init = ad.Node.__init__

    def counted(node, *args, **kwargs):
        built.append(1)
        init(node, *args, **kwargs)

    monkeypatch.setattr(ad.Node, "__init__", counted)
    oracle.constant(np.zeros(1))
    assert built == [1]  # the counter sees the oracle's tape
    built.clear()
    runner.ablate(resolve_config({
        "data": {"n_train_tasks": 2, "n_test_tasks": 1, "n_support": 4, "n_query": 1, "horizon": 20},
        "model": {"hidden": [8], "n_skills": 3},
        "dmil": {"batch_size": 1, "tasks_per_step": 2, "inner_rate": 1e-3, "inner_steps": 2,
                 "warmup_epochs": 2, "warmup_consolidate": 1, "warmup_restarts": 2, "warmup_probe_epochs": 1},
        "eval": {"shots": [1], "episodes": 1, "adapt_steps": 1},
        "run": {"iterations": 1, "checkpoint_every": 0},
    }))
    assert runner.gradcheck_run(resolve_config({"gradcheck": {"instances": 1}}))["pass"]
    data, config, ckpt = tmp_path / "data", tmp_path / "config.json", tmp_path / "ck.json"
    config.write_text(json.dumps(TINY))
    assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
    paths = {"train_path": str(data / "train.jsonl"), "test_path": str(data / "test.jsonl")}
    config.write_text(json.dumps({**TINY, "data": {**TINY["data"], **paths}}))
    save_checkpoint(ckpt, runner.init_model(load_config(config)), "dmil", 1, 0)
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt)]) == 0
    assert built == []


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
    # runner (training and gradcheck alike) labels, routes, partitions,
    # adapts sub-skills and builds loss objects only through it; the warm
    # start's consolidation is the selector's phase alone.
    tree = ast.parse(Path(runner.__file__).read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert called & {"high_batch", "partition_by_skill", "route", "adapt_skills"} == set()
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


def tape_meta_grad(loss, theta, inner_batch, outer_batch, rate: float, steps: int):
    """Adapt on the inner batch, take the outer gradient, push it back."""
    trace = inner_adapt(loss, theta, rate, inner_batch, steps)
    return ad.meta_grad(trace, ad.value_and_grad(loss, trace.final, outer_batch)[1])


def test_gradcheck_instances_match_the_tape() -> None:
    # The closed-form meta-gradients (outer_grad, lo_grad) of dmil gradcheck's
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
        tape_high, tape_skill = tape_high_loss(params.high_shape, aux), tape_skill_loss(params.skill_shape)
        for steps in (1, 3):
            inner = Inner(rate, steps, aux, (True, True))
            trace_h = adapt_selector(params, p1, inner)
            traces_l = adapt_skills(params, p2, route(trace_h.final, params.high_shape, p2.states), inner)
            batch1 = high_batch(p1, hard_labels(p1, params.skills, params.skill_shape), params.K)
            adapted = [t.final for t in traces_l]
            batch3 = high_batch(p3, hard_labels(p3, adapted, params.skill_shape), params.K)
            exact_h = outer_grad(trace_h, batch3)[0]
            ref_h = tape_meta_grad(tape_high, params.high, batch1, batch3, rate, steps)
            assert max_rel_err(exact_h.values, ref_h.values) <= 1e-10

            batches2, batches4 = (
                partition_by_skill(q, route(trace_h.final, params.high_shape, q.states), params.K) for q in (p2, p4)
            )
            exact_l = lo_grad(traces_l, batches4)[0]

            phase_h, phase_l, batch_h, batches_l = one_task_phases(params, groups, inner)
            # the selector's batches are one-task stacks
            assert same_pool(*phase_h.batch.tasks(), batch1) and same_pool(*batch_h.tasks(), batch3)
            assert phase_h.loss.aux_weight == aux
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
    # every method and under both outer optimizers, each of which updates
    # the whole model.
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
        grads = step(start, batch, cfg, step_seed)
        assert grads.grad_norm_skills > 0.0
        want = opt_class(1e-2).step(start, grads)
        assert np.array_equal(res.params.high.values, want.high.values)
        for got, want_skill in zip(res.params.skills, want.skills, strict=True):
            assert np.array_equal(got.values, want_skill.values)
        if method == "maml":  # the zero selector gradient leaves the selector as it is
            assert np.array_equal(res.params.high.values, start.high.values)


def test_optimizers_match_a_per_vector_reference() -> None:
    # Several steps on a K=3 model with gradients that change in size and
    # sign: Sgd is minus_scaled on each vector, and Adam carries its moments
    # and step count per vector as the textbook update does, bit for bit.
    params = init_hierarchical(STATE_DIM, ACTION_DIM, 3, (8,), seed=0)
    rng = np.random.default_rng(0)
    steps = [
        [rng.normal(size=len(v)) * 10.0 ** (t - 2) for v in (params.high, *params.skills)] for t in range(5)
    ]
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    sgd, adam = runner.Sgd(lr), runner.Adam(lr)
    got_sgd = got_adam = params
    want_sgd = [p.values for p in (params.high, *params.skills)]
    want_adam = list(want_sgd)
    m = [np.zeros(len(p)) for p in want_adam]
    v = [np.zeros(len(p)) for p in want_adam]
    for t, gs in enumerate(steps, start=1):
        grads = StepResult(ParamVector(gs[0]), tuple(ParamVector(g) for g in gs[1:]), 0.0, 0)
        got_sgd, got_adam = sgd.step(got_sgd, grads), adam.step(got_adam, grads)
        want_sgd = [theta - lr * g for theta, g in zip(want_sgd, gs, strict=True)]
        for i, g in enumerate(gs):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            want_adam[i] = want_adam[i] - lr * mhat / (np.sqrt(vhat) + eps)
        for got, want in ((got_sgd, want_sgd), (got_adam, want_adam)):
            assert got.K == 3
            for a, b in zip((got.high, *got.skills), want, strict=True):
                assert np.array_equal(a.values, b)
    assert adam.t == len(steps)


def test_one_optimizer_path(monkeypatch) -> None:
    # Every update of the whole model goes through runner.Sgd or runner.Adam:
    # minus_scaled is called only inside Sgd, neither train nor the warm
    # start's alternations rebuild the model themselves, the alternations
    # step through Sgd, and both constructors take only the learning rate.
    tree = ast.parse(Path(runner.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}

    def calls(node, attr: str) -> list[int]:
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == attr]

    assert calls(tree, "minus_scaled") == calls(defs["Sgd"], "minus_scaled") != []
    for name in ("train", "_em_alternations"):
        assert calls(defs[name], "with_updates") == [], name
    assert "Sgd" in {getattr(n, "id", None) for n in ast.walk(defs["_em_alternations"])}
    for name in ("Sgd", "Adam"):
        init = next(n for n in defs[name].body if getattr(n, "name", None) == "__init__")
        assert ast.unparse(init.args) == "self, lr: float", name

    # One optimizer object serves the whole run.
    made = []

    class Counted(runner.Adam):
        def __init__(self, lr):
            made.append(lr)
            super().__init__(lr)

    monkeypatch.setattr(runner, "Adam", Counted)
    cfg = tiny("dmil", outer_optimizer="adam")
    cfg["run"]["iterations"] = 2
    runner.train(cfg)
    assert made == [1e-2]


def test_train_rejects_mismatched_warm_start(monkeypatch) -> None:
    def never(*args, **kwargs):
        raise AssertionError("training started despite a mismatched warm start")

    monkeypatch.setattr(runner, "maml_train_step", never)
    monkeypatch.setattr(runner, "meta_train_step", never)
    monkeypatch.setattr(runner, "em_only_train", never)
    monkeypatch.setattr(runner, "build_datasets", never)
    k3 = runner.init_model(tiny("dmil"))
    with pytest.raises(ContractError, match="^warm start K 3 does not match the config's 1$"):
        runner.train(tiny("maml"), warm_params=k3)
    k1 = runner.init_model(tiny("maml"))
    with pytest.raises(ContractError, match="^warm start K 1 does not match the config's 3$"):
        runner.train(tiny("dmil_low"), warm_params=k1)
    with pytest.raises(ContractError, match="^warm start K 1 does not match the config's 3$"):
        runner.train(tiny("em_only"), warm_params=k1)
    # The same skill count, but another network or feature map: the warm
    # start's model would be trained in place of the configured one.
    wide = init_hierarchical(STATE_DIM, ACTION_DIM, 3, (16, 16), seed=0, features="raw")
    want = r"^warm start selector layers \(4, 16, 16, 3\) does not match the config's \(4, 8, 3\)$"
    with pytest.raises(ContractError, match=want):
        runner.train(tiny("dmil"), warm_params=wide)
    relative = init_hierarchical(STATE_DIM, ACTION_DIM, 3, (8,), seed=0, features="relative")
    with pytest.raises(ContractError, match="^warm start features 'relative' does not match the config's 'raw'$"):
        runner.train(tiny("dmil"), warm_params=relative)


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



def test_a_non_finite_step_error_carries_its_context_as_fields(monkeypatch) -> None:
    # The method, the iteration, the task's seed and the phase that the
    # message names are also fields of the error.  A NaN in one support
    # state of the second iteration's second task reaches its selector's
    # inner loss (batch_size 4 puts every support trajectory into every
    # phase batch).
    keep = runner.meta_train_step
    calls, bad_seeds = [], []

    def step(params, tasks, cfg, step_seed):
        calls.append(step_seed)
        if len(calls) == 2:
            bad = tasks[1]
            bad_seeds.append(bad.spec.seed)
            states = bad.support[0].states.copy()
            states[0, 0] = np.nan
            support = (dataclasses.replace(bad.support[0], states=states),) + bad.support[1:]
            tasks = [tasks[0], dataclasses.replace(bad, support=support)]
        return keep(params, tasks, cfg, step_seed)

    monkeypatch.setattr(runner, "meta_train_step", step)
    cfg = tiny(batch_size=4)
    cfg["run"]["iterations"] = 3
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
        runner.train(cfg)
    e = exc.value
    assert (e.method, e.iteration, e.task_seed, e.phase) == ("dmil", 1, bad_seeds[0], "selector inner")
    assert str(e).startswith(f"dmil iteration 1, task seed {bad_seeds[0]}, selector inner: non-finite loss")
