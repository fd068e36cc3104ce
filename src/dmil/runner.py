"""Experiment orchestration shared by the command-line tool and the test
suite: dataset construction, the per-method training loop, evaluation sweeps,
and the composed-objective gradient check.

Determinism contract: every random draw descends from run.seed through fixed
salts, and per-task batch draws depend only on (step seed, task seed), so a
rerun with the same config produces byte-identical metrics and checkpoints.
Two run artifacts are excluded from that contract: the wall-clock timings in
timing.csv, and env.json, which records the environment the contract was
measured in (environment()).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import MALLOC_THRESHOLDS_SET, blas
from .autodiff import AdaptTrace, ContractError, ParamVector, error_prefix, inner_adapt, loss_value
from .baselines import em_only_train, hard_em_grads, maml_train_step  # noqa: F401  (train calls steps by name)
from .checkpoint import save_checkpoint
from .config import METHODS, ConfigError, dump_config
from .dmil import (
    Inner,
    Pool,
    StepResult,
    adapt_selector,
    hard_labels,
    lo_grad,
    meta_train_step,  # noqa: F401  (train calls steps by name)
    outer_grad,
    pool,
    task_phases,
)
from .evaluation import (
    HierarchicalPolicy,
    adapted_skill_accuracy,
    fd_check,
    query_mse,
    rollout_stats,
    write_report_csv,
    write_summary_json,
)
from .policies import HierarchicalParams, init_hierarchical
from .rng import SplitMix64, derive_seed
from .tasks import ACTION_DIM, STATE_DIM, TaskDataset, load_datasets, make_dataset, rollout_expert, sample_task

SALT_INIT = 0x1417
SALT_TASK_SELECT = 0x7A5C
SALT_STEP = 0x57E9

TRAIN_TASK_SEED0 = 1000  # train task i is sample_task(TRAIN_TASK_SEED0 + i)
TEST_TASK_SEED0 = 9000  # test task i is sample_task(TEST_TASK_SEED0 + i)

# The metrics.csv columns, one row per outer iteration, each value written as
# its repr (ints and floats: repr round-trips every bit).
METRICS_COLUMNS = ("iteration", "outer_loss", "grad_norm_high", "grad_norm_skills", "diverged")


def environment() -> dict:
    """What a run's bytes may depend on beyond its config: the python and
    numpy versions, the OpenBLAS build and its thread count, numpy's SIMD
    groups (the compiled-in baseline and the dispatch targets this CPU runs,
    from np.show_config, which names no "found" targets on a CPU with none
    above the baseline) and whether the malloc thresholds were set."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas.describe(),
        "numpy_simd": {"baseline": simd["baseline"], "found": simd.get("found", [])},
        "malloc_thresholds_set": MALLOC_THRESHOLDS_SET,
    }


def open_run_dir(out, cfg: dict) -> Path:
    """Make the run directory and write its config.json and env.json; a
    ConfigError, before anything is written, if it cannot be made or already
    holds files (another run's files would mix with this run's)."""
    out = Path(out)
    try:
        if out.is_dir() and any(out.iterdir()):
            raise ConfigError(f"run directory {out} is not empty")
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"run directory {out} cannot be made: {e.strerror}") from e
    (out / "config.json").write_text(dump_config(cfg))
    (out / "env.json").write_text(json.dumps(environment(), indent=2) + "\n")
    return out


class Sgd:
    """Plain descent, theta - lr * g, on every vector of the model: the
    default outer optimizer and every hard-EM step of the warm start."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: HierarchicalParams, grads: StepResult) -> HierarchicalParams:
        return params.with_updates(
            params.high.minus_scaled(grads.g_high, self.lr),
            tuple(s.minus_scaled(g, self.lr) for s, g in zip(params.skills, grads.g_skills, strict=True)),
        )


class Adam:
    """Adam on every vector of the model, with moments kept per vector
    (selector first): the outer optimizer under outer_optimizer "adam"."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr, self.t = lr, 0
        self.m: list[np.ndarray] = []  # zeros until the first step sizes them
        self.v: list[np.ndarray] = []

    def step(self, params: HierarchicalParams, grads: StepResult) -> HierarchicalParams:
        thetas = (params.high, *params.skills)
        self.m = self.m or [np.zeros(len(theta)) for theta in thetas]
        self.v = self.v or [np.zeros(len(theta)) for theta in thetas]
        self.t += 1
        out = []
        for i, (theta, grad) in enumerate(zip(thetas, (grads.g_high, *grads.g_skills), strict=True)):
            g = grad.values
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            mhat, vhat = self.m[i] / (1 - self.b1**self.t), self.v[i] / (1 - self.b2**self.t)
            out.append(ParamVector(theta.values - self.lr * mhat / (np.sqrt(vhat) + self.eps)))
        return params.with_updates(out[0], tuple(out[1:]))


# ---------------------------------------------------------------------------
# data and model construction
# ---------------------------------------------------------------------------


def build_split(cfg: dict, split: str) -> list[TaskDataset]:
    """The "train" or "test" tasks, loaded from the split's file when the
    config names both (resolve_config rejects one alone), else simulated,
    every task of the split in one make_dataset call."""
    d = cfg["data"]
    if d["train_path"]:
        return load_datasets(d[f"{split}_path"])
    seed0 = TRAIN_TASK_SEED0 if split == "train" else TEST_TASK_SEED0
    specs = [sample_task(seed0 + i) for i in range(d[f"n_{split}_tasks"])]
    seeds = [derive_seed(d["data_seed"], sp.seed) for sp in specs]
    return make_dataset(specs, d["n_support"], d["n_query"], d["horizon"], seeds)


def build_datasets(cfg: dict) -> tuple[list[TaskDataset], list[TaskDataset]]:
    return build_split(cfg, "train"), build_split(cfg, "test")


def n_skills_for(cfg: dict) -> int:
    """Skill count of the configured method."""
    return 1 if METHODS[cfg["dmil"]["method"]].one_network else cfg["model"]["n_skills"]


def init_model(cfg: dict, seed: int | None = None) -> HierarchicalParams:
    """The configured model, initialised from `seed` (default: the run's)."""
    return init_hierarchical(
        state_dim=STATE_DIM,
        action_dim=ACTION_DIM,
        n_skills=n_skills_for(cfg),
        hidden=tuple(cfg["model"]["hidden"]),
        seed=derive_seed(cfg["run"]["seed"], SALT_INIT) if seed is None else seed,
        features=cfg["model"]["features"],
    )


def check_model(cfg: dict, params: HierarchicalParams, what: str) -> None:
    """Reject parameters that are not the config's model, naming `what` they
    are and the first field that differs (feature map, K, layer sizes)."""
    want = init_model(cfg)
    for field, got, need in (
        ("features", params.feature_kind, want.feature_kind),
        ("K", params.K, want.K),
        ("selector layers", params.high_shape.layer_sizes, want.high_shape.layer_sizes),
        ("sub-skill layers", params.skill_shape.layer_sizes, want.skill_shape.layer_sizes),
    ):
        if got != need:
            raise ContractError(f"{what} {field} {got!r} does not match the config's {need!r}")


def _em_alternations(params: HierarchicalParams, p: Pool, epochs: int, lr: float, aux: float) -> HierarchicalParams:
    """Label-routed hard-EM alternations (the classical E/M pairing), each an
    Sgd step at lr: a sub-skill trains only on the pairs it currently wins,
    so per-pair competition stays alive and no single network absorbs all."""
    sgd = Sgd(lr)
    for _ in range(epochs):
        labels = hard_labels(p, params.skills, params.skill_shape)
        params = sgd.step(params, hard_em_grads(params, p, labels, labels, aux))
    return params


def _em_fit_score(params: HierarchicalParams, p: Pool) -> float:
    """Self-contained basin score: selector cross-entropy against the current
    labels plus the label-routed pooled MSE.  Low scores mean the labels are
    both state-predictable and well fit, which tracks decomposition quality."""
    labels = hard_labels(p, params.skills, params.skill_shape)
    return hard_em_grads(params, p, labels, labels, 0.0).outer_loss


def warm_start(cfg: dict, train_tasks) -> HierarchicalParams:
    """Cold-start cure for hard-EM at desk scale, applied identically to every
    method before its own training.

    Hard-EM is init-sensitive, so several restarts run short alternation
    probes and the best basin (by the self-contained fit score) continues:
    remaining alternations, then a selector-only consolidation (the
    selector's inner phase, adapt_selector) so routing works from the first
    outer iteration.  The fixed pool is flattened and
    featurized once for every epoch.  Everything is a pure function of
    (config, data), so paired methods share the identical warm start.  A
    NumericError raised in it says "warm start: ", as it names no task.
    """
    m = cfg["dmil"]
    if m["warmup_epochs"] <= 0 and m["warmup_consolidate"] <= 0:
        return init_model(cfg)
    per_task = m["warmup_trajs_per_task"]
    p = pool([t for task in train_tasks for t in task.support[:per_task]], cfg["model"]["features"])
    lr = m["warmup_rate"]
    aux = m["aux_weight"]

    seeds = [derive_seed(cfg["run"]["seed"], SALT_INIT, r) for r in range(m["warmup_restarts"])]
    candidates = [init_model(cfg, seed=s) for s in seeds]

    with error_prefix("warm start: "):
        probe = min(m["warmup_probe_epochs"], m["warmup_epochs"])
        probed = [_em_alternations(c, p, probe, lr, aux) for c in candidates]
        params = probed[int(np.argmin([_em_fit_score(c, p) for c in probed]))]
        params = _em_alternations(params, p, m["warmup_epochs"] - probe, lr, aux)
        if m["warmup_consolidate"] <= 0:
            return params
        trace_h = adapt_selector(params, p, Inner(lr, m["warmup_consolidate"], aux, (True, False)), keep=False)
    return params.with_updates(trace_h.final, params.skills)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainResult:
    params: HierarchicalParams
    method: str
    metrics: tuple[dict, ...]  # one row per outer iteration
    diverged_total: int
    train_tasks: tuple[TaskDataset, ...]
    test_tasks: tuple[TaskDataset, ...]


def train(cfg: dict, out_dir=None, datasets=None, warm_params=None) -> TrainResult:
    """Train one method per cfg; optionally persist run artifacts to out_dir,
    a run directory that open_run_dir made.

    `datasets` lets callers share prebuilt (train, test) task lists across
    paired runs, and `warm_params` a precomputed warm start of the config's
    model (else check_model fails before any work); both are pure functions
    of the config, so sharing only saves recomputation.

    The outer update of all five methods happens only here: one
    outer_optimizer object at outer_rate applies each step's StepResult,
    gradients at the pre-step parameters, to the whole model.  A
    NumericError in an iteration names the method and the iteration first,
    and carries them as its method and iteration fields.
    """
    method = cfg["dmil"]["method"]
    if warm_params is not None:
        check_model(cfg, warm_params, "warm start")
    train_tasks, test_tasks = datasets if datasets is not None else build_datasets(cfg)
    run = cfg["run"]
    seed = run["seed"]
    params = warm_start(cfg, train_tasks) if warm_params is None else warm_params
    task_rng = SplitMix64(derive_seed(seed, SALT_TASK_SELECT))
    n_train = len(train_tasks)
    optimizer = {"sgd": Sgd, "adam": Adam}[cfg["dmil"]["outer_optimizer"]](cfg["dmil"]["outer_rate"])

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        save_checkpoint(out / "checkpoint_000000.json", params, method, task_rng.state, 0)
        (out / "metrics.csv").write_text(",".join(METRICS_COLUMNS) + "\n")
        (out / "timing.csv").write_text("iteration,seconds\n")

    rows: list[dict] = []
    diverged_total = 0
    for it in range(run["iterations"]):
        t0 = time.perf_counter()
        picks = [task_rng.randint(n_train) for _ in range(cfg["dmil"]["tasks_per_step"])]
        batch_tasks = [train_tasks[i] for i in picks]
        step_seed = derive_seed(seed, SALT_STEP, it)

        with error_prefix(f"{method} iteration {it}, ", method=method, iteration=it):
            # Looked up by name in this module's globals on every call, so that a
            # wrapper set on runner's attribute (a test, a profiler) sees each step.
            res = globals()[METHODS[method].step](params, batch_tasks, cfg, step_seed)
            params = optimizer.step(params, res)
        values = (it, res.outer_loss, res.grad_norm_high, res.grad_norm_skills, res.diverged_count)
        rows.append(dict(zip(METRICS_COLUMNS, values, strict=True)))
        diverged_total += res.diverged_count
        seconds = time.perf_counter() - t0
        if out is not None:
            # Closed after each row, so a run that stops keeps every finished iteration's rows.
            with (out / "metrics.csv").open("a") as metrics, (out / "timing.csv").open("a") as timing:
                metrics.write(",".join(repr(v) for v in values) + "\n")
                timing.write(f"{it},{seconds:.6f}\n")
            if run["checkpoint_every"] > 0 and (it + 1) % run["checkpoint_every"] == 0:
                save_checkpoint(out / f"checkpoint_{it + 1:06d}.json", params, method, task_rng.state, it + 1)

    if out is not None:
        save_checkpoint(out / "checkpoint_final.json", params, method, task_rng.state, run["iterations"])
    return TrainResult(
        params=params,
        method=method,
        metrics=tuple(rows),
        diverged_total=diverged_total,
        train_tasks=tuple(train_tasks),
        test_tasks=tuple(test_tasks),
    )


# ---------------------------------------------------------------------------
# evaluation sweep
# ---------------------------------------------------------------------------


def check_eval(cfg: dict, test_tasks: Sequence[TaskDataset]) -> None:
    """Every eval.shots count must fit in each test task's support set;
    callers run this before anything trains or is written."""
    most = max(cfg["eval"]["shots"])
    for task in test_tasks:
        if most > len(task.support):
            raise ContractError(
                f"eval.shots={most} exceeds the {len(task.support)} support "
                f"demonstrations of test task {task.spec.seed}"
            )


def evaluate(
    cfg: dict,
    params: HierarchicalParams,
    method: str,
    test_tasks: Sequence[TaskDataset],
) -> list[dict]:
    """One row per (shots, task), in that order.  Each task's query set is
    predicted once by the unadapted policy, whose MSE every shots row of the
    task shares, and once by each adapted policy, whose actions and skills
    give the post-adaptation MSE and the skill recovery.  Every test task
    is adapted for every shots count, then one rollout_stats call steps the
    rollout episodes of all those policies together."""
    check_eval(cfg, test_tasks)
    e = cfg["eval"]
    queries = [np.concatenate([t.states for t in task.query]) for task in test_tasks]
    pre_mse: list[float] = []
    adapted = []  # shots-major, as the rows
    for shots in e["shots"]:
        steps = e["adapt_steps"] * shots if e["scale_steps_with_shots"] else e["adapt_steps"]
        inner = Inner(e["adapt_rate"], steps, cfg["dmil"]["aux_weight"], METHODS[method].adapts)
        policy = HierarchicalPolicy(params, inner)
        pre_mse = pre_mse or [query_mse(policy.act(s)[0], task) for s, task in zip(queries, test_tasks)]
        adapted += [policy.adapt(list(task.support[:shots])) for task in test_tasks]
    specs = [task.spec for task in test_tasks] * len(e["shots"])
    stats = rollout_stats(adapted, specs, e["episodes"], cfg["data"]["horizon"])
    rows = []
    cases = product(e["shots"], zip(test_tasks, pre_mse, queries))
    for (shots, (task, pre, states)), policy, st in zip(cases, adapted, stats, strict=True):
        actions, skills = policy.act(states)
        rows.append(
            dict(
                method=method,
                seed=cfg["run"]["seed"],
                task_seed=task.spec.seed,
                shots=shots,
                pre_mse=pre,
                post_mse=query_mse(actions, task),
                skill_acc=adapted_skill_accuracy(skills, params.K, task),
                switch_rate=st.mean_switch_rate,
                success=st.success_rate,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# gradient check on the composed adapt-then-evaluate objectives
# ---------------------------------------------------------------------------


# Gradcheck instance i: a network of GRADCHECK_SKILLS skills with one hidden
# layer of GRADCHECK_HIDDEN units on task GRADCHECK_SEED0 + i, and phase
# batches of GRADCHECK_TRAJECTORIES demonstrations of GRADCHECK_HORIZON steps.
GRADCHECK_HIDDEN = 8
GRADCHECK_SKILLS = 2
GRADCHECK_SEED0 = 42
GRADCHECK_TRAJECTORIES = 1
GRADCHECK_HORIZON = 16
GRADCHECK_INNER_RATE = 5e-4
GRADCHECK_FD_STEP = 1e-5
# Largest relative difference allowed against finite differences.
GRADCHECK_TOLERANCE = 1e-4


def _fd_rel_err(trace: AdaptTrace, outer_batch, exact: ParamVector) -> float:
    """fd_check of `exact` on the trace's composed objective: its inner steps
    replayed from perturbed start parameters, then its loss on outer_batch.
    A one-task stack (the selector's) is checked as its one slice."""

    def objective(vals):
        tr = inner_adapt(trace.loss, ParamVector(vals), trace.rate, trace.batch, len(trace.points), keep=False)
        return float(np.sum(loss_value(trace.loss, tr.final, outer_batch)))

    return fd_check(objective, trace.points[0].values, exact.values.reshape(-1), GRADCHECK_FD_STEP)


def _fd_rel_errs(traces_l: Sequence[AdaptTrace], batches_l: Sequence[Pool]) -> list[float]:
    """_fd_rel_err of each sub-skill with an inner step and an outer batch."""
    exact = lo_grad(traces_l, batches_l)[0]
    return [_fd_rel_err(t, batch, g) for t, batch, g in zip(traces_l, batches_l, exact) if t.points and len(batch)]


def gradcheck_run(cfg: dict) -> dict:
    """Exact selector/sub-skill meta-gradients on random small instances,
    checked against central finite differences of the composed
    adapt-then-evaluate objectives that training's own composition
    (dmil.task_phases, on a one-task stack) builds; a sub-skill with no
    inner step or an empty outer batch is skipped.  Returns a report with
    the worst errors; it passes if at least one sub-skill objective was
    checked and every error is within GRADCHECK_TOLERANCE."""
    g = cfg["gradcheck"]
    t0 = time.perf_counter()
    high_errs, low_errs = [], []
    for i in range(g["instances"]):
        seed = GRADCHECK_SEED0 + i
        params = init_hierarchical(STATE_DIM, ACTION_DIM, GRADCHECK_SKILLS, (GRADCHECK_HIDDEN,), seed=derive_seed(seed, 1))
        spec = sample_task(seed)
        b = GRADCHECK_TRAJECTORIES
        trajs = [rollout_expert(spec, GRADCHECK_HORIZON, j) for j in range(4 * b)]
        groups = tuple(trajs[j * b : (j + 1) * b] for j in range(4))
        for steps in g["inner_steps"]:
            inner = Inner(GRADCHECK_INNER_RATE, steps, 0.1, (True, True))
            trace_h, batch_h, (errs,) = task_phases(params, [groups], inner, _fd_rel_errs)
            high_errs.append(_fd_rel_err(trace_h, batch_h, outer_grad(trace_h, batch_h)[0]))
            low_errs += errs
    elapsed = time.perf_counter() - t0
    worst_high, worst_low = max(high_errs, default=0.0), max(low_errs, default=0.0)
    return {
        "instances": g["instances"],
        "skill_objectives_checked": len(low_errs),
        "max_rel_err_high": worst_high,
        "max_rel_err_low": worst_low,
        "tolerance": GRADCHECK_TOLERANCE,
        "pass": bool(low_errs and max(worst_high, worst_low) <= GRADCHECK_TOLERANCE),
        "elapsed_seconds": elapsed,
    }


# ---------------------------------------------------------------------------
# ablation sweep
# ---------------------------------------------------------------------------


class Run(NamedTuple):
    """One campaign entry: its evaluation rows, its metric rows and diverged
    count, and the seconds its warm start (if it made one), train and
    evaluate took.  No parameters, which no campaign caller reads."""

    rows: list[dict]
    metrics: tuple[dict, ...]
    diverged_total: int
    seconds: float


def campaign(plan: dict[str, dict], datasets, out_dir=None) -> dict[str, Run]:
    """Each named, resolved config of `plan` in order: warm_start, train from
    it on the shared (train, test) `datasets`, then evaluate, each looked up
    in runner's globals (where a test or the benchmark wraps it); with
    out_dir, into the run directory out_dir/name.  warm_start reads the
    method only through the skill count, so configs that differ at most in
    a method of the same count share the warm start the first of them
    computes.  Every eval.shots is checked before anything trains."""
    for cfg in plan.values():
        check_eval(cfg, datasets[1])
    warm: dict[tuple[int, str], HierarchicalParams] = {}
    runs: dict[str, Run] = {}
    for name, cfg in plan.items():
        t0 = time.perf_counter()
        key = (n_skills_for(cfg), dump_config(cfg | {"dmil": cfg["dmil"] | {"method": None}}))
        if key not in warm:
            warm[key] = warm_start(cfg, datasets[0])
        run_dir = open_run_dir(Path(out_dir) / name, cfg) if out_dir is not None else None
        res = train(cfg, out_dir=run_dir, datasets=datasets, warm_params=warm[key])
        rows = evaluate(cfg, res.params, cfg["dmil"]["method"], res.test_tasks)
        runs[name] = Run(rows, res.metrics, res.diverged_total, time.perf_counter() - t0)
    return runs


def ablate(cfg: dict, out_dir=None, datasets=None) -> list[dict]:
    """Every method on identical seeds and batch schedules, one campaign
    entry each; returns the paired report rows.  `datasets` are prebuilt
    (train, test) task lists, as in train."""
    datasets = build_datasets(cfg) if datasets is None else datasets
    plan = {method: cfg | {"dmil": cfg["dmil"] | {"method": method}} for method in METHODS}
    rows = [row for run in campaign(plan, datasets, out_dir).values() for row in run.rows]
    if out_dir is not None:
        write_report_csv(Path(out_dir) / "ablate_report.csv", rows)
        write_summary_json(Path(out_dir) / "ablate_summary.json", rows)
    return rows
