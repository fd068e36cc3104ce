"""Core bi-level training loop: a skill selector and K sub-skills, jointly
meta-learned so that a few gradient steps adapt both to a new task.

One training iteration runs four phases per task against the *unchanged*
pre-step parameters:

  selector inner update   - best-predicting sub-skill per step supplies hard
                            labels; the selector takes inner gradient steps
                            on cross-entropy (plus a switch-smoothness term).
  sub-skill inner update  - the adapted selector routes a second batch into K
                            per-skill datasets; each sub-skill takes inner
                            steps on its own MSE.
  selector meta-gradient  - outer cross-entropy on a third batch, pushed back
                            through the selector's inner steps.
  sub-skill meta-gradient - outer MSE on a fourth batch (routed by the
                            adapted selector), pushed back through each
                            sub-skill's inner steps.

task_phases is the one composition of the phases: meta_train_step and
runner.gradcheck_run both differentiate what it builds.  It runs phase by
phase over a stack of tasks whose phase batches have one shape: each phase
batch is pooled once for the stack (pool_stack), every selector pass
(labels, inner steps, routing, outer gradient) is one kernel call for all
the stack's tasks, and the sub-skills, whose routed sets differ in size,
adapt task by task, and task_phases returns what a per-task function makes
of their traces.  A Pool is every loss's batch: the selector's holds one-hot
skill labels as actions, a sub-skill's its routed rows.  The two inner
updates, adapt_selector and adapt_skills, also make up few-shot adaptation
on one unstacked pool, and the first alone the warm start's consolidation;
one Inner value carries an inner phase's settings into all these callers.

Meta-gradients are summed over tasks in list order, divided by the task
count and returned for one atomic update, which the caller (runner.train)
applies; no phase ever sees post-update parameters.  Hard label and routing
argmins are constants: no gradient flows through them.  A NumericError
raised in a step names the task's seed and the phase, in its message and as
its task_seed and phase fields.

outer_grad alone pushes an outer gradient, of the loss the trace carries,
back through an inner trace; lo_grad pools it over sub-skills.  Zero-step
traces give the hard-EM gradients (baselines.hard_em_grads); at K=1
meta_train_step is MAML (baselines.maml_train_step).  An empty batch is the
one no-step case (a zero-step trace, a zero gradient, loss 0.0): a level not
adapted, a sub-skill routed no pair, and a one-skill selector, which nothing
forwards (a one-way softmax is identically 1): hard_labels and route give
skill 0, partition_by_skill the whole pool uncopied, high_batch zero rows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from . import autodiff as ad
from .autodiff import (
    AdaptTrace,
    ContractError,
    NumericError,
    ParamVector,
    error_prefix,
    identity_trace,
    inner_adapt,
    meta_grad,
)
from .config import METHODS
from .data import Trajectory
from .kernels import SelectorLoss, SkillMseLoss
from .policies import HierarchicalParams, MlpShape, featurize, mlp_forward
from .rng import SplitMix64, derive_seed

T = TypeVar("T")

# ---------------------------------------------------------------------------
# the data path: pools, labels, routing, partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pool:
    """State-action pairs, the batch of every loss: network inputs `states`
    (N, in), actions (N, out) and per-trajectory row slices (switch terms
    never cross trajectory ends).  A phase batch is pooled once; its labels
    and routing read that Pool, the selector's batch shares its states and
    slices (high_batch), and one skill's partition is a Pool of its rows.
    A stack of m tasks' pools of one shape (pool_stack) holds (m, N, in)
    states, (m, N, out) actions and one slices tuple per task, and its
    length is N, the rows of each task."""

    states: np.ndarray
    actions: np.ndarray
    slices: tuple

    def __len__(self) -> int:
        return self.states.shape[-2]

    def empty(self) -> Pool:  # no rows: the batch of a network that takes no step
        return Pool(self.states[..., :0, :], self.actions[..., :0, :], ())

    def tasks(self) -> list[Pool]:  # each task's pool of a stack, as views
        return [Pool(*task) for task in zip(self.states, self.actions, self.slices, strict=True)]


def _slices(trajs: Sequence[Trajectory]) -> tuple[tuple[int, int], ...]:
    ends = tuple(itertools.accumulate(len(t) for t in trajs))
    return tuple(zip((0,) + ends[:-1], ends))


def pool(trajs: Sequence[Trajectory], features: str) -> Pool:
    """Flatten trajectories in trajectory then time order (every consumer
    relies on it for bit reproducibility), featurized by `features`
    (HierarchicalParams.feature_kind)."""
    if not trajs:
        raise ContractError("need at least one trajectory")
    states = np.concatenate([t.states for t in trajs], axis=0)
    actions = np.concatenate([t.actions for t in trajs], axis=0)
    return Pool(featurize(states, features), actions, _slices(trajs))


def pool_stack(groups: Sequence[Sequence[Trajectory]], features: str) -> Pool:
    """m trajectory groups of one row count N, one per task, as a stack: one
    pool of all their trajectories, group after group, viewed as (m, N, .)
    arrays, with each group's slices counted from its own first row.  The
    feature map acts row by row, so each slice is bitwise its group's pool."""
    p = pool([t for g in groups for t in g], features)
    m = len(groups)
    if any(sum(map(len, g)) * m != len(p) for g in groups):
        raise ContractError("stacked trajectory groups must have one row count")
    n = len(p) // m
    return Pool(p.states.reshape(m, n, -1), p.actions.reshape(m, n, -1), tuple(_slices(g) for g in groups))


def hard_labels(p: Pool, skills: Sequence[ParamVector | np.ndarray], skill_shape: MlpShape) -> np.ndarray:
    """Index (N,) of the sub-skill of least squared action error per pair;
    (m, N) for a stack, against skills shared by every task or, each, an
    (m, n_params) stack of one vector per task.

    Ties go to the lowest skill index (argmin's first match), which keeps the
    assignment deterministic and order-stable.  One skill wins every pair,
    with no forward."""
    if len(skills) == 1:
        return np.zeros(p.states.shape[:-1], dtype=np.intp)
    errors = np.stack(
        [np.sum((p.actions - mlp_forward(s, skill_shape, p.states)) ** 2, axis=-1) for s in skills],
        axis=-1,
    )
    return np.argmin(errors, axis=-1)


def route(selector: ParamVector | np.ndarray, high_shape: MlpShape, states: np.ndarray) -> np.ndarray:
    """The selector's argmax skill per row of network inputs (..., in), ties
    to the lowest index; a one-output selector picks 0 with no forward.  A
    stack of selectors (mlp_forward's (m, n_params) array) routes an
    (m, n, in) stack task by task, or an (m, n, 1, in) stack row by row."""
    if high_shape.out_dim == 1:
        return np.zeros(states.shape[:-1], dtype=np.intp)
    return np.argmax(mlp_forward(selector, high_shape, states), axis=-1)


def partition_by_skill(p: Pool, indices: np.ndarray, n_skills: int) -> tuple[Pool, ...]:
    """Split the pool's pairs by skill index, keeping pool order: one Pool
    per skill, disjoint and exhaustive, ready for the skill losses.  One
    skill gets every pair: the pool's own arrays, with no copy."""
    if n_skills == 1:
        return (Pool(p.states, p.actions, ()),)
    masks = [indices == k for k in range(n_skills)]
    return tuple(Pool(p.states[m], p.actions[m], ()) for m in masks)


def high_batch(p: Pool, labels: np.ndarray, n_skills: int) -> Pool:
    """The selector's batch: p's states and slices, uncopied, with the labels
    one-hot over n_skills as actions; no rows for one skill, whose selector
    loss has an exactly zero gradient (a one-way softmax is identically 1).
    A stacked pool takes (m, N) labels."""
    if labels.shape != p.states.shape[:-1]:
        raise ContractError("labels do not align with the pool")
    if n_skills == 1:
        return p.empty()
    return Pool(p.states, np.eye(n_skills)[labels], p.slices)


# ---------------------------------------------------------------------------
# the four phases
# ---------------------------------------------------------------------------


class Inner(NamedTuple):
    """One inner phase's settings: `steps` gradient steps of size `rate`,
    the selector loss's switch weight, and which levels adapt, as the
    (selector, sub-skills) pair of config.METHODS."""

    rate: float
    steps: int
    aux_weight: float
    adapts: tuple[bool, bool]


def _phase(name: str) -> error_prefix:
    """The context of phase `name`: a NumericError raised in it names the
    phase, in its message and its phase field."""
    return error_prefix(f"{name}: ", phase=name)


def _adapt(name: str, loss, theta: ParamVector, batch: Pool, inner: Inner, keep: bool) -> AdaptTrace:
    """theta's inner trace on batch, a zero-step one on an empty batch,
    in phase `name`."""
    if not len(batch):
        return identity_trace(theta, loss)
    with _phase(name):
        return inner_adapt(loss, theta, inner.rate, batch, inner.steps, keep)


def adapt_selector(params: HierarchicalParams, p: Pool, inner: Inner, keep: bool = True) -> AdaptTrace:
    """The selector's inner phase: `inner.steps` steps on p, labelled by the
    frozen sub-skills.  On a stack of tasks' pools the selectors of all
    tasks adapt as one stacked trace, one kernel pass per step for every
    task.  A selector that `inner` does not adapt gets an empty batch.  The
    trace carries its loss, and its linearizations (for meta_grad) only
    with `keep`."""
    batch = high_batch(p, hard_labels(p, params.skills, params.skill_shape), params.K) if inner.adapts[0] else p.empty()
    return _adapt("selector inner", SelectorLoss(params.high_shape, inner.aux_weight), params.high, batch, inner, keep)


def adapt_skills(
    params: HierarchicalParams, p: Pool, routes: np.ndarray | None, inner: Inner, keep: bool = True
) -> tuple[AdaptTrace, ...]:
    """One task's sub-skill inner phases: each sub-skill takes `inner.steps`
    steps on the pairs of its pool p that `routes` (the adapted selector's
    skill per row) sends it.  Sub-skills that `inner` does not adapt get
    empty batches, and routes is not read.  Traces as adapt_selector's."""
    loss = SkillMseLoss(params.skill_shape)
    batches = partition_by_skill(p, routes, params.K) if inner.adapts[1] else (p.empty(),) * params.K
    return tuple(_adapt(f"sub-skill {k} inner", loss, params.skills[k], b, inner, keep) for k, b in enumerate(batches))


def outer_grad(trace: AdaptTrace, batch: Pool) -> tuple[ParamVector, float | np.ndarray]:
    """Meta-gradient and outer loss of any network: the trace's loss on
    `batch` at its adapted parameters, pushed back through its inner steps;
    a stacked trace and batch give each slice's, as a stack and an (m,)
    array.  A zero-step trace gives the plain gradient at its parameters;
    an empty batch a zero gradient and loss 0.0."""
    if not len(batch):
        lead = batch.states.shape[:-2]
        return ParamVector.zeros(lead + (len(trace.final),)), np.zeros(lead) if lead else 0.0
    val, g_outer = ad.value_and_grad(trace.loss, trace.final, batch)
    return meta_grad(trace, g_outer), val


def lo_grad(traces_l: Sequence[AdaptTrace], batches: Sequence[Pool]) -> tuple[list[ParamVector], float]:
    """Per-skill outer_grad on the routed per-skill `batches`, and the
    outer loss pooled over their rows (0.0 with none)."""
    grads: list[ParamVector] = []
    sse_total, n_total = 0.0, 0
    for k, (trace, batch) in enumerate(zip(traces_l, batches, strict=True)):
        with _phase(f"sub-skill {k} outer"):
            g, val = outer_grad(trace, batch)
        grads.append(g)
        sse_total += val * len(batch)
        n_total += len(batch)
    return grads, sse_total / n_total if n_total else 0.0


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


def sample_phase_batches(
    support: Sequence[Trajectory], batch_size: int, rng: SplitMix64
) -> tuple[list[Trajectory], ...]:
    """Four trajectory batches: without replacement when the support set is
    big enough, cycling through one shuffle otherwise."""
    n = len(support)
    if n < 1:
        raise ContractError("support set is empty")
    perm = rng.permutation(n)
    idx = [perm[j % n] for j in range(4 * batch_size)]
    return tuple(
        [support[i] for i in idx[g * batch_size : (g + 1) * batch_size]] for g in range(4)
    )


@dataclass(frozen=True)
class StepResult:
    """One outer iteration of any method: the reduced gradients that
    runner.train hands to the outer optimizer, and what it logs."""

    g_high: ParamVector  # reduced selector gradient
    g_skills: tuple[ParamVector, ...]  # reduced sub-skill gradients
    outer_loss: float  # selector loss plus pooled sub-skill loss
    diverged_count: int  # tasks with a diverged inner adaptation

    @property
    def grad_norm_high(self) -> float:
        return float(np.linalg.norm(self.g_high.values))

    @property
    def grad_norm_skills(self) -> float:
        return float(np.sqrt(sum(np.sum(g.values**2) for g in self.g_skills)))


def task_phases(
    params: HierarchicalParams,
    groups: Sequence[tuple[Sequence[Trajectory], ...]],
    inner: Inner,
    per_task: Callable[[tuple[AdaptTrace, ...], tuple[Pool, ...]], T],
) -> tuple[AdaptTrace, Pool, list[T]]:
    """The four phases of a stack of m tasks, phase by phase.  groups holds
    each task's four trajectory groups, and each group pools to one shape in
    every task (meta_train_step stacks tasks so), and is pooled once, for
    all tasks (pool_stack).  adapt_selector adapts all tasks' selectors on
    groups 1 as one stack, and the adapted selectors route groups 2 (when
    the sub-skills adapt) and groups 4, one stack each.  Task by task,
    adapt_skills adapts the sub-skills on group 2 and per_task gets their
    traces and routed outer batches (lo_grad's arguments); only the traces'
    final vectors outlive its return.  Returns the selectors' stacked trace
    and outer batch (outer_grad's arguments): groups 3 labelled by each
    task's adapted sub-skills, and per_task's results in task order.  A
    level that is not adapted keeps a zero-step trace, whose meta-gradient
    is its plain outer gradient, taken on its inner batch instead: group 1
    labelled by the initial sub-skills for the selector, group 2 for the
    sub-skills."""

    def pooled(g: int) -> Pool:
        return pool_stack([task[g] for task in groups], params.feature_kind)

    def one_task(j: int, p2: Pool, routes2: np.ndarray | None, p4: Pool, routes4: np.ndarray) -> tuple[T, list]:
        with error_prefix("", j):  # its return frees the task's traces before the next task's phases
            traces_l = adapt_skills(params, p2, routes2, inner)
            return per_task(traces_l, partition_by_skill(p4, routes4, params.K)), [t.final.values for t in traces_l]

    adapt_high, adapt_low = inner.adapts
    p1, p2 = pooled(0), pooled(1)
    trace_h = adapt_selector(params, p1, inner)
    # Group 2 is routed before groups 3 and 4 are pooled.  The order no longer moves ablate's peak RSS: now that
    # dmil's train, not em_only's, sets it, a per-stage maxrss probe reads the two orders within 0.7 MiB.
    routes2 = route(trace_h.final.values, params.high_shape, p2.states) if adapt_low else itertools.repeat(None)
    p3 = pooled(2) if adapt_high else p1
    p4 = pooled(3) if adapt_low else p2
    routes4 = route(trace_h.final.values, params.high_shape, p4.states)
    results, finals = zip(*map(one_task, itertools.count(), p2.tasks(), routes2, p4.tasks(), routes4))
    label_skills = [np.stack(skill) for skill in zip(*finals)] if adapt_high else params.skills
    return trace_h, high_batch(p3, hard_labels(p3, label_skills, params.skill_shape), params.K), list(results)


def _task_grads(traces_l: tuple[AdaptTrace, ...], batches_l: tuple[Pool, ...]) -> tuple[list[ParamVector], float, bool]:
    """meta_train_step's per_task: lo_grad, and whether a trace diverged."""
    return *lo_grad(traces_l, batches_l), any(t.diverged for t in traces_l)


def meta_train_step(
    params: HierarchicalParams,
    tasks: Sequence,
    cfg: dict,
    step_seed: int,
) -> StepResult:
    """Reduced meta-gradients of one outer iteration over a batch of tasks.

    cfg is the resolved run config: its dmil section gives the inner phases
    and the batch size, and its method's METHODS row the meta-learned
    levels.  Tasks whose four phase groups have the same row counts form one
    stack, whose selector phases run as stacked passes (task_phases); the
    sub-skill phases run task by task, and return each task's sub-skill
    gradients.  Every phase reads only the pre-step `params`; meta-gradients
    accumulate in task order, one record per task, and the caller applies
    them once, atomically.  Batch sampling is a pure function of
    (step_seed, task.spec.seed), so permuting the task list only
    reassociates the gradient sum.  Any task failure aborts the whole step
    before any gradient is returned, and a NumericError names the task's
    seed and the phase (its task_seed and phase fields; task_seed is None
    when the error names no one task of a stack).
    """
    if not tasks:
        raise ContractError("meta_train_step needs at least one task")
    d = cfg["dmil"]
    inner = Inner(d["inner_rate"], d["inner_steps"], d["aux_weight"], METHODS[d["method"]].adapts)
    stacks: dict[tuple[int, ...], list] = {}
    for i, task in enumerate(tasks):
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        groups = sample_phase_batches(task.support, d["batch_size"], rng)
        stacks.setdefault(tuple(sum(map(len, g)) for g in groups), []).append((i, groups))
    records: list = [None] * len(tasks)  # per task: (g_high, high loss, g_skills, skill loss, diverged)
    for members in stacks.values():
        order = [i for i, _ in members]
        try:
            trace_h, batch_h, lows = task_phases(params, [g for _, g in members], inner, _task_grads)
            with _phase("selector outer"):
                g, vals = outer_grad(trace_h, batch_h)
        except NumericError as e:
            seeds = [tasks[i].spec.seed for i in (order if e.slice is None else [order[e.slice]])]
            task_seed = seeds[0] if len(seeds) == 1 else None
            raise e.prefixed(f"task seed {', '.join(map(str, seeds))}, ", task_seed=task_seed) from e
        flags = np.broadcast_to(trace_h.diverged, (len(order),))
        for j, (i, (g_l, val_l, diverged_l)) in enumerate(zip(order, lows)):
            records[i] = (g.values[j], vals[j], g_l, val_l, diverged_l or bool(flags[j]))
        del trace_h  # free this stack's selector linearizations before the next stack's phases
    g_high, high_vals, g_skills, skill_vals, diverged = zip(*records)

    def mean(rows) -> ParamVector:  # summed in task order
        return ParamVector._fresh(functools.reduce(np.add, rows, np.zeros(rows[0].shape)) * (1.0 / len(rows)))

    return StepResult(
        g_high=mean(g_high),
        g_skills=tuple(mean([task[k].values for task in g_skills]) for k in range(params.K)),
        outer_loss=float(np.mean(high_vals)) + float(np.mean(skill_vals)),
        diverged_count=sum(diverged),
    )


# ---------------------------------------------------------------------------
# test-time adaptation and action prediction
# ---------------------------------------------------------------------------


def few_shot_adapt(params: HierarchicalParams, demos: Sequence[Trajectory], inner: Inner) -> HierarchicalParams:
    """Adapt on a handful of demonstrations: the inner phases, as `inner`
    sets them, with both levels on the same pooled trajectories.  The input
    params are untouched, and the traces keep no linearizations: nothing
    differentiates them."""
    if not demos:
        raise ContractError("few_shot_adapt needs at least one demonstration")
    p = pool(demos, params.feature_kind)
    trace_h = adapt_selector(params, p, inner, keep=False)
    routes = route(trace_h.final.values, params.high_shape, p.states) if inner.adapts[1] else None
    traces_l = adapt_skills(params, p, routes, inner, keep=False)
    return params.with_updates(trace_h.final, tuple(t.final for t in traces_l))


def stacked_act(stack: Sequence[HierarchicalParams]) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The act of m parameter sets of one layout (network shapes, hence K,
    and feature map): raw states (m * n, state_dim) in m equal blocks,
    block i for set i, give actions (m * n, action_dim) and skills
    (m * n,).  The sets' vectors are stacked once, as mlp_forward's
    (m, n_params) arrays, for every call.  Each call runs one stacked
    selector forward (none with one skill), then, for each skill that some
    row chose, one stacked forward over every row (over the rows that chose
    it when m is 1), and a row keeps the action of its own choice.  Every
    row is one matmul per layer, so it is bitwise what a one-state call
    with its own set gives."""
    if not stack:
        raise ContractError("need at least one parameter set")
    layouts = {(params.high_shape, params.skill_shape, params.feature_kind) for params in stack}
    if len(layouts) > 1:
        raise ContractError(f"cannot stack parameter sets of different layouts: {layouts}")
    first, m = stack[0], len(stack)
    high = np.stack([params.high.values for params in stack])
    skills = [np.stack([params.skills[k].values for params in stack]) for k in range(first.K)]

    def act(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = featurize(states, first.feature_kind)
        if len(x) % m:
            raise ContractError(f"{len(x)} states do not split into {m} equal blocks")
        x = x.reshape(m, -1, 1, x.shape[-1])
        z = route(high, first.high_shape, x)[..., 0]
        out = first.skill_shape.out_dim
        actions = np.empty(z.shape + (out,))
        for k, theta in enumerate(skills):
            rows = z == k
            if not np.any(rows):
                continue
            if m == 1:  # one set: forward only the rows that chose k
                actions[rows] = mlp_forward(theta, first.skill_shape, x[rows][None]).reshape(-1, out)
            else:
                actions[rows] = mlp_forward(theta, first.skill_shape, x)[rows][:, 0]
        return actions.reshape(-1, out), z.reshape(-1)

    return act


def predict_action(params: HierarchicalParams, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Actions (n, action_dim) and skills (n,) for raw states (n, state_dim):
    the selector picks each row's skill (route) and that skill predicts the
    row's action.  The one-set case of stacked_act, so every row is bitwise
    what a one-state call gives."""
    return stacked_act([params])(states)
