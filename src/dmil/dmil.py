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
runner.gradcheck_run both differentiate what it builds.  Each phase batch
is pooled once (flatten and feature map, `pool`), and labels, routing and
selector batches all read that Pool; each sub-skill's routed data set is a
Pool of its rows.  The two inner updates are adapt_phases, which few-shot
adaptation and the warm start's selector consolidation also run.

Meta-gradients are summed over tasks in list order, divided by the task
count and returned for one atomic update, which the caller (runner.train)
applies; no phase ever sees post-update parameters.  Hard label and routing
argmins are constants: no gradient flows through them.

ho_grad and lo_grad are the only code that pushes an outer gradient back
through an inner trace.  With zero-step traces they return the plain
hard-EM gradients (baselines.hard_em_grads); at K=1 meta_train_step is
MAML (baselines.maml_train_step is the same function).  Nothing forwards or
differentiates a one-skill selector (a one-way softmax, identically 1):
hard_labels and route give skill 0, partition_by_skill the whole pool
uncopied, high_batch None and ho_grad a zero gradient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import (
    AdaptTrace,
    ContractError,
    ParamVector,
    identity_trace,
    inner_adapt,
    meta_grad,
)
from .config import DEFAULT_CONFIG
from .data import Trajectory
from .kernels import SelectorLoss, SkillMseLoss
from .policies import HierarchicalParams, MlpShape, featurize, mlp_forward
from .rng import SplitMix64, derive_seed

# ---------------------------------------------------------------------------
# the data path: pools, labels, routing, partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pool:
    """State-action pairs, the input of every loss: network inputs `states`
    (N, in), actions (N, action_dim) and per-trajectory row slices (switch
    terms never cross trajectory ends).  A phase batch is pooled once, and
    its labels, routing, partitions and selector batch all read that Pool;
    one skill's partition is a Pool of its rows, with no slices."""

    states: np.ndarray
    actions: np.ndarray
    slices: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return self.states.shape[0]


def pool(trajs: Sequence[Trajectory], features: str) -> Pool:
    """Flatten trajectories in trajectory then time order (every consumer
    relies on it for bit reproducibility), featurized by `features`
    (HierarchicalParams.feature_kind)."""
    if not trajs:
        raise ContractError("need at least one trajectory")
    states = np.concatenate([t.states for t in trajs], axis=0)
    actions = np.concatenate([t.actions for t in trajs], axis=0)
    ends = tuple(itertools.accumulate(len(t) for t in trajs))
    return Pool(featurize(states, features), actions, tuple(zip((0,) + ends[:-1], ends)))


def hard_labels(p: Pool, skills: Sequence[ParamVector], skill_shape: MlpShape) -> np.ndarray:
    """Index (N,) of the sub-skill of least squared action error per pair.

    Ties go to the lowest skill index (argmin's first match), which keeps the
    assignment deterministic and order-stable.  One skill wins every pair,
    with no forward."""
    if len(skills) == 1:
        return np.zeros(len(p), dtype=np.intp)
    errors = np.stack(
        [np.sum((p.actions - mlp_forward(s, skill_shape, p.states)) ** 2, axis=1) for s in skills],
        axis=1,
    )
    return np.argmin(errors, axis=1)


def route(selector: ParamVector, high_shape: MlpShape, states: np.ndarray) -> np.ndarray:
    """The selector's argmax skill per row of network inputs (..., in), ties
    to the lowest index; a one-output selector picks 0 with no forward."""
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


@dataclass(frozen=True)
class HighBatch:
    """Constant inputs for the selector loss: pooled states, one-hot labels,
    per-trajectory row slices (switch terms never cross trajectory ends).
    The constants every evaluation of the loss on the batch shares are
    derived once: the pair mask (1.0 at row t when rows t and t+1 lie in one
    slice), the pair count and the cross-entropy's dL/dlogp."""

    states: np.ndarray
    onehot: np.ndarray
    slices: tuple[tuple[int, int], ...]
    aux_weight: float
    pairs: np.ndarray = field(init=False)
    n_pairs: float = field(init=False)
    ce_grad: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.states.shape[0]
        pairs = np.zeros(max(n - 1, 0))
        for start, stop in self.slices:
            if stop - start >= 2:
                pairs[start : stop - 1] = 1.0
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "n_pairs", np.sum(pairs))
        object.__setattr__(self, "ce_grad", self.onehot * (-1.0 / n))


def high_batch(p: Pool, labels: np.ndarray, n_skills: int, aux_weight: float) -> HighBatch | None:
    """Selector loss inputs on a pool: its inputs, the labels one-hot over
    n_skills, its trajectory slices; None for one skill, whose selector
    loss has an exactly zero gradient (a one-way softmax is identically 1)."""
    if labels.shape[0] != len(p):
        raise ContractError("labels do not align with the pool")
    if n_skills == 1:
        return None
    onehot = np.zeros((labels.shape[0], n_skills))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return HighBatch(p.states, onehot, p.slices, aux_weight)


# ---------------------------------------------------------------------------
# the four phases
# ---------------------------------------------------------------------------


def adapt_phases(
    params: HierarchicalParams,
    p_high: Pool,
    p_low: Pool,
    rate: float,
    steps: int,
    aux_weight: float,
    adapt_high: bool = True,
    adapt_low: bool = True,
    keep: bool = True,
) -> tuple[AdaptTrace, tuple[AdaptTrace, ...]]:
    """The inner half of an iteration, and all of few-shot adaptation.

    The selector takes `steps` inner steps on p_high, labelled by the frozen
    sub-skills; the adapted selector routes p_low, and each sub-skill takes
    `steps` inner steps on its routed pairs.  A level that is not adapted,
    a one-skill selector and a sub-skill routed no pair keep a zero-step
    trace.  The traces keep their linearizations for meta_grad only with
    `keep`."""
    labels = hard_labels(p_high, params.skills, params.skill_shape) if adapt_high else None
    batch = None if labels is None else high_batch(p_high, labels, params.K, aux_weight)
    loss_h = SelectorLoss(params.high_shape)
    trace_h = identity_trace(params.high) if batch is None else inner_adapt(loss_h, params.high, rate, batch, steps, keep)
    if not adapt_low:
        return trace_h, tuple(identity_trace(s) for s in params.skills)
    batches = partition_by_skill(p_low, route(trace_h.final, params.high_shape, p_low.states), params.K)
    loss = SkillMseLoss(params.skill_shape)
    traces_l = tuple(
        inner_adapt(loss, s, rate, b, steps, keep) if len(b) else identity_trace(s)
        for s, b in zip(params.skills, batches)
    )
    return trace_h, traces_l


def ho_grad(trace_h: AdaptTrace, params: HierarchicalParams, batch: HighBatch | None) -> tuple[ParamVector, float]:
    """Selector meta-gradient and outer loss: the loss on `batch` at the
    adapted selector, pushed back through its inner steps.  A zero-step
    trace gives the plain gradient at params.high; a one-skill selector (no
    batch) gets a zero gradient and loss 0.0."""
    if batch is None:
        return ParamVector.zeros(len(params.high)), 0.0
    val, g_outer = ad.value_and_grad(SelectorLoss(params.high_shape), trace_h.final, batch)
    return meta_grad(trace_h, g_outer), val


def lo_grad(
    traces_l: Sequence[AdaptTrace], params: HierarchicalParams, batches: Sequence[Pool]
) -> tuple[list[ParamVector], float]:
    """Per-skill meta-gradients and the pooled outer loss on the routed
    per-skill `batches`.  Skills whose batch is empty contribute zero
    vectors."""
    loss = SkillMseLoss(params.skill_shape)
    grads: list[ParamVector] = []
    sse_total, n_total = 0.0, 0
    for trace, batch in zip(traces_l, batches, strict=True):
        if not len(batch):
            grads.append(ParamVector.zeros(len(trace.final)))
            continue
        val, g_outer = ad.value_and_grad(loss, trace.final, batch)
        grads.append(meta_grad(trace, g_outer))
        sse_total += val * len(batch)
        n_total += len(batch)
    pooled = sse_total / n_total if n_total else 0.0
    return grads, pooled


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one meta-training step of dmil and its ablations.  Defaults
    are the config's (the published hyperparameter table); benchmark configs
    override them per run.  Meta-gradients are exact and averaged over tasks.
    The outer update itself (rate and optimizer) belongs to the caller."""

    inner_rate: float = DEFAULT_CONFIG["dmil"]["inner_rate"]
    inner_steps: int = DEFAULT_CONFIG["dmil"]["inner_steps"]
    aux_weight: float = DEFAULT_CONFIG["dmil"]["aux_weight"]
    batch_size: int = DEFAULT_CONFIG["dmil"]["batch_size"]  # trajectories per phase batch
    meta_high: bool = True  # False: selector gets a plain gradient on batch 1
    meta_low: bool = True  # False: sub-skills get plain gradients on batch 2


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
    groups: tuple[Sequence[Trajectory], ...],
    cfg: TrainConfig,
) -> tuple[AdaptTrace, tuple[AdaptTrace, ...], HighBatch | None, tuple[Pool, ...]]:
    """One task's four phases, each trajectory group pooled once: the inner
    traces, the selector's outer batch and the sub-skills' routed outer
    batches, for ho_grad and lo_grad.  A level that is not meta-learned
    keeps a zero-step trace, whose meta-gradient is its plain outer
    gradient, taken on its inner batch instead: group 1 labelled by the
    initial sub-skills for the selector, group 2 for the sub-skills."""
    t1, t2, t3, t4 = groups
    p1, p2 = pool(t1, params.feature_kind), pool(t2, params.feature_kind)
    trace_h, traces_l = adapt_phases(
        params, p1, p2, cfg.inner_rate, cfg.inner_steps, cfg.aux_weight, cfg.meta_high, cfg.meta_low
    )
    if cfg.meta_high:
        p3, label_skills = pool(t3, params.feature_kind), [t.final for t in traces_l]
    else:
        p3, label_skills = p1, params.skills
    batch_h = high_batch(p3, hard_labels(p3, label_skills, params.skill_shape), params.K, cfg.aux_weight)
    p4 = pool(t4, params.feature_kind) if cfg.meta_low else p2
    batches_l = partition_by_skill(p4, route(trace_h.final, params.high_shape, p4.states), params.K)
    return trace_h, traces_l, batch_h, batches_l


def meta_train_step(
    params: HierarchicalParams,
    tasks: Sequence,
    cfg: TrainConfig,
    step_seed: int,
) -> StepResult:
    """Reduced meta-gradients of one outer iteration over a batch of tasks.

    Every phase reads only the pre-step `params`; meta-gradients accumulate in
    task order, and the caller applies them once, atomically.  Batch
    sampling is a pure function of (step_seed, task.spec.seed), so permuting
    the task list only reassociates the gradient sum.  Any task failure
    aborts the whole step before any gradient is returned.
    """
    if not tasks:
        raise ContractError("meta_train_step needs at least one task")
    g_high = ParamVector.zeros(len(params.high))
    g_skills = [ParamVector.zeros(len(s)) for s in params.skills]
    high_vals, skill_vals, diverged = [], [], 0
    for task in tasks:
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        groups = sample_phase_batches(task.support, cfg.batch_size, rng)
        trace_h, traces_l, batch_h, batches_l = task_phases(params, groups, cfg)
        task_high, high_val = ho_grad(trace_h, params, batch_h)
        task_skills, skill_val = lo_grad(traces_l, params, batches_l)
        g_high = g_high.add(task_high)
        g_skills = [a.add(b) for a, b in zip(g_skills, task_skills, strict=True)]
        high_vals.append(high_val)
        skill_vals.append(skill_val)
        diverged += int(trace_h.diverged or any(t.diverged for t in traces_l))
        del trace_h, traces_l  # free this task's linearizations before the next task's phases
    c = 1.0 / len(tasks)
    return StepResult(
        g_high=g_high.scaled(c),
        g_skills=tuple(g.scaled(c) for g in g_skills),
        outer_loss=float(np.mean(high_vals)) + float(np.mean(skill_vals)),
        diverged_count=diverged,
    )


# ---------------------------------------------------------------------------
# test-time adaptation and action prediction
# ---------------------------------------------------------------------------


def few_shot_adapt(
    params: HierarchicalParams,
    demos: Sequence[Trajectory],
    rate: float,
    steps: int,
    aux_weight: float = 0.0,
    adapt_high: bool = True,
    adapt_low: bool = True,
) -> HierarchicalParams:
    """Adapt on a handful of demonstrations: the inner phases with both
    levels on the same pooled trajectories.  The input params are untouched,
    and the traces keep no linearizations: nothing differentiates them."""
    if not demos:
        raise ContractError("few_shot_adapt needs at least one demonstration")
    p = pool(demos, params.feature_kind)
    trace_h, traces_l = adapt_phases(params, p, p, rate, steps, aux_weight, adapt_high, adapt_low, keep=False)
    return params.with_updates(trace_h.final, tuple(t.final for t in traces_l))


def predict_action(params: HierarchicalParams, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Actions (n, action_dim) and skills (n,) for raw states (n, state_dim):
    the selector picks each row's skill (route) and that skill predicts the
    row's action.  One selector forward (none with one skill), then one
    forward per chosen skill, each over an (n, 1, in) stack, so every row is
    bitwise what a one-state call gives."""
    x = featurize(states, params.feature_kind)[:, None, :]
    z = route(params.high, params.high_shape, x)[:, 0]
    actions = np.empty((len(z), params.skill_shape.out_dim))
    for k in range(params.K):
        rows = z == k
        if np.any(rows):
            actions[rows] = mlp_forward(params.skills[k], params.skill_shape, x[rows])[:, 0]
    return actions, z

