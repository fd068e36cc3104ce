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
is pooled once (`pool`), and a Pool is every loss's batch: the selector's
holds one-hot skill labels as actions, a sub-skill's its routed rows.  The
two inner updates are adapt_phases, which few-shot adaptation and the warm
start's selector consolidation also run; one Inner value carries an inner
phase's settings into every one of these callers.

Meta-gradients are summed over tasks in list order, divided by the task
count and returned for one atomic update, which the caller (runner.train)
applies; no phase ever sees post-update parameters.  Hard label and routing
argmins are constants: no gradient flows through them.

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

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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
from .config import METHODS
from .data import Trajectory
from .kernels import SelectorLoss, SkillMseLoss
from .policies import HierarchicalParams, MlpShape, featurize, mlp_forward
from .rng import SplitMix64, derive_seed

# ---------------------------------------------------------------------------
# the data path: pools, labels, routing, partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pool:
    """State-action pairs, the batch of every loss: network inputs `states`
    (N, in), actions (N, out) and per-trajectory row slices (switch terms
    never cross trajectory ends).  A phase batch is pooled once; its labels
    and routing read that Pool, the selector's batch shares its states and
    slices (high_batch), and one skill's partition is a Pool of its rows."""

    states: np.ndarray
    actions: np.ndarray
    slices: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return self.states.shape[0]

    def empty(self) -> Pool:  # no rows: the batch of a network that takes no step
        return Pool(self.states[:0], self.actions[:0], ())


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


def route(selector: ParamVector | np.ndarray, high_shape: MlpShape, states: np.ndarray) -> np.ndarray:
    """The selector's argmax skill per row of network inputs (..., in), ties
    to the lowest index; a one-output selector picks 0 with no forward.  A
    stack of selectors (mlp_forward's (m, n_params) array) routes an
    (m, n, 1, in) stack."""
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
    loss has an exactly zero gradient (a one-way softmax is identically 1)."""
    if labels.shape[0] != len(p):
        raise ContractError("labels do not align with the pool")
    if n_skills == 1:
        return p.empty()
    onehot = np.zeros((labels.shape[0], n_skills))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return Pool(p.states, onehot, p.slices)


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


def adapt_phases(
    params: HierarchicalParams, p_high: Pool, p_low: Pool, inner: Inner, keep: bool = True
) -> tuple[AdaptTrace, tuple[AdaptTrace, ...]]:
    """The inner half of an iteration, and all of few-shot adaptation.

    The selector takes `inner.steps` inner steps on p_high, labelled by the
    frozen sub-skills; the adapted selector routes p_low, and each sub-skill
    takes as many inner steps on its routed pairs.  A level that is not
    adapted gets empty batches, and an empty batch a zero-step trace.  Each
    trace carries its network's loss, and its linearizations (for
    meta_grad) only with `keep`."""
    rate, steps, aux_weight, (adapt_high, adapt_low) = inner

    def adapt(loss, theta: ParamVector, batch: Pool) -> AdaptTrace:
        return inner_adapt(loss, theta, rate, batch, steps, keep) if len(batch) else identity_trace(theta, loss)

    if adapt_high:
        batch_h = high_batch(p_high, hard_labels(p_high, params.skills, params.skill_shape), params.K)
    else:
        batch_h = p_high.empty()
    trace_h = adapt(SelectorLoss(params.high_shape, aux_weight), params.high, batch_h)
    if adapt_low:
        batches = partition_by_skill(p_low, route(trace_h.final, params.high_shape, p_low.states), params.K)
    else:
        batches = (p_low.empty(),) * params.K
    loss = SkillMseLoss(params.skill_shape)
    return trace_h, tuple(adapt(loss, s, b) for s, b in zip(params.skills, batches))


def outer_grad(trace: AdaptTrace, batch: Pool) -> tuple[ParamVector, float]:
    """Meta-gradient and outer loss of any network: the trace's loss on
    `batch` at its adapted parameters, pushed back through its inner steps.
    A zero-step trace gives the plain gradient at its parameters; an empty
    batch a zero gradient and loss 0.0."""
    if not len(batch):
        return ParamVector.zeros(len(trace.final)), 0.0
    val, g_outer = ad.value_and_grad(trace.loss, trace.final, batch)
    return meta_grad(trace, g_outer), val


def lo_grad(traces_l: Sequence[AdaptTrace], batches: Sequence[Pool]) -> tuple[list[ParamVector], float]:
    """Per-skill outer_grad on the routed per-skill `batches`, and the
    outer loss pooled over their rows (0.0 with none)."""
    grads: list[ParamVector] = []
    sse_total, n_total = 0.0, 0
    for trace, batch in zip(traces_l, batches, strict=True):
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
    params: HierarchicalParams, groups: tuple[Sequence[Trajectory], ...], inner: Inner
) -> tuple[AdaptTrace, tuple[AdaptTrace, ...], Pool, tuple[Pool, ...]]:
    """One task's four phases, each trajectory group pooled once: the inner
    traces of adapt_phases (same settings) on groups 1 and 2, the
    selector's outer batch and the sub-skills' routed outer batches, for
    outer_grad and lo_grad.  A level that is not adapted keeps a zero-step
    trace, whose meta-gradient is its plain outer gradient, taken on its
    inner batch instead: group 1 labelled by the initial sub-skills for the
    selector, group 2 for the sub-skills."""
    t1, t2, t3, t4 = groups
    p1, p2 = pool(t1, params.feature_kind), pool(t2, params.feature_kind)
    trace_h, traces_l = adapt_phases(params, p1, p2, inner)
    adapt_high, adapt_low = inner.adapts
    if adapt_high:
        p3, label_skills = pool(t3, params.feature_kind), [t.final for t in traces_l]
    else:
        p3, label_skills = p1, params.skills
    batch_h = high_batch(p3, hard_labels(p3, label_skills, params.skill_shape), params.K)
    p4 = pool(t4, params.feature_kind) if adapt_low else p2
    batches_l = partition_by_skill(p4, route(trace_h.final, params.high_shape, p4.states), params.K)
    return trace_h, traces_l, batch_h, batches_l


def meta_train_step(
    params: HierarchicalParams,
    tasks: Sequence,
    cfg: dict,
    step_seed: int,
) -> StepResult:
    """Reduced meta-gradients of one outer iteration over a batch of tasks.

    cfg is the resolved run config: its dmil section gives the inner phases
    and the batch size, and its method's METHODS row the meta-learned
    levels.  Every phase reads only the pre-step `params`;
    meta-gradients accumulate in task order, and the caller applies them
    once, atomically.  Batch sampling is a pure function of (step_seed,
    task.spec.seed), so permuting the task list only reassociates the
    gradient sum.  Any task failure aborts the whole step before any
    gradient is returned.
    """
    if not tasks:
        raise ContractError("meta_train_step needs at least one task")
    g_high = ParamVector.zeros(len(params.high))
    g_skills = [ParamVector.zeros(len(s)) for s in params.skills]
    high_vals, skill_vals, diverged = [], [], 0
    d = cfg["dmil"]
    inner = Inner(d["inner_rate"], d["inner_steps"], d["aux_weight"], METHODS[d["method"]].adapts)
    for task in tasks:
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        groups = sample_phase_batches(task.support, d["batch_size"], rng)
        trace_h, traces_l, batch_h, batches_l = task_phases(params, groups, inner)
        task_high, high_val = outer_grad(trace_h, batch_h)
        task_skills, skill_val = lo_grad(traces_l, batches_l)
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


def few_shot_adapt(params: HierarchicalParams, demos: Sequence[Trajectory], inner: Inner) -> HierarchicalParams:
    """Adapt on a handful of demonstrations: the inner phases, as `inner`
    sets them, with both levels on the same pooled trajectories.  The input
    params are untouched, and the traces keep no linearizations: nothing
    differentiates them."""
    if not demos:
        raise ContractError("few_shot_adapt needs at least one demonstration")
    p = pool(demos, params.feature_kind)
    trace_h, traces_l = adapt_phases(params, p, p, inner, keep=False)
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
