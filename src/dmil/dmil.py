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

Meta-gradients are summed over tasks in list order, divided by the task
count and returned for one atomic update, which the caller (runner.train)
applies; no phase ever sees post-update parameters.  Hard label and routing
argmins are constants: no gradient flows through them.

ho_grad and lo_grad are the only code that pushes an outer gradient back
through an inner trace.  With zero-step traces they return the plain
hard-EM gradients (baselines.hard_em_grads); with K=1 and the selector left
unadapted the step is MAML (baselines.maml_train_step).
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .data import Trajectory, flatten_trajectories
from .kernels import SelectorLoss, SkillMseLoss
from .policies import HierarchicalParams, MlpShape, featurize, mlp_forward, mlp_logits
from .rng import SplitMix64, derive_seed

# ---------------------------------------------------------------------------
# labels, partitions, losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkillLabels:
    """Per-timestep hard skill assignments (one-hot over K)."""

    indices: np.ndarray  # (N,) int64
    onehot: np.ndarray  # (N, K) float64

    @classmethod
    def from_indices(cls, indices: np.ndarray, n_skills: int) -> "SkillLabels":
        idx = np.asarray(indices, dtype=np.int64)
        onehot = np.zeros((idx.shape[0], n_skills))
        onehot[np.arange(idx.shape[0]), idx] = 1.0
        idx.setflags(write=False)
        onehot.setflags(write=False)
        return cls(idx, onehot)

    def __len__(self) -> int:
        return self.indices.shape[0]


def hard_labels(
    states: np.ndarray,
    actions: np.ndarray,
    skills: Sequence[ParamVector],
    skill_shape: MlpShape,
    features: str = "raw",
) -> SkillLabels:
    """Label each pair with the sub-skill of least squared action error.

    Ties go to the lowest skill index (argmin's first match), which keeps the
    assignment deterministic and order-stable.
    """
    x = featurize(states, features)
    errors = np.stack(
        [np.sum((actions - mlp_forward(s, skill_shape, x)) ** 2, axis=1) for s in skills],
        axis=1,
    )
    return SkillLabels.from_indices(np.argmin(errors, axis=1), len(skills))


@dataclass(frozen=True)
class Partition:
    """Per-skill (state, action) datasets; disjoint and exhaustive by build."""

    states: tuple[np.ndarray, ...]
    actions: tuple[np.ndarray, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.shape[0] for s in self.states)

    @property
    def K(self) -> int:
        return len(self.states)


def partition_pairs(
    states: np.ndarray, actions: np.ndarray, indices: np.ndarray, n_skills: int
) -> Partition:
    groups_s, groups_a = [], []
    for k in range(n_skills):
        mask = indices == k
        groups_s.append(states[mask])
        groups_a.append(actions[mask])
    return Partition(tuple(groups_s), tuple(groups_a))


def partition_by_skill(
    selector: ParamVector,
    high_shape: MlpShape,
    trajs: Sequence[Trajectory],
    features: str = "raw",
) -> Partition:
    """Route every pair to the selector's argmax skill (ties: lowest index).

    The returned groups hold featurized states, ready for the skill losses."""
    states, actions, _ = flatten_trajectories(trajs)
    x = featurize(states, features)
    logits = mlp_forward(selector, high_shape, x)
    return partition_pairs(x, actions, np.argmax(logits, axis=1), high_shape.out_dim)


def aux_loss(probs: np.ndarray) -> float:
    """Expected-switch surrogate over one probability sequence.

    (1/(T-1)) * sum_t (1 - <p_t, p_{t+1}>): 0 for a constant hard sequence,
    exactly 1 for a hard alternating one.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[0] < 2:
        raise ContractError("aux_loss needs at least two timesteps")
    dots = np.sum(probs[:-1] * probs[1:], axis=1)
    return float(np.mean(1.0 - dots))


@dataclass(frozen=True)
class HighBatch:
    """Constant inputs for the selector loss: pooled states, one-hot labels,
    per-trajectory row slices (switch terms never cross trajectory ends)."""

    states: np.ndarray
    onehot: np.ndarray
    slices: tuple[tuple[int, int], ...]
    aux_weight: float


@dataclass(frozen=True)
class SkillBatch:
    states: np.ndarray
    actions: np.ndarray


def make_high_loss(shape: MlpShape) -> SelectorLoss:
    """Mean cross-entropy vs hard labels plus aux_weight * switch surrogate,
    in closed form (dmil.kernels)."""
    return SelectorLoss(shape)


def make_skill_loss(shape: MlpShape) -> SkillMseLoss:
    """Behavior-cloning MSE: mean over pairs of squared action error, in
    closed form (dmil.kernels)."""
    return SkillMseLoss(shape)


def tape_high_loss(shape: MlpShape) -> ad.TapeLoss:
    """make_high_loss on the tape: the reference for the closed form."""

    def selector_loss(p: ad.Node, batch: HighBatch) -> ad.Node:
        logits = mlp_logits(p, shape, batch.states)
        logp = ad.log_softmax(logits)
        ce = ad.neg(ad.mean(ad.sum_cols(ad.mul(logp, ad.constant(batch.onehot)))))
        if batch.aux_weight == 0.0:
            return ce
        probs = ad.exp(logp)
        total_dot = None
        pairs = 0
        for start, stop in batch.slices:
            if stop - start < 2:
                continue
            d = ad.asum(
                ad.mul(ad.slice_rows(probs, start, stop - 1), ad.slice_rows(probs, start + 1, stop))
            )
            total_dot = d if total_dot is None else ad.add(total_dot, d)
            pairs += stop - start - 1
        if total_dot is None:
            return ce
        aux = ad.sadd(ad.smul(total_dot, -1.0 / pairs), 1.0)
        return ad.add(ce, ad.smul(aux, batch.aux_weight))

    return ad.TapeLoss(selector_loss, SelectorLoss.name)


def tape_skill_loss(shape: MlpShape) -> ad.TapeLoss:
    """make_skill_loss on the tape: the reference for the closed form."""

    def skill_mse_loss(p: ad.Node, batch: SkillBatch) -> ad.Node:
        pred = mlp_logits(p, shape, batch.states)
        r = ad.sub(pred, ad.constant(batch.actions))
        return ad.smul(ad.asum(ad.mul(r, r)), 1.0 / batch.states.shape[0])

    return ad.TapeLoss(skill_mse_loss, SkillMseLoss.name)


def build_high_batch(
    trajs: Sequence[Trajectory], labels: SkillLabels, aux_weight: float, features: str = "raw"
) -> HighBatch:
    states, _, slices = flatten_trajectories(trajs)
    if len(labels) != states.shape[0]:
        raise ContractError("labels do not align with the trajectory batch")
    return HighBatch(featurize(states, features), labels.onehot, slices, aux_weight)


# ---------------------------------------------------------------------------
# the four phases
# ---------------------------------------------------------------------------


def labelled_high_batch(
    params: HierarchicalParams,
    trajs: Sequence[Trajectory],
    label_skills: Sequence[ParamVector],
    aux_weight: float,
) -> HighBatch:
    """Selector batch on trajs, labelled by the best of label_skills."""
    states, actions, _ = flatten_trajectories(trajs)
    labels = hard_labels(states, actions, label_skills, params.skill_shape, params.feature_kind)
    return build_high_batch(trajs, labels, aux_weight, params.feature_kind)


def hi_step(
    params: HierarchicalParams,
    trajs: Sequence[Trajectory],
    rate: float,
    steps: int,
    aux_weight: float,
) -> AdaptTrace:
    """Selector inner update; labels come from the frozen sub-skills."""
    batch = labelled_high_batch(params, trajs, params.skills, aux_weight)
    return inner_adapt(make_high_loss(params.high_shape), params.high, rate, batch, steps)


def li_step(
    params: HierarchicalParams,
    partition: Partition,
    rate: float,
    steps: int,
) -> tuple[AdaptTrace, ...]:
    """Per-skill inner updates on the routed datasets; empty set => identity."""
    if partition.K != params.K:
        raise ContractError(f"partition has {partition.K} groups for {params.K} skills")
    loss = make_skill_loss(params.skill_shape)
    traces = []
    for k in range(params.K):
        if partition.sizes[k] == 0:
            traces.append(identity_trace(params.skills[k]))
        else:
            batch = SkillBatch(partition.states[k], partition.actions[k])
            traces.append(inner_adapt(loss, params.skills[k], rate, batch, steps))
    return tuple(traces)


def ho_grad(
    trace_h: AdaptTrace, params: HierarchicalParams, batch: HighBatch
) -> tuple[ParamVector, float]:
    """Selector meta-gradient and outer loss: the loss on `batch` at the
    adapted selector, pushed back through its inner steps.  A zero-step
    trace gives the plain gradient at params.high."""
    val, g_outer = ad.value_and_grad(make_high_loss(params.high_shape), trace_h.final, batch)
    return meta_grad(trace_h, g_outer), val


def lo_grad(
    traces_l: Sequence[AdaptTrace], params: HierarchicalParams, part: Partition
) -> tuple[list[ParamVector], float]:
    """Per-skill meta-gradients and the pooled outer loss on the routed
    groups of `part`.  Skills whose group is empty contribute zero vectors."""
    loss = make_skill_loss(params.skill_shape)
    grads: list[ParamVector] = []
    sse_total, n_total = 0.0, 0
    for k in range(params.K):
        if part.sizes[k] == 0:
            grads.append(ParamVector.zeros(len(params.skills[k])))
            continue
        batch = SkillBatch(part.states[k], part.actions[k])
        val, g_outer = ad.value_and_grad(loss, traces_l[k].final, batch)
        grads.append(meta_grad(traces_l[k], g_outer))
        sse_total += val * part.sizes[k]
        n_total += part.sizes[k]
    pooled = sse_total / n_total if n_total else 0.0
    return grads, pooled


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one meta-training step of dmil and its ablations.  Defaults
    follow the published hyperparameter table; benchmark configs override
    them per run.  Meta-gradients are exact and averaged over tasks.  The
    outer update itself (rate and optimizer) belongs to the caller."""

    inner_rate: float = 5e-4
    inner_steps: int = 3
    aux_weight: float = 0.1
    batch_size: int = 16  # trajectories per phase batch
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


def _task_meta_grads(
    params: HierarchicalParams,
    batches: tuple[list[Trajectory], ...],
    cfg: TrainConfig,
) -> tuple[ParamVector, list[ParamVector], float, float, bool]:
    """One task's four phases.  A level that is not meta-learned keeps a
    zero-step trace, whose meta-gradient is its plain outer gradient, taken
    on its inner batch instead: t1 labelled by the initial sub-skills for
    the selector, t2 for the sub-skills."""
    t1, t2, t3, t4 = batches

    if cfg.meta_high:
        trace_h = hi_step(params, t1, cfg.inner_rate, cfg.inner_steps, cfg.aux_weight)
    else:
        trace_h = identity_trace(params.high)

    if cfg.meta_low:
        part2 = partition_by_skill(trace_h.final, params.high_shape, t2, params.feature_kind)
        traces_l = li_step(params, part2, cfg.inner_rate, cfg.inner_steps)
    else:
        traces_l = tuple(identity_trace(s) for s in params.skills)

    if cfg.meta_high:
        batch_h = labelled_high_batch(params, t3, [t.final for t in traces_l], cfg.aux_weight)
    else:
        batch_h = labelled_high_batch(params, t1, params.skills, cfg.aux_weight)
    g_high, high_val = ho_grad(trace_h, params, batch_h)
    skill_trajs = t4 if cfg.meta_low else t2
    part = partition_by_skill(trace_h.final, params.high_shape, skill_trajs, params.feature_kind)
    g_skills, skill_val = lo_grad(traces_l, params, part)

    diverged = trace_h.diverged or any(t.diverged for t in traces_l)
    return g_high, g_skills, high_val, skill_val, diverged


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
        batches = sample_phase_batches(task.support, cfg.batch_size, rng)
        task_high, task_skills, high_val, skill_val, task_diverged = _task_meta_grads(params, batches, cfg)
        g_high = g_high.add(task_high)
        g_skills = [a.add(b) for a, b in zip(g_skills, task_skills, strict=True)]
        high_vals.append(high_val)
        skill_vals.append(skill_val)
        diverged += int(task_diverged)
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
    selector_steps: int | None = None,
) -> HierarchicalParams:
    """Adapt on a handful of demonstrations: selector first, then sub-skills,
    both on the same trajectories.  The input params are untouched.

    selector_steps lets the selector take a different number of inner steps
    than the sub-skills (it chases label noise if over-fitted at test time);
    the default is the shared count."""
    if not demos:
        raise ContractError("few_shot_adapt needs at least one demonstration")
    if adapt_high:
        n = steps if selector_steps is None else selector_steps
        selector = hi_step(params, demos, rate, n, aux_weight).final
    else:
        selector = params.high
    if adapt_low:
        part = partition_by_skill(selector, params.high_shape, demos, params.feature_kind)
        traces = li_step(params, part, rate, steps)
        skills = tuple(t.final for t in traces)
    else:
        skills = params.skills
    return params.with_updates(selector, skills)


def predict_action(params: HierarchicalParams, state) -> tuple[np.ndarray, int]:
    """Selector picks the skill (argmax, ties to lowest index); that skill
    predicts the action."""
    x = params.features(np.asarray(state, dtype=np.float64)[None, :])
    logits = mlp_forward(params.high, params.high_shape, x)[0]
    z = int(np.argmax(logits))
    action = mlp_forward(params.skills[z], params.skill_shape, x)[0]
    return action, z


def predict_labels(params: HierarchicalParams, states: np.ndarray) -> np.ndarray:
    """Selector argmax labels for a batch of raw states."""
    logits = mlp_forward(params.high, params.high_shape, params.features(states))
    return np.argmax(logits, axis=1)
