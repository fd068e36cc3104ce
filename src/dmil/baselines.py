"""Comparison methods built from the same primitives as the main learner.

Both step functions share meta_train_step's contract: they take
(params, tasks, cfg, step_seed) and return a StepResult of gradients at the
pre-step parameters, which runner.train applies through outer_optimizer
like those of the other three methods.

* maml_train_step: one monolithic policy (K=1 HierarchicalParams),
  inner-adapt on the second phase batch and meta-update on the fourth, so
  paired runs consume the exact batches the hierarchical step would.  With
  K=1 the hierarchical step's sub-skill meta-gradient is bit-identical to
  this; the selector gets a zero gradient and stays where it is.
* The high/low ablations need no code here: they are the main step with
  TrainConfig.meta_low or meta_high off.
* em_only_train: one hard-EM alternation with no meta-learning on the four
  phase batches of every task, pooled; a supervised stand-in for non-meta
  hierarchical baselines.  Pairs are labelled by the best sub-skill and
  routed by the pre-step selector.
* hard_em_grads: the hard-EM gradient itself, shared by em_only_train and
  the warm start every method receives (runner.warm_start).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, ParamVector, inner_adapt, meta_grad
from .data import Trajectory, flatten_trajectories
from .dmil import (
    SkillBatch,
    SkillLabels,
    StepResult,
    TrainConfig,
    build_high_batch,
    hard_labels,
    make_high_loss,
    make_skill_loss,
    partition_pairs,
    sample_phase_batches,
)
from .policies import HierarchicalParams, featurize, mlp_forward
from .rng import SplitMix64, derive_seed


def maml_train_step(
    params: HierarchicalParams,
    tasks: Sequence,
    cfg: TrainConfig,
    step_seed: int,
) -> StepResult:
    """Reduced meta-gradient of a monolithic behavior-cloning policy over
    one batch of tasks; the caller applies the outer update."""
    if params.K != 1:
        raise ContractError(f"maml trains one network, got {params.K} skills")
    theta = params.skills[0]
    loss = make_skill_loss(params.skill_shape)
    total = ParamVector.zeros(len(theta))
    vals = []
    diverged = 0
    for task in tasks:
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        _, t2, _, t4 = sample_phase_batches(task.support, cfg.batch_size, rng)
        s2, a2, _ = flatten_trajectories(t2)
        trace = inner_adapt(
            loss, theta, cfg.inner_rate, SkillBatch(featurize(s2, params.feature_kind), a2), cfg.inner_steps
        )
        diverged += int(trace.diverged)
        s4, a4, _ = flatten_trajectories(t4)
        val, g_outer = ad.value_and_grad(loss, trace.final, SkillBatch(featurize(s4, params.feature_kind), a4))
        total = total.add(meta_grad(trace, g_outer, mode=cfg.grad_mode))
        vals.append(val)
    if cfg.outer_reduce == "mean":
        total = total.scaled(1.0 / len(tasks))
    return StepResult(
        g_high=ParamVector.zeros(len(params.high)),
        g_skills=(total,),
        outer_loss=float(np.mean(vals)),
        diverged_count=diverged,
    )


def hard_em_grads(
    params: HierarchicalParams,
    trajs: Sequence[Trajectory],
    labels: SkillLabels,
    routing: np.ndarray,
    aux_weight: float,
) -> StepResult:
    """Hard-EM gradients at params: the selector's cross-entropy against
    `labels` (plus aux_weight times the switch term), and each sub-skill's
    MSE on the pairs `routing` sends it; a skill routed no pair gets a zero
    gradient.  outer_loss is the selector loss plus the routed pooled MSE."""
    batch = build_high_batch(trajs, labels, aux_weight, params.feature_kind)
    ce, g_high = ad.value_and_grad(make_high_loss(params.high_shape), params.high, batch)
    _, actions, _ = flatten_trajectories(trajs)
    part = partition_pairs(batch.states, actions, routing, params.K)
    skill_loss_fn = make_skill_loss(params.skill_shape)
    g_skills = []
    sse, n = 0.0, 0
    for k in range(params.K):
        if part.sizes[k] == 0:
            g_skills.append(ParamVector.zeros(len(params.skills[k])))
            continue
        val, g = ad.value_and_grad(skill_loss_fn, params.skills[k], SkillBatch(part.states[k], part.actions[k]))
        g_skills.append(g)
        sse += val * part.sizes[k]
        n += part.sizes[k]
    return StepResult(g_high, tuple(g_skills), ce + (sse / n if n else 0.0), 0)


def em_only_train(
    params: HierarchicalParams,
    tasks: Sequence,
    cfg: TrainConfig,
    step_seed: int,
) -> StepResult:
    """One hard-EM alternation with no meta-learning, as gradients at the
    pre-step parameters: all four phase batches of every task are pooled,
    labelled by the best sub-skill and routed by the selector's argmax."""
    pooled: list[Trajectory] = []
    for task in tasks:
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        for group in sample_phase_batches(task.support, cfg.batch_size, rng):
            pooled.extend(group)
    states, actions, _ = flatten_trajectories(pooled)
    labels = hard_labels(states, actions, params.skills, params.skill_shape, params.feature_kind)
    x = featurize(states, params.feature_kind)
    routing = np.argmax(mlp_forward(params.high, params.high_shape, x), axis=1)
    return hard_em_grads(params, pooled, labels, routing, cfg.aux_weight)
