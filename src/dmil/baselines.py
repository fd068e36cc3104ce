"""Comparison methods built from the same primitives as the main learner.

* maml_train_step: one monolithic policy, inner-adapt on the second phase
  batch and meta-update on the fourth, so paired runs consume the exact
  batches the hierarchical step would.  With K=1 the hierarchical step's
  sub-skill meta-gradient is bit-identical to this.
* The high/low ablations need no code here: they are the main step with
  TrainConfig.meta_low or meta_high off.
* em_only_train: hard-EM alternation on pooled data with no meta-learning;
  a supervised stand-in for non-meta hierarchical baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamVector, inner_adapt, meta_grad
from .data import Trajectory, flatten_trajectories
from .dmil import (
    SkillBatch,
    TrainConfig,
    build_high_batch,
    hard_labels,
    make_high_loss,
    make_skill_loss,
    partition_pairs,
    sample_phase_batches,
)
from .policies import HierarchicalParams, MlpShape, featurize, mlp_forward
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class MamlStepResult:
    g: ParamVector  # reduced meta-gradient
    outer_loss: float
    diverged_count: int


def maml_train_step(
    theta: ParamVector,
    shape: MlpShape,
    tasks: Sequence,
    cfg: TrainConfig,
    step_seed: int,
    features: str = "raw",
) -> MamlStepResult:
    """Reduced meta-gradient of a monolithic behavior-cloning policy over
    one batch of tasks; the caller applies the outer update."""
    loss = make_skill_loss(shape)
    total = ParamVector.zeros(len(theta))
    vals = []
    diverged = 0
    for task in tasks:
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        _, t2, _, t4 = sample_phase_batches(task.support, cfg.batch_size, rng)
        s2, a2, _ = flatten_trajectories(t2)
        trace = inner_adapt(
            loss, theta, cfg.inner_rate, SkillBatch(featurize(s2, features), a2), cfg.inner_steps
        )
        diverged += int(trace.diverged)
        s4, a4, _ = flatten_trajectories(t4)
        val, g_outer = ad.value_and_grad(loss, trace.final, SkillBatch(featurize(s4, features), a4))
        total = total.add(meta_grad(trace, g_outer, mode=cfg.grad_mode))
        vals.append(val)
    if cfg.outer_reduce == "mean":
        total = total.scaled(1.0 / len(tasks))
    return MamlStepResult(
        g=total,
        outer_loss=float(np.mean(vals)),
        diverged_count=diverged,
    )


@dataclass(frozen=True)
class EmTrainResult:
    params: HierarchicalParams
    losses: tuple[float, ...]  # selector + pooled sub-skill loss per epoch
    high_grad_norms: tuple[float, ...] = ()
    skill_grad_norms: tuple[float, ...] = ()


def em_only_train(
    params: HierarchicalParams,
    pooled: Sequence[Trajectory],
    epochs: int,
    lr: float,
    aux_weight: float = 0.0,
) -> EmTrainResult:
    """Hard-EM alternation with no meta-learning.

    Each epoch: label pooled pairs by the best sub-skill, descend the
    selector's cross-entropy, re-route pairs through the updated selector,
    descend each sub-skill's MSE.
    """
    states, actions, slices = flatten_trajectories(pooled)
    x = featurize(states, params.feature_kind)
    high_loss_fn = make_high_loss(params.high_shape)
    skill_loss_fn = make_skill_loss(params.skill_shape)
    losses, h_norms, s_norms = [], [], []
    for _ in range(epochs):
        labels = hard_labels(states, actions, params.skills, params.skill_shape, params.feature_kind)
        batch = build_high_batch(pooled, labels, aux_weight, params.feature_kind)
        val_h, g_h = ad.value_and_grad(high_loss_fn, params.high, batch)
        new_high = params.high.minus_scaled(g_h, lr)

        routed = np.argmax(mlp_forward(new_high, params.high_shape, x), axis=1)
        part = partition_pairs(x, actions, routed, params.K)
        new_skills = []
        sse, n_total, sq_norm = 0.0, 0, 0.0
        for k in range(params.K):
            if part.sizes[k] == 0:
                new_skills.append(params.skills[k])
                continue
            sb = SkillBatch(part.states[k], part.actions[k])
            val, g = ad.value_and_grad(skill_loss_fn, params.skills[k], sb)
            new_skills.append(params.skills[k].minus_scaled(g, lr))
            sse += val * part.sizes[k]
            n_total += part.sizes[k]
            sq_norm += float(np.sum(g.values**2))
        params = params.with_updates(new_high, tuple(new_skills))
        losses.append(val_h + (sse / n_total if n_total else 0.0))
        h_norms.append(float(np.linalg.norm(g_h.values)))
        s_norms.append(float(np.sqrt(sq_norm)))
    return EmTrainResult(
        params=params,
        losses=tuple(losses),
        high_grad_norms=tuple(h_norms),
        skill_grad_norms=tuple(s_norms),
    )
