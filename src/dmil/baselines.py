"""Comparison methods built from the same primitives as the main learner.

Both step functions share meta_train_step's contract: they take
(params, tasks, cfg, step_seed) and return a StepResult of gradients at the
pre-step parameters, which runner.train applies through outer_optimizer
like those of the other three methods.  None of them takes a gradient of
its own: every outer gradient comes from dmil.ho_grad/lo_grad.

* maml_train_step: meta_train_step itself.  One monolithic policy is
  dmil_low at K=1 (runner gives maml one skill): inner-adapt on the second
  phase batch and meta-update on the fourth.  The one-skill selector is
  never forwarded and stays where it is (dmil's K=1 rule).
* The high/low ablations need no code here: they are the main step with
  TrainConfig.meta_low or meta_high off.  config.METHODS holds every
  method's levels, skill count and step function.
* hard_em_grads: the hard-EM gradient, i.e. the meta-gradient of zero-step
  traces; shared by em_only_train and the warm start every method receives
  (runner.warm_start).
* em_only_train: one hard-EM alternation with no meta-learning on the four
  phase batches of every task, pooled; a supervised stand-in for non-meta
  hierarchical baselines.  Pairs are labelled by the best sub-skill and
  routed by the pre-step selector.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import identity_trace
from .autodiff import inner_adapt, meta_grad  # noqa: F401  (perfbench/tracing.py wraps these names here)
from .dmil import (
    Pool,
    StepResult,
    TrainConfig,
    hard_labels,
    high_batch,
    ho_grad,
    lo_grad,
    meta_train_step,
    partition_by_skill,
    pool,
    route,
    sample_phase_batches,
)
from .policies import HierarchicalParams
from .policies import mlp_forward  # noqa: F401  (perfbench/tracing.py wraps this name here)
from .rng import SplitMix64, derive_seed


# maml's step under its own name, because perfbench/tracing.py times maml's
# steps at runner.maml_train_step (tests/test_perfbench_hooks.py pins it).
maml_train_step = meta_train_step


def hard_em_grads(
    params: HierarchicalParams,
    p: Pool,
    labels: np.ndarray,
    routing: np.ndarray,
    aux_weight: float,
) -> StepResult:
    """Hard-EM gradients at params on one pool: the selector's cross-entropy
    against `labels` (plus aux_weight times the switch term), and each
    sub-skill's MSE on the pairs `routing` sends it; a skill routed no pair
    gets a zero gradient.  outer_loss is the selector loss plus the routed
    pooled MSE.  These are ho_grad/lo_grad of zero-step traces."""
    g_high, ce = ho_grad(identity_trace(params.high), params, high_batch(p, labels, params.K, aux_weight))
    part = partition_by_skill(p, routing, params.K)
    g_skills, pooled = lo_grad([identity_trace(s) for s in params.skills], params, part)
    return StepResult(g_high, tuple(g_skills), ce + pooled, 0)


def em_only_train(
    params: HierarchicalParams,
    tasks: Sequence,
    cfg: TrainConfig,
    step_seed: int,
) -> StepResult:
    """One hard-EM alternation with no meta-learning, as gradients at the
    pre-step parameters: all four phase batches of every task are pooled,
    labelled by the best sub-skill and routed by the selector's argmax."""
    trajs = []
    for task in tasks:
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        for group in sample_phase_batches(task.support, cfg.batch_size, rng):
            trajs.extend(group)
    p = pool(trajs, params.feature_kind)
    labels = hard_labels(p, params.skills, params.skill_shape)
    return hard_em_grads(params, p, labels, route(params.high, params.high_shape, p.states), cfg.aux_weight)
