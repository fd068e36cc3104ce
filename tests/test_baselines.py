import warnings

import numpy as np
import pytest

from dmil import dmil
from dmil.autodiff import ParamVector
from dmil.baselines import em_only_train, maml_train_step
from dmil.data import flatten_trajectories
from dmil.dmil import TrainConfig, meta_train_step, sample_phase_batches
from dmil.policies import HierarchicalParams, init_hierarchical, init_params, mlp_forward, mlp_shape
from dmil.rng import SplitMix64, derive_seed
from dmil.tasks import make_dataset, sample_task


def demo_task(seed: int, n_support: int = 8, T: int = 24):
    return make_dataset(sample_task(seed), n_support, 2, T, seed=seed)


def test_maml_zero_outer_rate_identity() -> None:
    # runner.train applies maml's outer update too: at outer_rate 0 the single
    # network stays bitwise where it started.
    from dmil.config import resolve_config
    from dmil.runner import init_model, train

    cfg = resolve_config(
        {
            "data": {"n_train_tasks": 2, "n_test_tasks": 1, "n_support": 4, "n_query": 1, "horizon": 20},
            "model": {"hidden": [8], "features": "raw"},
            "dmil": {"method": "maml", "inner_rate": 1e-3, "outer_rate": 0.0, "inner_steps": 2,
                     "batch_size": 2, "tasks_per_step": 2},
            "run": {"iterations": 2, "checkpoint_every": 0},
        }
    )
    res = train(cfg)
    start = init_model(cfg)
    assert res.params.K == 1 and res.metrics[0]["grad_norm_skills"] > 0.0
    assert np.array_equal(res.params.skills[0].values, start.skills[0].values)
    assert np.array_equal(res.params.high.values, start.high.values)


def test_maml_equals_k1_hierarchical_skill_update_bitwise() -> None:
    params = init_hierarchical(4, 2, 1, (8,), seed=5)
    tasks = [demo_task(5), demo_task(6)]
    cfg = TrainConfig(inner_rate=1e-3, inner_steps=3, batch_size=2, aux_weight=0.0)
    hier = meta_train_step(params, tasks, cfg, step_seed=13)
    mono = maml_train_step(params.skills[0], params.skill_shape, tasks, cfg, step_seed=13)
    assert np.array_equal(hier.g_skills[0].values, mono.g.values)
    # Selector meta-gradient is exactly zero for K=1.
    assert np.array_equal(hier.g_high.values, np.zeros(len(params.high)))


def test_maml_exact_step_matches_fd_oracle() -> None:
    shape = mlp_shape(4, 2, (6,))
    theta = init_params(shape, 9)
    task = demo_task(9, T=16)
    cfg = TrainConfig(inner_rate=5e-4, inner_steps=1, batch_size=1)
    res = maml_train_step(theta, shape, [task], cfg, step_seed=2)

    from dmil.autodiff import inner_adapt, loss_value
    from dmil.dmil import SkillBatch, make_skill_loss

    rng = SplitMix64(derive_seed(2, task.spec.seed))
    _, t2, _, t4 = sample_phase_batches(task.support, cfg.batch_size, rng)
    s2, a2, _ = flatten_trajectories(t2)
    s4, a4, _ = flatten_trajectories(t4)
    loss = make_skill_loss(shape)

    def objective(vals):
        tr = inner_adapt(loss, ParamVector(vals), cfg.inner_rate, SkillBatch(s2, a2), cfg.inner_steps)
        return loss_value(loss, tr.final, SkillBatch(s4, a4))

    fd = np.zeros(len(theta))
    for i in range(len(theta)):
        d = np.zeros(len(theta))
        d[i] = 1e-5
        fd[i] = (objective(theta.values + d) - objective(theta.values - d)) / 2e-5
    err = np.max(np.abs(fd - res.g.values)) / max(np.max(np.abs(res.g.values)), 1e-12)
    assert err <= 1e-4


def test_high_and_low_ablations_leave_other_level_plain() -> None:
    params = init_hierarchical(4, 2, 3, (8,), seed=20)
    tasks = [demo_task(20), demo_task(21)]
    cfg = TrainConfig(inner_rate=1e-3, inner_steps=2, batch_size=2, aux_weight=0.1)
    from dataclasses import replace

    high_res = meta_train_step(params, tasks, replace(cfg, meta_low=False), step_seed=4)
    low_res = meta_train_step(params, tasks, replace(cfg, meta_high=False), step_seed=4)

    # Recompute the plain pooled-gradient updates by hand for both variants.
    from dmil import autodiff as ad
    from dmil.dmil import (
        SkillBatch,
        build_high_batch,
        hard_labels,
        hi_step,
        make_high_loss,
        make_skill_loss,
        partition_by_skill,
    )

    sum_skills = [ParamVector.zeros(len(s)) for s in params.skills]
    sum_high = ParamVector.zeros(len(params.high))
    for task in tasks:
        rng = SplitMix64(derive_seed(4, task.spec.seed))
        t1, t2, t3, t4 = sample_phase_batches(task.support, cfg.batch_size, rng)
        # dmil_high: skills get plain gradients on the routed second batch,
        # where routing uses the adapted selector.
        trace_h = hi_step(params, t1, cfg.inner_rate, cfg.inner_steps, cfg.aux_weight)
        part = partition_by_skill(trace_h.final, params.high_shape, t2)
        for k in range(3):
            if part.sizes[k]:
                g = ad.value_and_grad(
                    make_skill_loss(params.skill_shape),
                    params.skills[k],
                    SkillBatch(part.states[k], part.actions[k]),
                )[1]
                sum_skills[k] = sum_skills[k].add(g)
        # dmil_low: selector gets a plain gradient on the first batch.
        s1, a1, _ = flatten_trajectories(t1)
        labels1 = hard_labels(s1, a1, params.skills, params.skill_shape)
        gh = ad.value_and_grad(
            make_high_loss(params.high_shape), params.high, build_high_batch(t1, labels1, cfg.aux_weight)
        )[1]
        sum_high = sum_high.add(gh)

    m = len(tasks)
    for k in range(3):
        assert np.array_equal(high_res.g_skills[k].values, sum_skills[k].scaled(1.0 / m).values)
    assert np.array_equal(low_res.g_high.values, sum_high.scaled(1.0 / m).values)


def test_lifting_restrictions_reproduces_full_step_bitwise() -> None:
    params = init_hierarchical(4, 2, 3, (8,), seed=22)
    tasks = [demo_task(22)]
    cfg = TrainConfig(inner_rate=1e-3, inner_steps=2, batch_size=2)
    full = meta_train_step(params, tasks, cfg, step_seed=8)
    from dataclasses import replace

    lifted = meta_train_step(params, tasks, replace(cfg, meta_high=True, meta_low=True), step_seed=8)
    assert np.array_equal(full.g_high.values, lifted.g_high.values)
    for a, b in zip(full.g_skills, lifted.g_skills):
        assert np.array_equal(a.values, b.values)


def test_em_only_zero_lr_identity() -> None:
    params = init_hierarchical(4, 2, 3, (8,), seed=30)
    pooled = list(demo_task(30).support[:4])
    res = em_only_train(params, pooled, epochs=1, lr=0.0)
    assert np.array_equal(res.params.high.values, params.high.values)
    for a, b in zip(res.params.skills, params.skills):
        assert np.array_equal(a.values, b.values)


def test_em_only_fixed_point_on_self_generated_data() -> None:
    # Actions produced by skill 0; selector rigged to route everything to 0.
    params = init_hierarchical(4, 2, 3, (8,), seed=31)
    high_v = params.high.values.copy()
    high_v[-3] = 25.0  # output bias for skill 0
    params = params.with_updates(ParamVector(high_v), params.skills)
    rng = SplitMix64(8)
    S = rng.uniform_array(10 * 4, -1, 1).reshape(10, 4)
    A = mlp_forward(params.skills[0], params.skill_shape, S)
    from dmil.data import Trajectory

    pooled = [Trajectory(S[:5], A[:5]), Trajectory(S[5:], A[5:])]
    labels_before = dmil.hard_labels(S, A, params.skills, params.skill_shape)
    res = em_only_train(params, pooled, epochs=3, lr=1e-2)
    labels_after = dmil.hard_labels(S, A, res.params.skills, res.params.skill_shape)
    assert np.array_equal(labels_before.indices, labels_after.indices)
    # Skill 0 has zero residual on its own data, so it never moves.
    assert np.array_equal(res.params.skills[0].values, params.skills[0].values)


def test_em_only_loss_trace_nonincreasing_pilot() -> None:
    params = init_hierarchical(4, 2, 3, (12,), seed=32)
    pooled = list(demo_task(32, T=30).support[:4])
    res = em_only_train(params, pooled, epochs=10, lr=1e-3)
    diffs = np.diff(res.losses)
    if np.any(diffs > 0):
        warnings.warn(f"em_only loss trace not monotone: {res.losses}")
    assert res.losses[-1] < res.losses[0]
