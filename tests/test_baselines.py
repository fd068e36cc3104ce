import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmil import dmil, runner
from dmil.autodiff import ParamVector
from dmil.baselines import em_only_train, maml_train_step
from dmil.config import resolve_config
from dmil.dmil import Inner, lo_grad, meta_train_step, outer_grad, pool, sample_phase_batches
from dmil.policies import HierarchicalParams, init_hierarchical, mlp_forward
from dmil.rng import SplitMix64, derive_seed
from dmil.tasks import make_dataset, sample_task
from phases import one_task_phases


def step_cfg(method: str = "dmil", **dmil) -> dict:
    """The resolved run config of `method` with these dmil keys."""
    return resolve_config({"dmil": {"method": method, **dmil}})


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
    d = dict(inner_rate=1e-3, inner_steps=3, batch_size=2, aux_weight=0.0)
    hier = meta_train_step(params, tasks, step_cfg("dmil", **d), step_seed=13)
    mono = maml_train_step(params, tasks, step_cfg("maml", **d), step_seed=13)
    assert np.array_equal(hier.g_skills[0].values, mono.g_skills[0].values)
    # Selector meta-gradient is exactly zero for K=1, and maml returns zero.
    assert np.array_equal(hier.g_high.values, np.zeros(len(params.high)))
    assert np.array_equal(mono.g_high.values, np.zeros(len(params.high)))


def test_maml_exact_step_matches_fd_oracle() -> None:
    params = init_hierarchical(4, 2, 1, (6,), seed=9)
    shape, theta = params.skill_shape, params.skills[0]
    task = demo_task(9, T=16)
    cfg = step_cfg("maml", inner_rate=5e-4, inner_steps=1, batch_size=1)
    inner = cfg["dmil"]
    res = maml_train_step(params, [task], cfg, step_seed=2)

    from dmil.autodiff import inner_adapt, loss_value
    from dmil.dmil import pool
    from dmil.kernels import SkillMseLoss

    rng = SplitMix64(derive_seed(2, task.spec.seed))
    _, t2, _, t4 = sample_phase_batches(task.support, inner["batch_size"], rng)
    p2, p4 = pool(t2, "raw"), pool(t4, "raw")
    loss = SkillMseLoss(shape)

    def objective(vals):
        tr = inner_adapt(loss, ParamVector(vals), inner["inner_rate"], p2, inner["inner_steps"])
        return loss_value(loss, tr.final, p4)

    fd = np.zeros(len(theta))
    for i in range(len(theta)):
        d = np.zeros(len(theta))
        d[i] = 1e-5
        fd[i] = (objective(theta.values + d) - objective(theta.values - d)) / 2e-5
    g = res.g_skills[0].values
    err = np.max(np.abs(fd - g)) / max(np.max(np.abs(g)), 1e-12)
    assert err <= 1e-4


def test_high_and_low_ablations_leave_other_level_plain() -> None:
    params = init_hierarchical(4, 2, 3, (8,), seed=20)
    tasks = [demo_task(20), demo_task(21)]
    d = dict(inner_rate=1e-3, inner_steps=2, batch_size=2, aux_weight=0.1)
    high_res = meta_train_step(params, tasks, step_cfg("dmil_high", **d), step_seed=4)  # selector only
    low_res = meta_train_step(params, tasks, step_cfg("dmil_low", **d), step_seed=4)  # sub-skills only

    # Recompute the plain pooled-gradient updates by hand for both variants.
    from dmil import autodiff as ad
    from dmil.dmil import adapt_selector, hard_labels, high_batch, partition_by_skill, pool, route
    from dmil.kernels import SelectorLoss, SkillMseLoss

    sum_skills = [np.zeros(len(s)) for s in params.skills]
    sum_high = np.zeros(len(params.high))
    for task in tasks:
        rng = SplitMix64(derive_seed(4, task.spec.seed))
        t1, t2, t3, t4 = (pool(t, "raw") for t in sample_phase_batches(task.support, d["batch_size"], rng))
        # dmil_high: skills get plain gradients on the routed second batch,
        # where routing uses the adapted selector.
        inner = Inner(d["inner_rate"], d["inner_steps"], d["aux_weight"], (True, False))
        trace_h = adapt_selector(params, t1, inner)
        batches = partition_by_skill(t2, route(trace_h.final, params.high_shape, t2.states), params.K)
        for k in range(3):
            if len(batches[k]):
                g = ad.value_and_grad(SkillMseLoss(params.skill_shape), params.skills[k], batches[k])[1]
                sum_skills[k] = sum_skills[k] + g.values
        # dmil_low: selector gets a plain gradient on the first batch.
        labels1 = hard_labels(t1, params.skills, params.skill_shape)
        gh = ad.value_and_grad(
            SelectorLoss(params.high_shape, d["aux_weight"]), params.high, high_batch(t1, labels1, params.K)
        )[1]
        sum_high = sum_high + gh.values

    m = len(tasks)
    for k in range(3):
        assert np.array_equal(high_res.g_skills[k].values, sum_skills[k] * (1.0 / m))
    assert np.array_equal(low_res.g_high.values, sum_high * (1.0 / m))


def test_lifting_restrictions_reproduces_full_step_bitwise() -> None:
    # dmil's step is task_phases with both levels on, the restrictions of
    # dmil_high and dmil_low lifted: its gradients are outer_grad/lo_grad of
    # the phases that task_phases builds with both levels adapted.
    params = init_hierarchical(4, 2, 3, (8,), seed=22)
    tasks = [demo_task(22)]
    cfg = step_cfg(inner_rate=1e-3, inner_steps=2, batch_size=2)
    d = cfg["dmil"]
    full = meta_train_step(params, tasks, cfg, step_seed=8)
    groups = sample_phase_batches(tasks[0].support, d["batch_size"], SplitMix64(derive_seed(8, tasks[0].spec.seed)))
    inner = Inner(d["inner_rate"], d["inner_steps"], d["aux_weight"], (True, True))
    trace_h, traces_l, batch_h, batches_l = one_task_phases(params, groups, inner)
    lifted_h = outer_grad(trace_h, batch_h)[0].values[0] * 1.0  # the one task's slice, its one-task mean
    lifted_l = [g.values * 1.0 for g in lo_grad(traces_l, batches_l)[0]]
    assert np.array_equal(full.g_high.values, lifted_h)
    for a, b in zip(full.g_skills, lifted_l, strict=True):
        assert np.array_equal(a.values, b)


def test_hard_em_grads_route_by_the_given_indices() -> None:
    # Routing every pair to skill 0: skill 0's gradient is the plain MSE
    # gradient on all pairs, the unrouted skills get exact zero vectors, and
    # the selector is fit to the labels, not to the routing.
    from dmil import autodiff as ad
    from dmil.baselines import hard_em_grads
    from dmil.dmil import hard_labels, high_batch, pool
    from dmil.kernels import SelectorLoss, SkillMseLoss

    params = init_hierarchical(4, 2, 3, (8,), seed=33)
    trajs = list(demo_task(33).support[:3])
    p = pool(trajs, "raw")
    labels = hard_labels(p, params.skills, params.skill_shape)
    res = hard_em_grads(params, p, labels, np.zeros(len(labels), dtype=np.int64), 0.1)

    ce, g_high = ad.value_and_grad(SelectorLoss(params.high_shape, 0.1), params.high, high_batch(p, labels, 3))
    mse, g0 = ad.value_and_grad(SkillMseLoss(params.skill_shape), params.skills[0], p)
    assert np.array_equal(res.g_high.values, g_high.values)
    assert np.array_equal(res.g_skills[0].values, g0.values)
    for k in (1, 2):
        assert np.array_equal(res.g_skills[k].values, np.zeros(len(params.skills[k])))
    assert res.outer_loss == pytest.approx(ce + mse, rel=1e-12)
    assert res.diverged_count == 0


@pytest.mark.parametrize("features", ["raw", "relative"])
def test_meta_train_step_at_zero_inner_rate_is_hard_em(features: str) -> None:
    # The EM connection: with no inner adaptation, dmil's meta-gradients are
    # hard-EM gradients, bitwise.  The selector's is hard_em_grads on t3
    # labelled by the best sub-skill; the sub-skills' is hard_em_grads on t4
    # routed by the selector's argmax.  Both are averaged in task order.
    from dmil.baselines import hard_em_grads
    from dmil.dmil import hard_labels, pool
    from dmil.policies import featurize

    for seed in range(4):
        params = init_hierarchical(4, 2, 3, (8,), seed=60 + seed, features=features)
        tasks = [demo_task(70 + 3 * seed + i) for i in range(3)]
        cfg = step_cfg(inner_rate=0.0, inner_steps=2, batch_size=2, aux_weight=0.1)
        d = cfg["dmil"]
        res = meta_train_step(params, tasks, cfg, step_seed=seed)

        sum_h = np.zeros(len(params.high))
        sum_l = [np.zeros(len(s)) for s in params.skills]
        for task in tasks:
            rng = SplitMix64(derive_seed(seed, task.spec.seed))
            _, _, t3, t4 = sample_phase_batches(task.support, d["batch_size"], rng)
            p3 = pool(t3, features)
            labels3 = hard_labels(p3, params.skills, params.skill_shape)
            sum_h = sum_h + hard_em_grads(params, p3, labels3, labels3, d["aux_weight"]).g_high.values
            p4 = pool(t4, features)
            labels4 = hard_labels(p4, params.skills, params.skill_shape)
            s4 = pool(t4, "raw").states
            routing4 = np.argmax(mlp_forward(params.high, params.high_shape, featurize(s4, features)), axis=1)
            em4 = hard_em_grads(params, p4, labels4, routing4, d["aux_weight"])
            sum_l = [a + b.values for a, b in zip(sum_l, em4.g_skills, strict=True)]
        c = 1.0 / len(tasks)
        assert np.array_equal(res.g_high.values, sum_h * c)
        for got, want in zip(res.g_skills, sum_l, strict=True):
            assert np.array_equal(got.values, want * c)


def sgd_steps(params: HierarchicalParams, tasks, cfg: dict, lr: float, n: int, step_seed: int = 0):
    """n em_only iterations at one fixed step seed under plain descent;
    returns the final params and each iteration's loss."""
    losses = []
    for _ in range(n):
        res = em_only_train(params, tasks, cfg, step_seed)
        losses.append(res.outer_loss)
        params = params.with_updates(
            params.high.minus_scaled(res.g_high, lr),
            tuple(s.minus_scaled(g, lr) for s, g in zip(params.skills, res.g_skills)),
        )
    return params, losses


def test_em_only_zero_lr_identity() -> None:
    # em_only's update goes through runner.train's outer optimizer: at
    # outer_rate 0 every parameter stays bitwise where it started.
    from dmil.config import resolve_config
    from dmil.runner import init_model, train

    for optimizer in ("sgd", "adam"):
        cfg = resolve_config(
            {
                "data": {"n_train_tasks": 2, "n_test_tasks": 1, "n_support": 4, "n_query": 1, "horizon": 20},
                "model": {"hidden": [8], "features": "raw"},
                "dmil": {"method": "em_only", "outer_rate": 0.0, "batch_size": 2, "tasks_per_step": 2,
                         "outer_optimizer": optimizer},
                "run": {"iterations": 2, "checkpoint_every": 0},
            }
        )
        res = train(cfg)
        start = init_model(cfg)
        assert res.metrics[0]["grad_norm_high"] > 0.0 and res.metrics[0]["grad_norm_skills"] > 0.0
        assert np.array_equal(res.params.high.values, start.high.values)
        for a, b in zip(res.params.skills, start.skills, strict=True):
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
    from dataclasses import replace

    from dmil.data import Trajectory

    z = np.zeros(5, dtype=np.int64)  # labels no training path reads
    task = replace(demo_task(31), support=(Trajectory(S[:5], A[:5], z), Trajectory(S[5:], A[5:], z)))
    labels_before = dmil.hard_labels(dmil.Pool(S, A, ((0, 10),)), params.skills, params.skill_shape)
    cfg = step_cfg("em_only", batch_size=2, aux_weight=0.0)
    after, _ = sgd_steps(params, [task], cfg, lr=1e-2, n=3)
    labels_after = dmil.hard_labels(dmil.Pool(S, A, ((0, 10),)), after.skills, after.skill_shape)
    assert np.array_equal(labels_before, labels_after)
    # Skill 0 has zero residual on its own data, so it never moves.
    assert np.array_equal(after.skills[0].values, params.skills[0].values)


def test_em_only_loss_trace_nonincreasing_pilot() -> None:
    # batch_size 1 on 4 demonstrations pools all four, so one step seed
    # gives every iteration the same data.
    params = init_hierarchical(4, 2, 3, (12,), seed=32)
    task = demo_task(32, n_support=4, T=30)
    _, losses = sgd_steps(params, [task], step_cfg("em_only", batch_size=1, aux_weight=0.0), lr=1e-3, n=10)
    diffs = np.diff(losses)
    if np.any(diffs > 0):
        warnings.warn(f"em_only loss trace not monotone: {losses}")
    assert losses[-1] < losses[0]


def best_skill_mse(params: HierarchicalParams, p) -> float:
    """Mean over pairs of the least squared action error over sub-skills."""
    errors = np.stack(
        [np.sum((p.actions - mlp_forward(s, params.skill_shape, p.states)) ** 2, axis=1) for s in params.skills],
        axis=1,
    )
    return float(np.mean(np.min(errors, axis=1)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    hidden=st.sampled_from([(8,), (6, 6)]),
    k=st.integers(2, 4),
    features=st.sampled_from(["raw", "relative"]),
)
def test_hard_em_alternation_does_not_raise_best_skill_mse(seed, hidden, k, features) -> None:
    # The monotonicity behind the paper's EM convergence argument: with the
    # labels fixed, each sub-skill descends its MSE on the pairs it wins
    # (M step), and relabelling can only lower each pair's least error
    # (E step).  The selector's loss is not part of this objective.
    params = init_hierarchical(4, 2, k, hidden, seed=seed, features=features)
    p = pool(demo_task(seed, n_support=4).support, features)
    before = best_skill_mse(params, p)
    after = best_skill_mse(runner._em_alternations(params, p, 1, 1e-4, 0.1), p)
    assert after <= before * (1 + 1e-12)
