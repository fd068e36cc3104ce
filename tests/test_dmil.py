import dataclasses
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmil import dmil
from dmil.autodiff import ContractError, NumericError, ParamVector, inner_adapt, linearize, loss_value
from dmil.config import METHODS, resolve_config
from dmil.data import Trajectory
from dmil.dmil import (
    Inner,
    Pool,
    adapt_selector,
    adapt_skills,
    few_shot_adapt,
    hard_labels,
    high_batch,
    lo_grad,
    meta_train_step,
    outer_grad,
    partition_by_skill,
    pool,
    predict_action,
    route,
    sample_phase_batches,
    stacked_act,
    task_phases,
)
from dmil.kernels import SelectorLoss, SkillMseLoss
from dmil.policies import (
    HierarchicalParams,
    MlpShape,
    init_hierarchical,
    init_params,
    mlp_forward,
)
from dmil.rng import SplitMix64
from dmil.tasks import make_dataset, sample_task
from phases import one_task_phases


def step_cfg(**dmil) -> dict:
    """The resolved run config with these dmil keys (method dmil: both
    levels meta-learned)."""
    return resolve_config({"dmil": dmil})


def small_params(seed: int = 0, n_skills: int = 3, hidden=(8,)) -> HierarchicalParams:
    return init_hierarchical(4, 2, n_skills, hidden, seed=seed)


def demo_task(seed: int = 0, n_support: int = 8, n_query: int = 2, T: int = 30):
    return make_dataset(sample_task(seed), n_support, n_query, T, seed=seed)


def random_trajs(seed: int, n: int = 2, T: int = 12) -> list[Trajectory]:
    rng = SplitMix64(seed)
    return [
        Trajectory(
            rng.uniform_array(T * 4, -1.5, 1.5).reshape(T, 4),
            rng.uniform_array(T * 2, -1.0, 1.0).reshape(T, 2),
            np.zeros(T, dtype=np.int64),  # labels no training path reads
        )
        for _ in range(n)
    ]


def routed(selector, high_shape, trajs):
    """The per-skill batches of trajs (raw features) routed by the
    selector's argmax."""
    p = pool(trajs, "raw")
    return partition_by_skill(p, route(selector, high_shape, p.states), high_shape.out_dim)


def hi(params, trajs, rate, steps, aux):
    """The selector's inner trace alone: adapt_selector with the sub-skills fixed."""
    return adapt_selector(params, pool(trajs, params.feature_kind), Inner(rate, steps, aux, (True, False)))


def li(params, p, rate, steps):
    """The sub-skills' inner traces alone, routed by the unadapted selector."""
    return adapt_skills(params, p, route(params.high, params.high_shape, p.states), Inner(rate, steps, 0.0, (False, True)))


# ---- hard labels ----


def test_hard_labels_k1_all_zero(monkeypatch) -> None:
    params = small_params(n_skills=1)
    p = pool(random_trajs(1), "raw")
    forwards = []
    monkeypatch.setattr(dmil, "mlp_forward", lambda *args: forwards.append(args))
    labels = hard_labels(p, params.skills, params.skill_shape)
    assert np.array_equal(labels, np.zeros(len(p), dtype=np.int64)) and forwards == []


def test_hard_labels_exact_reproduction_wins() -> None:
    params = small_params(n_skills=2)
    S = SplitMix64(2).uniform_array(5 * 4, -1, 1).reshape(5, 4)
    A = mlp_forward(params.skills[1], params.skill_shape, S)  # skill 1 is exact
    labels = hard_labels(Pool(S, A, ((0, 5),)), params.skills, params.skill_shape)
    assert np.array_equal(labels, np.ones(5, dtype=np.int64))


def test_hard_labels_match_bruteforce_argmin() -> None:
    params = small_params(n_skills=4, hidden=(6,))
    rng = SplitMix64(3)
    for _ in range(20):
        S = rng.uniform_array(9 * 4, -2, 2).reshape(9, 4)
        A = rng.uniform_array(9 * 2, -2, 2).reshape(9, 2)
        p = Pool(S, A, ((0, 9),))
        labels = hard_labels(p, params.skills, params.skill_shape)
        onehot = high_batch(p, labels, 4).actions
        for t in range(9):
            errs = []
            for k in range(4):
                pred = mlp_forward(params.skills[k], params.skill_shape, S[t : t + 1])[0]
                errs.append(float(np.sum((A[t] - pred) ** 2)))
            best = min(range(4), key=lambda k: (errs[k], k))
            assert labels[t] == best
            assert onehot[t].sum() == 1.0 and onehot[t, best] == 1.0


# ---- the selector loss's switch term ----


def switch_term(logits: np.ndarray) -> float:
    """SelectorLoss's switch term over one trajectory whose selector logits
    are `logits` (T, K): a linear K -> K network with identity weights takes
    the logits as its inputs, the labels are each row's argmax (so the
    cross-entropy is ~0 at large margins), and the term is the loss at
    switch weight 1 minus the loss at weight 0."""
    n, k = logits.shape
    theta = ParamVector(np.concatenate([np.eye(k).ravel(), np.zeros(k)]))
    p = Pool(logits, np.zeros((n, 2)), ((0, n),))
    labels = np.argmax(logits, axis=1)
    shape, batch = MlpShape((k, k)), high_batch(p, labels, k)
    return loss_value(SelectorLoss(shape, 1.0), theta, batch) - loss_value(SelectorLoss(shape, 0.0), theta, batch)


def test_aux_loss_constant_sequence_zero() -> None:
    logits = np.tile(np.array([-40.0, 40.0, -40.0]), (7, 1))
    assert switch_term(logits) == 0.0


def test_aux_loss_alternating_one() -> None:
    logits = np.array([[40.0, -40.0], [-40.0, 40.0]] * 4)
    assert switch_term(logits) == 1.0


def test_aux_loss_uniform_half() -> None:
    logits = np.zeros((9, 2))
    assert switch_term(logits) == pytest.approx(0.5)


# ---- high loss ----

def test_high_loss_zero_params_ln_k_plus_aux() -> None:
    params = small_params(n_skills=3)
    trajs = random_trajs(4, n=1, T=10)
    theta = ParamVector(np.zeros(params.high_shape.n_params))
    lam = 0.3
    batch = high_batch(pool(trajs, "raw"), np.zeros(10, dtype=np.int64), 3)
    got = loss_value(SelectorLoss(params.high_shape, lam), theta, batch)
    assert got == pytest.approx(np.log(3.0) + lam * (2.0 / 3.0), rel=1e-12)


def test_high_loss_perfect_classifier_near_zero() -> None:
    shape = MlpShape((4, 4, 3))
    v = np.zeros(shape.n_params)
    v[-3] = 30.0  # output bias of class 0: logits [30, 0, 0] everywhere
    trajs = random_trajs(5, n=1, T=8)
    batch = high_batch(pool(trajs, "raw"), np.zeros(8, dtype=np.int64), 3)
    got = loss_value(SelectorLoss(shape, 0.5), ParamVector(v), batch)
    assert got == pytest.approx(0.0, abs=1e-6)


def test_high_loss_matches_straight_line_recomputation() -> None:
    params = small_params(7)
    trajs = random_trajs(8, n=2, T=9)
    p = pool(trajs, "raw")
    S, slices = p.states, p.slices
    labels = hard_labels(p, params.skills, params.skill_shape)
    lam = 0.25
    got = loss_value(SelectorLoss(params.high_shape, lam), params.high, high_batch(p, labels, 3))

    logits = mlp_forward(params.high, params.high_shape, S)
    ce, total_dot, pairs = 0.0, 0.0, 0
    probs = np.empty_like(logits)
    for t in range(len(S)):
        z = logits[t] - logits[t].max()
        p = np.exp(z) / np.exp(z).sum()
        probs[t] = p
        ce -= np.log(p[labels[t]])
    ce /= len(S)
    for a, b in slices:
        for t in range(a, b - 1):
            total_dot += float(np.dot(probs[t], probs[t + 1]))
            pairs += 1
    want = ce + lam * (1.0 - total_dot / pairs)
    assert got == pytest.approx(want, abs=1e-10)


# ---- hi_step: adapt_selector's update ----


def test_hi_step_zero_rate_identity() -> None:
    params = small_params(1)
    trajs = demo_task(1).support[:2]
    trace = hi(params, trajs, 0.0, 3, 0.1)
    assert np.array_equal(trace.final.values, params.high.values)


def test_hi_step_composition() -> None:
    params = small_params(2)
    trajs = demo_task(2).support[:2]
    whole = hi(params, trajs, 5e-4, 3, 0.1)
    p = params
    for _ in range(3):
        p = p.with_updates(hi(p, trajs, 5e-4, 1, 0.1).final, p.skills)
    assert np.array_equal(whole.final.values, p.high.values)


def test_hi_step_descends_loss_pilot() -> None:
    params = small_params(3)
    trajs = demo_task(3).support[:2]
    trace = hi(params, trajs, 5e-4, 3, 0.1)
    if not trace.losses[-1] <= trace.losses[0]:
        warnings.warn(f"selector inner update increased loss: {trace.losses}")
    assert not trace.diverged


# ---- partition ----


def test_partition_k1_everything_in_group_zero() -> None:
    # One skill gets the pool's own arrays, bitwise the masked copy that a
    # partition of several skills takes of each group.
    params = small_params(n_skills=1)
    p = pool(random_trajs(5), "raw")
    (batch,) = partition_by_skill(p, route(params.high, params.high_shape, p.states), 1)
    assert batch.slices == ()
    every = np.ones(len(p), dtype=bool)
    for got, pooled in ((batch.states, p.states), (batch.actions, p.actions)):
        assert np.shares_memory(got, pooled)
        assert got.shape == pooled[every].shape and got.tobytes() == pooled[every].tobytes()


def test_partition_hand_set_selector() -> None:
    shape = MlpShape((4, 4, 3))
    v = np.zeros(shape.n_params)
    v[-1] = 10.0  # bias favors skill 2 everywhere
    batches = routed(ParamVector(v), shape, random_trajs(6))
    assert len(batches[0]) == 0 and len(batches[1]) == 0 and len(batches[2]) > 0


def test_partition_matches_bruteforce_argmax() -> None:
    params = small_params(9, n_skills=4, hidden=(6,))
    trajs = random_trajs(10, n=2, T=8)
    batches = routed(params.high, params.high_shape, trajs)
    p = pool(trajs, "raw")
    S, A = p.states, p.actions
    logits = mlp_forward(params.high, params.high_shape, S)
    seen = 0
    for t in range(len(S)):
        best, bv = 0, -np.inf
        for k in range(4):
            if logits[t, k] > bv:
                best, bv = k, logits[t, k]
        row_s, row_a = S[t], A[t]
        in_group = any(
            np.array_equal(batches[best].states[i], row_s) and np.array_equal(batches[best].actions[i], row_a)
            for i in range(len(batches[best]))
        )
        assert in_group
        seen += 1
    assert sum(len(b) for b in batches) == seen


# ---- li_step: adapt_skills' updates ----


def test_li_step_empty_partition_identity() -> None:
    params = small_params(4, n_skills=2)
    traces = li(params, Pool(np.zeros((0, 4)), np.zeros((0, 2)), ()), 0.01, 3)
    for k in (0, 1):
        assert traces[k].points == ()
        assert np.array_equal(traces[k].final.values, params.skills[k].values)


def test_li_step_zero_rate_identity() -> None:
    params = small_params(5, n_skills=2)
    traces = li(params, pool(random_trajs(11), "raw"), 0.0, 2)
    for k in (0, 1):
        assert np.array_equal(traces[k].final.values, params.skills[k].values)


def test_li_step_single_pair_hand_computed() -> None:
    # One linear skill net, one (s, a) pair: gradient is hand-computable.
    high_shape = MlpShape((2, 4, 1))
    skill_shape = MlpShape((2, 2))
    w = np.array([0.5, -0.2, 0.1, 0.3, 0.05, -0.07])  # W row-major then b
    params = HierarchicalParams(
        init_params(high_shape, 0), (ParamVector(w),), high_shape, skill_shape
    )
    s = np.array([0.8, -0.4])
    a = np.array([0.3, 0.2])
    rate = 0.05
    traces = li(params, Pool(s[None, :], a[None, :], ((0, 1),)), rate, 1)

    W = w[:4].reshape(2, 2)
    b = w[4:]
    r = (s @ W + b) - a  # residual
    gW = 2.0 * np.outer(s, r)
    gb = 2.0 * r
    want = w - rate * np.concatenate([gW.reshape(-1), gb])
    assert traces[0].final.values == pytest.approx(want, rel=1e-12)


# ---- outer_grad / lo_grad ----


def _phases(params, task, cfg, step_seed=0):
    rng, d = SplitMix64(step_seed), cfg["dmil"]
    t1, t2, t3, t4 = (pool(t, "raw") for t in sample_phase_batches(task.support, d["batch_size"], rng))
    inner = Inner(d["inner_rate"], d["inner_steps"], d["aux_weight"], (True, True))
    trace_h = adapt_selector(params, t1, inner)
    routes2 = route(trace_h.final, params.high_shape, t2.states)
    traces_l = adapt_skills(params, t2, routes2, inner)
    return t1, t2, t3, t4, trace_h, partition_by_skill(t2, routes2, params.K), traces_l


def test_ho_grad_zero_rate_equals_plain_gradient() -> None:
    params = small_params(6)
    task = demo_task(6)
    cfg = step_cfg(inner_rate=0.0, inner_steps=2, batch_size=2, aux_weight=0.1)
    d = cfg["dmil"]
    t1, t2, t3, t4, trace_h, _, traces_l = _phases(params, task, cfg)
    adapted = [t.final for t in traces_l]
    batch3 = high_batch(t3, hard_labels(t3, adapted, params.skill_shape), params.K)
    got, _ = outer_grad(trace_h, batch3)

    from dmil.autodiff import value_and_grad

    want = value_and_grad(SelectorLoss(params.high_shape, d["aux_weight"]), params.high, batch3)[1]
    assert np.array_equal(got.values, want.values)


def test_ho_grad_first_order_equals_gradient_at_adapted() -> None:
    params = small_params(7)
    task = demo_task(7)
    cfg = step_cfg(inner_rate=5e-3, inner_steps=2, batch_size=2, aux_weight=0.1)
    d = cfg["dmil"]
    t1, t2, t3, t4, trace_h, _, traces_l = _phases(params, task, cfg)
    adapted = [t.final for t in traces_l]
    batch3 = high_batch(t3, hard_labels(t3, adapted, params.skill_shape), params.K)
    from dmil.autodiff import meta_grad, value_and_grad

    want = value_and_grad(SelectorLoss(params.high_shape, d["aux_weight"]), trace_h.final, batch3)[1]
    got = meta_grad(trace_h, want, mode="first_order")
    assert np.array_equal(got.values, want.values)
    # outer_grad is exact: it differs from the first-order reference.
    exact, _ = outer_grad(trace_h, batch3)
    assert not np.array_equal(exact.values, got.values)


def fd_of_map(objective, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    out = np.zeros_like(x0)
    for i in range(len(x0)):
        d = np.zeros_like(x0)
        d[i] = h
        out[i] = (objective(x0 + d) - objective(x0 - d)) / (2 * h)
    return out


def rel_err(a, b) -> float:
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-12)


def test_ho_grad_matches_fd_of_composed_map() -> None:
    params = init_hierarchical(4, 2, 2, (6,), seed=12)
    task = demo_task(12, T=16)
    cfg = step_cfg(inner_rate=5e-4, inner_steps=1, batch_size=1, aux_weight=0.1)
    d = cfg["dmil"]
    t1, t2, t3, t4, trace_h, _, traces_l = _phases(params, task, cfg)
    adapted = [t.final for t in traces_l]

    batch1 = high_batch(t1, hard_labels(t1, params.skills, params.skill_shape), params.K)
    batch3 = high_batch(t3, hard_labels(t3, adapted, params.skill_shape), params.K)
    exact, _ = outer_grad(trace_h, batch3)
    loss = SelectorLoss(params.high_shape, d["aux_weight"])

    from dmil.autodiff import inner_adapt, loss_value

    def objective(vals):
        tr = inner_adapt(loss, ParamVector(vals), d["inner_rate"], batch1, d["inner_steps"])
        return loss_value(loss, tr.final, batch3)

    assert rel_err(fd_of_map(objective, params.high.values), exact.values) <= 1e-4


def test_lo_grad_zero_rate_and_empty_partition() -> None:
    params = small_params(13)
    task = demo_task(13)
    cfg = step_cfg(inner_rate=0.0, inner_steps=1, batch_size=2)
    t1, t2, t3, t4, trace_h, _, traces_l = _phases(params, task, cfg)
    batches4 = partition_by_skill(t4, route(trace_h.final, params.high_shape, t4.states), params.K)
    grads, _ = lo_grad(traces_l, batches4)
    from dmil.autodiff import value_and_grad

    loss = SkillMseLoss(params.skill_shape)
    for k in range(params.K):
        if len(batches4[k]) == 0:
            assert np.array_equal(grads[k].values, np.zeros(len(params.skills[k])))
        else:
            want = value_and_grad(loss, params.skills[k], batches4[k])[1]
            assert np.array_equal(grads[k].values, want.values)


def test_lo_grad_matches_fd_of_composed_map() -> None:
    params = init_hierarchical(4, 2, 2, (6,), seed=14)
    task = demo_task(14, T=16)
    cfg = step_cfg(inner_rate=5e-4, inner_steps=1, batch_size=1)
    d = cfg["dmil"]
    t1, t2, t3, t4, trace_h, batches2, traces_l = _phases(params, task, cfg)
    batches4 = partition_by_skill(t4, route(trace_h.final, params.high_shape, t4.states), params.K)
    exact, _ = lo_grad(traces_l, batches4)
    loss = SkillMseLoss(params.skill_shape)

    from dmil.autodiff import inner_adapt, loss_value

    checked = 0
    for k, (batch2, batch4) in enumerate(zip(batches2, batches4)):
        if len(batch2) == 0 or len(batch4) == 0:
            continue

        def objective(vals, b2=batch2, b4=batch4):
            tr = inner_adapt(loss, ParamVector(vals), d["inner_rate"], b2, d["inner_steps"])
            return loss_value(loss, tr.final, b4)

        assert rel_err(fd_of_map(objective, params.skills[k].values), exact[k].values) <= 1e-4
        checked += 1
    assert checked >= 1


# ---- meta_train_step ----


def test_meta_train_step_zero_outer_rate_identity() -> None:
    # runner.train applies the outer update; at outer_rate 0 both optimizers
    # leave the parameters bitwise unchanged although the gradients are not 0.
    from dmil.config import resolve_config
    from dmil.runner import init_model, train

    for optimizer in ("sgd", "adam"):
        cfg = resolve_config(
            {
                "data": {"n_train_tasks": 2, "n_test_tasks": 1, "n_support": 4, "n_query": 1, "horizon": 20},
                "model": {"hidden": [8], "features": "raw"},
                "dmil": {"inner_rate": 1e-3, "outer_rate": 0.0, "inner_steps": 2, "batch_size": 2,
                         "tasks_per_step": 2, "outer_optimizer": optimizer},
                "run": {"iterations": 2, "checkpoint_every": 0},
            }
        )
        res = train(cfg)
        start = init_model(cfg)
        assert res.metrics[0]["grad_norm_high"] > 0.0 and res.metrics[0]["grad_norm_skills"] > 0.0
        assert np.array_equal(res.params.high.values, start.high.values)
        for a, b in zip(res.params.skills, start.skills):
            assert np.array_equal(a.values, b.values)


def test_meta_train_step_duplicated_task_sum_linearity() -> None:
    params = small_params(21)
    task = demo_task(21)
    cfg = step_cfg(inner_rate=1e-3, inner_steps=2, batch_size=2)
    one = meta_train_step(params, [task], cfg, step_seed=3)
    two = meta_train_step(params, [task, task], cfg, step_seed=3)
    # The mean of two equal gradients is (g + g) / 2 = g, bitwise.
    assert np.array_equal(two.g_high.values, one.g_high.values)
    for g2, g1 in zip(two.g_skills, one.g_skills, strict=True):
        assert np.array_equal(g2.values, g1.values)


def test_meta_train_step_matches_hand_assembled_phases() -> None:
    params = small_params(22)
    tasks = [demo_task(22), demo_task(23)]
    cfg = step_cfg(inner_rate=1e-3, inner_steps=2, batch_size=2, aux_weight=0.1)
    d = cfg["dmil"]
    step_seed = 11
    res = meta_train_step(params, tasks, cfg, step_seed=step_seed)

    from dmil.rng import derive_seed

    sum_h = np.zeros(len(params.high))
    sum_l = [np.zeros(len(s)) for s in params.skills]
    for task in tasks:
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        t1, t2, t3, t4 = (pool(t, "raw") for t in sample_phase_batches(task.support, d["batch_size"], rng))
        inner = Inner(d["inner_rate"], d["inner_steps"], d["aux_weight"], (True, True))
        trace_h = adapt_selector(params, t1, inner)
        traces_l = adapt_skills(params, t2, route(trace_h.final, params.high_shape, t2.states), inner)
        adapted = [t.final for t in traces_l]
        batch3 = high_batch(t3, hard_labels(t3, adapted, params.skill_shape), params.K)
        sum_h = sum_h + outer_grad(trace_h, batch3)[0].values
        batches4 = partition_by_skill(t4, route(trace_h.final, params.high_shape, t4.states), params.K)
        for k, g in enumerate(lo_grad(traces_l, batches4)[0]):
            sum_l[k] = sum_l[k] + g.values
    m = len(tasks)
    assert np.array_equal(res.g_high.values, sum_h * (1.0 / m))
    for k in range(params.K):
        assert np.array_equal(res.g_skills[k].values, sum_l[k] * (1.0 / m))


def one_task_steps(params, tasks, cfg, step_seed):
    """The mean of one-task steps' gradients, summed in task order as
    meta_train_step sums its tasks', and the steps' diverged counts."""
    steps = [meta_train_step(params, [task], cfg, step_seed) for task in tasks]
    c = 1.0 / len(tasks)
    high = sum((s.g_high.values for s in steps), np.zeros(len(params.high))) * c
    skills = [sum((s.g_skills[k].values for s in steps), np.zeros(len(params.skills[k]))) * c for k in range(params.K)]
    return high, skills, [s.diverged_count for s in steps]


def with_support(task, f):
    """The task with each support trajectory replaced by f(trajectory)."""
    return dataclasses.replace(task, support=tuple(f(t) for t in task.support))


@pytest.mark.parametrize("method", ["dmil", "dmil_high", "dmil_low", "maml"])
def test_meta_train_step_is_its_one_task_stacks_summed_in_task_order(method) -> None:
    # Tasks of one shape form one stack, whose slices are bitwise their
    # one-task stacks: the step's gradients are the one-task steps' summed
    # in task order, for every method that meta-learns.  The middle task
    # has shorter trajectories, so it forms a stack of its own, and the
    # stacks' gradients still add up in task order.
    params = small_params(26, n_skills=1 if METHODS[method].one_network else 3)
    tasks = [demo_task(26), demo_task(27, T=22), demo_task(28), demo_task(29)]
    cfg = step_cfg(method=method, inner_rate=2e-3, inner_steps=2, batch_size=2, aux_weight=0.1)
    calls = []
    real = dmil.adapt_selector
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dmil, "adapt_selector", lambda params, p, *args: calls.append(p.states.shape[:2]) or real(params, p, *args))
        res = meta_train_step(params, tasks, cfg, step_seed=5)
    assert calls == [(3, 60), (1, 44)]  # one adapt_selector call per stack
    high, skills, diverged = one_task_steps(params, tasks, cfg, step_seed=5)
    assert res.g_high.values.tobytes() == high.tobytes()
    assert [g.values.tobytes() for g in res.g_skills] == [g.tobytes() for g in skills]
    assert res.diverged_count == sum(diverged)


def test_a_diverging_task_is_counted_alone() -> None:
    # One task's states are 20x larger, so the shared inner rate overshoots
    # on it alone: only its slice is flagged, as in its one-task step.
    params = small_params(30)
    tasks = [demo_task(30), with_support(demo_task(31), lambda t: Trajectory(t.states * 20.0, t.actions, t.true_skills)), demo_task(32)]
    cfg = step_cfg(inner_rate=2e-2, inner_steps=3, batch_size=2)
    assert meta_train_step(params, tasks, cfg, step_seed=1).diverged_count == 1
    assert one_task_steps(params, tasks, cfg, step_seed=1)[2] == [0, 1, 0]


@pytest.mark.parametrize("method", list(METHODS))
def test_routing_stays_stacked_and_lazy(monkeypatch, method) -> None:
    # The adapted selectors route each phase batch of a stack in one call:
    # the outer batches always, the inner ones only when the sub-skills
    # adapt.  Few-shot adaptation that adapts no sub-skill, and the warm
    # start's selector consolidation, route nothing.
    from dmil.runner import warm_start

    calls = []
    real = dmil.route
    monkeypatch.setattr(dmil, "route", lambda selector, shape, states: calls.append(states.shape[:-2]) or real(selector, shape, states))
    params = small_params(40, n_skills=1 if METHODS[method].one_network else 3)
    tasks = [demo_task(40 + i) for i in range(3)]
    meta_train_step(params, tasks, step_cfg(method=method, inner_rate=1e-3, inner_steps=2, batch_size=2), step_seed=1)
    assert calls == [(len(tasks),)] * (1 + METHODS[method].adapts[1])
    calls.clear()
    few_shot_adapt(params, tasks[0].support[:2], Inner(1e-3, 2, 0.1, METHODS["dmil_high"].adapts))
    cfg = step_cfg(warmup_epochs=0, warmup_consolidate=2)
    cfg["model"]["hidden"] = [8]
    warm_start(cfg, tasks)
    assert calls == []


def test_five_equal_tasks_make_one_stacked_selector_pass_per_step(monkeypatch) -> None:
    # The selector's passes run once per stack: inner_steps linearizations
    # and one outer gradient for all five tasks, each on a (5, N, in) batch,
    # not five times as many (a per-task loop would fail here).  Both entry
    # points are counted.
    shapes = []
    for name in ("linearize", "value_and_grad"):
        real = getattr(SelectorLoss, name)
        monkeypatch.setattr(SelectorLoss, name, lambda self, theta, batch, real=real: shapes.append(batch.states.shape[:2]) or real(self, theta, batch))
    tasks = [demo_task(60 + i) for i in range(5)]
    meta_train_step(small_params(60), tasks, step_cfg(inner_rate=1e-3, inner_steps=3, batch_size=2), step_seed=2)
    assert shapes == [(5, 60)] * (3 + 1)


def test_a_non_finite_value_names_its_task_seed_and_phase() -> None:
    # Stacking hides the task order that used to point at the failing
    # task, so the error names its seed and the phase.  A NaN in one
    # support state of the second task reaches its selector's inner loss
    # (batch_size 8 puts every support trajectory into every group).
    params = small_params(33)
    bad = demo_task(34)
    states = bad.support[3].states.copy()
    states[5, 2] = np.nan
    tasks = [demo_task(33), with_support(bad, lambda t: Trajectory(states, t.actions, t.true_skills) if t is bad.support[3] else t), demo_task(35)]
    cfg = step_cfg(inner_rate=1e-3, inner_steps=2, batch_size=8)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
        meta_train_step(params, tasks, cfg, step_seed=3)
    assert str(exc.value).startswith(f"task seed {bad.spec.seed}, selector inner: non-finite loss in selector cross-entropy")
    assert "\n" not in str(exc.value)
    # A sub-skill's loss names the skill; a stack of one task its task.
    tasks = [demo_task(33), with_support(bad, lambda t: Trajectory(t.states, t.actions * np.inf, t.true_skills))]
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericError, match=rf"^task seed {bad.spec.seed}, sub-skill \d inner: "):
        meta_train_step(params, tasks, cfg, step_seed=3)


def test_meta_train_step_simultaneity_probe() -> None:
    params = small_params(24)
    tasks = [demo_task(24), demo_task(25)]
    cfg = step_cfg(inner_rate=1e-3, inner_steps=1, batch_size=2)
    base = meta_train_step(params, tasks, cfg, step_seed=7)
    # Every phase reads the pre-step params, whose arrays refuse writes, so
    # no task can see another's update and a second call is bitwise equal.
    with pytest.raises(ValueError):
        params.high.values[0] = 1e9
    for s in params.skills:
        with pytest.raises(ValueError):
            s.values[0] = 1e9
    again = meta_train_step(params, tasks, cfg, step_seed=7)
    assert np.array_equal(base.g_high.values, again.g_high.values)
    for a, b in zip(base.g_skills, again.g_skills, strict=True):
        assert np.array_equal(a.values, b.values)


def test_meta_train_step_task_order_permutation_bound() -> None:
    params = small_params(26)
    tasks = [demo_task(30 + i) for i in range(5)]
    cfg = step_cfg(inner_rate=1e-3, inner_steps=2, batch_size=2)
    fwd = meta_train_step(params, tasks, cfg, step_seed=9)
    rev = meta_train_step(params, tasks[::-1], cfg, step_seed=9)
    assert np.max(np.abs(fwd.g_high.values - rev.g_high.values)) <= 1e-12
    for a, b in zip(fwd.g_skills, rev.g_skills):
        assert np.max(np.abs(a.values - b.values)) <= 1e-12
    again = meta_train_step(params, tasks, cfg, step_seed=9)
    assert np.array_equal(fwd.g_high.values, again.g_high.values)


def test_each_batch_is_featurized_once(monkeypatch) -> None:
    # One pool per batch: the four phase batches of a stack of equal-shape
    # tasks, one demo set, and the warm start's fixed pool for every epoch.
    from dmil.config import resolve_config
    from dmil.runner import warm_start

    calls = []
    real = dmil.featurize
    monkeypatch.setattr(dmil, "featurize", lambda states, kind: calls.append(kind) or real(states, kind))
    params = small_params(70)
    tasks = [demo_task(70), demo_task(71), demo_task(72)]
    meta_train_step(params, tasks, step_cfg(inner_rate=1e-3, inner_steps=2, batch_size=2), step_seed=1)
    assert len(calls) == 4  # demo_task's trajectories share one length: one stack
    calls.clear()
    few_shot_adapt(params, tasks[0].support[:3], Inner(1e-3, 2, 0.0, (True, True)))
    assert len(calls) == 1
    for epochs in (1, 4):
        calls.clear()
        cfg = resolve_config({
            "model": {"hidden": [8]},
            "dmil": {"warmup_epochs": epochs, "warmup_consolidate": 2, "warmup_restarts": 2, "warmup_probe_epochs": 1},
        })
        warm_start(cfg, tasks)
        assert calls == ["relative"]


def _record_inner_traces(monkeypatch) -> list:
    """(trace, batch) of every inner_adapt call that dmil makes."""
    traces = []
    real = dmil.inner_adapt

    def recording(f, theta, rate, batch, *args, **kwargs):
        trace = real(f, theta, rate, batch, *args, **kwargs)
        traces.append((trace, batch))
        return trace

    monkeypatch.setattr(dmil, "inner_adapt", recording)
    return traces


def test_every_loss_batch_is_a_pool_and_the_selector_shares_its_phase_pool(monkeypatch) -> None:
    # Pool is every loss's batch: the outer batches task_phases returns and
    # the batch of every inner trace with steps.  Each phase batch is pooled
    # once for its whole stack of tasks, and the stack views that pool; the
    # selector's batches reuse their stack's states and slices, uncopied,
    # and its switch weight is its loss's, which dmil gradcheck's finite
    # differences re-evaluate when they replay the trace.  At K=1 (maml's
    # step) the selector's outer batch is a zero-row Pool and its trace
    # takes no step, and the one sub-skill's batches are its task's rows of
    # the phase pools, uncopied.
    pools = []
    real = dmil.pool
    monkeypatch.setattr(dmil, "pool", lambda trajs, features: pools.append(real(trajs, features)) or pools[-1])
    params = small_params(90)
    groups = sample_phase_batches(demo_task(90).support, 2, SplitMix64(5))
    inner = Inner(1e-3, 2, 0.3, (True, True))
    trace_h, traces_l, batch_h, batches_l = one_task_phases(params, groups, inner)
    stepped = [t for t in traces_l if t.points]
    assert len(pools) == 4 and trace_h.points and stepped
    for batch in (batch_h, *batches_l, trace_h.batch, *(t.batch for t in stepped)):
        assert isinstance(batch, Pool)
    for batch, p in ((trace_h.batch, pools[0]), (batch_h, pools[2])):
        assert batch.states.base is p.states and batch.slices == (p.slices,)
    assert trace_h.loss.aux_weight == inner.aux_weight

    pools.clear()
    one = small_params(90, n_skills=1)
    trace_h, traces_l, batch_h, batches_l = one_task_phases(one, groups, inner._replace(adapts=METHODS["maml"].adapts))
    assert len(pools) == 3 and not trace_h.points and traces_l[0].points
    for batch in (batch_h, *batches_l, traces_l[0].batch):
        assert isinstance(batch, Pool)
    assert len(batch_h) == 0 and trace_h.loss.aux_weight == inner.aux_weight
    for batch, p in ((traces_l[0].batch, pools[1]), (batches_l[0], pools[2])):
        assert batch.states.base is p.states


def test_an_empty_batch_is_the_one_no_step_case() -> None:
    # Every network that takes no step (a one-skill selector, a level that
    # is not adapted, a sub-skill routed no pair) has an empty batch, hence
    # a zero-step trace that still carries its network's loss; outer_grad
    # gives an empty batch an exactly zero gradient and loss 0.0.
    p = pool(demo_task(91).support[:2], "raw")
    inner = Inner(1e-3, 2, 0.3, (True, True))
    one = small_params(91, n_skills=1)
    batch = high_batch(p, hard_labels(p, one.skills, one.skill_shape), 1)
    assert isinstance(batch, Pool) and len(batch) == 0 and batch.slices == ()

    def no_step(trace, loss_type) -> bool:
        return trace.points == () and isinstance(trace.loss, loss_type)

    def phases(params, adapts):  # both inner phases on p, the sub-skills routed by the adapted selector
        trace_h = adapt_selector(params, p, inner._replace(adapts=adapts))
        return trace_h, adapt_skills(params, p, route(trace_h.final, params.high_shape, p.states), inner._replace(adapts=adapts))

    for adapts in ((True, True), METHODS["maml"].adapts):
        trace_h, traces_l = phases(one, adapts)
        assert no_step(trace_h, SelectorLoss) and trace_h.loss.aux_weight == inner.aux_weight
        assert traces_l[0].points
    params = small_params(91)
    trace_h, traces_l = phases(params, METHODS["dmil_high"].adapts)
    assert trace_h.points and all(no_step(t, SkillMseLoss) for t in traces_l)
    # An all-zero selector routes every pair to skill 0 (argmax ties go low).
    flat = params.with_updates(ParamVector.zeros(len(params.high)), params.skills)
    trace_h, traces_l = phases(flat, METHODS["dmil_low"].adapts)
    assert no_step(trace_h, SelectorLoss) and traces_l[0].points
    assert all(no_step(t, SkillMseLoss) for t in traces_l[1:])

    for trace in (trace_h, *traces_l):
        g, val = outer_grad(trace, p.empty())
        assert val == 0.0 and g.values.tobytes() == np.zeros(len(trace.final)).tobytes()
    grads, pooled = lo_grad(traces_l, (p, p.empty(), p.empty()))
    assert pooled == pytest.approx(outer_grad(traces_l[0], p)[1], rel=1e-12)
    assert all(not np.any(g.values) for g in grads[1:])


def test_each_inner_point_is_forwarded_once(monkeypatch) -> None:
    # meta_grad's Hessian-vector products reuse the forward pass of the inner
    # step they differentiate: over one meta_train_step the loss kernels run
    # one forward per inner point, and none twice on the same parameters and
    # batch.  Recorded arrays stay alive, so their ids are not reused.
    from collections import Counter

    from dmil import kernels

    seen = []
    real_forward = kernels.forward

    def counting(layers, x):
        seen.append((layers[0][0].base, x))
        return real_forward(layers, x)

    monkeypatch.setattr(kernels, "forward", counting)
    traces = _record_inner_traces(monkeypatch)
    params = small_params(80)
    tasks = [demo_task(80), demo_task(81)]
    meta_train_step(params, tasks, step_cfg(inner_rate=1e-3, inner_steps=3, batch_size=2), step_seed=2)
    counts = Counter((id(theta), id(x)) for theta, x in seen)
    points = [(id(p.values), id(batch.states)) for trace, batch in traces for p in trace.points]
    # the tasks' one stacked selector trace and at least one sub-skill per task
    assert len(points) >= 3 * (1 + len(tasks))
    assert [counts[k] for k in points] == [1] * len(points)
    assert max(counts.values()) == 1


def test_few_shot_adapt_keeps_no_linearizations(monkeypatch) -> None:
    # Adaptation that is never differentiated holds no forward activations;
    # meta-training keeps one linearization per inner point.
    traces = _record_inner_traces(monkeypatch)
    params = small_params(82)
    task = demo_task(82)
    few_shot_adapt(params, task.support[:3], Inner(1e-3, 4, 0.1, (True, True)))
    assert traces and all(len(t.points) == 4 and t.linearized == () for t, _ in traces)
    traces.clear()
    meta_train_step(params, [task], step_cfg(inner_rate=1e-3, inner_steps=2, batch_size=2), step_seed=3)
    assert traces and all(len(t.linearized) == len(t.points) == 2 for t, _ in traces)


def test_meta_train_step_frees_each_task_before_the_next(monkeypatch) -> None:
    # A task's sub-skill traces hold its linearizations (every forward
    # activation of its inner steps); none is alive when the next task's
    # first sub-skill inner step starts, so tasks' sub-skill traces never
    # stack in memory.  Only the tasks' one stacked selector trace lives
    # across them, and nothing outlives the step.
    refs, alive = [], []
    real = dmil.inner_adapt

    def recording(loss, *args, **kwargs):
        alive.append((loss.name, sum(r() is not None for r in refs)))
        trace = real(loss, *args, **kwargs)
        refs.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(dmil, "inner_adapt", recording)
    tasks = [demo_task(84), demo_task(85), demo_task(86)]
    meta_train_step(small_params(84), tasks, step_cfg(inner_rate=1e-3, inner_steps=2, batch_size=2), step_seed=4)
    assert alive[0] == (SelectorLoss.name, 0)  # the stacked selector adapts first
    # the first sub-skill inner step of each task sees the selector trace alone
    assert [n for name, n in alive[1:] if name == SkillMseLoss.name].count(1) == len(tasks)
    assert all(r() is None for r in refs)


# ---- labels/partition invariants ----


def test_labels_onehot_and_partition_disjoint_exhaustive() -> None:
    rng = SplitMix64(60)
    for trial in range(30):
        k = 1 + rng.randint(5)
        params = small_params(seed=trial, n_skills=k, hidden=(5,))
        trajs = random_trajs(trial + 100, n=1 + rng.randint(3), T=2 + rng.randint(10))
        p = pool(trajs, "raw")
        S = p.states
        labels = hard_labels(p, params.skills, params.skill_shape)
        batch = high_batch(p, labels, k)
        assert len(batch) == (0 if k == 1 else len(p)) and np.all(batch.actions.sum(axis=1) == 1.0)
        batches = routed(params.high, params.high_shape, trajs)
        assert sum(len(b) for b in batches) == len(S)
        got = np.concatenate([b.states for b in batches if len(b)], axis=0)
        assert sorted(map(tuple, got)) == sorted(map(tuple, S))


# ---- few-shot adaptation and prediction ----


def test_few_shot_adapt_zero_rate_identity() -> None:
    params = small_params(40)
    demos = demo_task(40).support[:1]
    adapted = few_shot_adapt(params, demos, Inner(0.0, 3, 0.0, (True, True)))
    assert np.array_equal(adapted.high.values, params.high.values)
    for a, b in zip(adapted.skills, params.skills):
        assert np.array_equal(a.values, b.values)


def test_few_shot_adapt_three_copies_equal_one_shot() -> None:
    params = small_params(41)
    demo = demo_task(41).support[0]
    inner = Inner(5e-4, 3, 0.1, (True, True))
    one = few_shot_adapt(params, [demo], inner)
    three = few_shot_adapt(params, [demo, demo, demo], inner)
    assert np.allclose(one.high.values, three.high.values, rtol=1e-12, atol=1e-12)
    for a, b in zip(one.skills, three.skills):
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-12)


def test_few_shot_adapt_reduces_single_skill_bc_loss_pilot() -> None:
    params = small_params(42)
    task = demo_task(42)
    demo = task.support[0]
    adapted = few_shot_adapt(params, [demo], Inner(5e-4, 3, 0.0, (True, True)))
    p = pool([demo], "raw")
    loss = SkillMseLoss(params.skill_shape)
    before = sum(loss_value(loss, params.skills[k], p) for k in range(params.K))
    after = sum(loss_value(loss, adapted.skills[k], p) for k in range(params.K))
    if not after < before:
        warnings.warn(f"adaptation did not reduce pooled BC loss: {before} -> {after}")


def test_few_shot_adapt_restricted_variants() -> None:
    params = small_params(43)
    demos = demo_task(43).support[:1]
    high_only = few_shot_adapt(params, demos, Inner(1e-3, 2, 0.0, (True, False)))
    low_only = few_shot_adapt(params, demos, Inner(1e-3, 2, 0.0, (False, True)))
    assert not np.array_equal(high_only.high.values, params.high.values)
    for a, b in zip(high_only.skills, params.skills):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(low_only.high.values, params.high.values)


@pytest.mark.parametrize("features", ["raw", "relative"])
@pytest.mark.parametrize("aux", [0.0, 0.1])
def test_k1_selector_adaptation_changes_nothing(features, aux) -> None:
    # With one skill the selector's softmax is identically 1 and its
    # gradient exactly zero, which is why high_batch gives it no rows and the
    # selector is never forwarded: adapting it would leave it bitwise where
    # it started.
    for seed in range(8):
        shape = init_hierarchical(4, 2, 1, (8,), seed=seed, features=features).high_shape
        rng = SplitMix64(seed + 300)
        theta = ParamVector(rng.uniform_array(shape.n_params, -2.0, 2.0))
        p = pool(random_trajs(seed + 400, n=1 + rng.randint(3), T=2 + rng.randint(12)), features)
        batch = Pool(p.states, np.ones((len(p), 1)), p.slices)
        loss = SelectorLoss(shape, aux)
        assert np.all(linearize(loss, theta, batch).grad.values == 0.0)
        trace = inner_adapt(loss, theta, 2e-2, batch, 10)
        assert all(np.all(point.grad.values == 0.0) for point in trace.linearized)
        assert trace.final.values.tobytes() == theta.values.tobytes()


def test_predict_action_k1_and_hand_set() -> None:
    params = small_params(44, n_skills=1)
    s = np.array([[0.3, -0.2, 1.0, 1.0]])
    a, z = predict_action(params, s)
    assert a.shape == (1, 2) and z.tolist() == [0]

    shape_h = MlpShape((4, 4, 3))
    v = np.zeros(shape_h.n_params)
    v[-2] = 5.0  # favor skill 1
    zero_skill = ParamVector(np.zeros(params.skill_shape.n_params))
    p2 = HierarchicalParams(ParamVector(v), (zero_skill,) * 3, shape_h, params.skill_shape)
    a2, z2 = predict_action(p2, s)
    assert z2.tolist() == [1] and np.array_equal(a2, np.zeros((1, 2)))


def test_predict_action_matches_bruteforce() -> None:
    params = small_params(45)
    rng = SplitMix64(46)
    states = rng.uniform_array(4 * 10, -2, 2).reshape(10, 4)
    a, z = predict_action(params, states)
    for s, a_row, z_row in zip(states, a, z):
        logits = mlp_forward(params.high, params.high_shape, s[None, :])[0]
        want_z = max(range(params.K), key=lambda k: (logits[k], -k))
        assert z_row == want_z
        want_a = mlp_forward(params.skills[want_z], params.skill_shape, s[None, :])[0]
        assert np.array_equal(a_row, want_a)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    K=st.integers(1, 4),
    features=st.sampled_from(["raw", "relative"]),
    seed=st.integers(0, 2**16),
)
def test_predict_action_on_n_rows_equals_n_one_row_calls(n, K, features, seed) -> None:
    params = init_hierarchical(4, 2, K, (16, 16), seed=seed, features=features)
    states = SplitMix64(seed).uniform_array(4 * n, -2, 2).reshape(n, 4)
    a, z = predict_action(params, states)
    rows = [predict_action(params, states[i : i + 1]) for i in range(n)]
    assert a.shape == (n, 2) and z.shape == (n,)
    assert a.tobytes() == np.vstack([r[0] for r in rows]).tobytes()
    assert np.array_equal(z, np.concatenate([r[1] for r in rows]))


@pytest.mark.parametrize("features", ["raw", "relative"])
@pytest.mark.parametrize("K", [1, 3])
def test_stacked_act_rows_equal_one_state_predict_action_with_their_own_set(features, K) -> None:
    # Three sets, four states each, task-major; the states are a
    # non-contiguous view, which "raw" features pass through unchanged.
    stack = [init_hierarchical(4, 2, K, (16, 16), seed=60 + i, features=features) for i in range(3)]
    wide = SplitMix64(61).uniform_array(12 * 8, -2, 2).reshape(12, 8)
    states = wide[:, ::2]
    a, z = stacked_act(stack)(states)
    assert a.shape == (12, 2) and z.shape == (12,)
    for r, s in enumerate(states):
        want_a, want_z = predict_action(stack[r // 4], s[None, :].copy())
        assert a[r].tobytes() == want_a[0].tobytes() and z[r] == want_z[0]
    if K == 3:  # the rows do not all choose one skill
        assert len(set(z.tolist())) > 1


def test_stacked_act_refuses_mixed_layouts_and_uneven_blocks() -> None:
    base = init_hierarchical(4, 2, 3, (16, 16), seed=62, features="relative")
    for other in (
        init_hierarchical(4, 2, 3, (8, 16), seed=63, features="relative"),  # layer sizes
        init_hierarchical(4, 2, 2, (16, 16), seed=63, features="relative"),  # skill count
        init_hierarchical(4, 2, 3, (16, 16), seed=63, features="raw"),  # feature map
    ):
        with pytest.raises(ContractError, match="cannot stack parameter sets of different layouts"):
            stacked_act([base, other])
    with pytest.raises(ContractError, match="at least one parameter set"):
        stacked_act([])
    with pytest.raises(ContractError, match="5 states do not split into 2 equal blocks"):
        stacked_act([base, base])(np.zeros((5, 4)))


# ---- batch sampler ----


def test_sample_phase_batches_without_replacement_when_possible() -> None:
    task = demo_task(50, n_support=8)
    groups = sample_phase_batches(task.support, 2, SplitMix64(0))
    ids = [id(t) for g in groups for t in g]
    assert len(ids) == 8 and len(set(ids)) == 8


def test_sample_phase_batches_cycles_when_short() -> None:
    task = demo_task(51, n_support=4)
    groups = sample_phase_batches(task.support, 2, SplitMix64(0))
    ids = [id(t) for g in groups for t in g]
    assert len(ids) == 8 and len(set(ids)) == 4


def test_config_validation() -> None:
    # Removed knobs are gone: setting one is an unknown-key error, like any
    # typo.  The gradcheck dimensions and the true skill count are the task
    # generator's constants; the selector takes adapt_steps at test time; the
    # task seed offsets and the gradcheck instances are runner's constants.
    from dmil.config import ConfigError, resolve_config

    for section, key, value in (
        ("dmil", "grad_mode", "first_order"),
        ("dmil", "outer_reduce", "sum"),
        ("dmil", "ho_labels", "initial"),
        ("eval", "selector_steps", 2),
        ("eval", "n_true_skills", 3),
        ("gradcheck", "state_dim", 3),
        ("gradcheck", "action_dim", 3),
        ("data", "train_task_seed0", 1000),
        ("data", "test_task_seed0", 9000),
        ("gradcheck", "hidden", 8),
        ("gradcheck", "n_skills", 2),
        ("gradcheck", "inner_rate", 5e-4),
        ("gradcheck", "fd_step", 1e-5),
        ("gradcheck", "tolerance", 1e-4),
        ("gradcheck", "trajectories", 1),
        ("gradcheck", "horizon", 16),
        ("gradcheck", "seed0", 42),
    ):
        with pytest.raises(ConfigError, match=f"unknown config key '{section}.{key}'"):
            resolve_config({section: {key: value}})
