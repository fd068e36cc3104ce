import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmil import dmil
from dmil.autodiff import ParamVector, loss_value
from dmil.data import Trajectory
from dmil.dmil import (
    Pool,
    TrainConfig,
    adapt_phases,
    few_shot_adapt,
    hard_labels,
    high_batch,
    ho_grad,
    lo_grad,
    meta_train_step,
    partition_by_skill,
    pool,
    predict_action,
    route,
    sample_phase_batches,
)
from dmil.kernels import SelectorLoss, SkillMseLoss
from dmil.policies import (
    HierarchicalParams,
    MlpShape,
    init_hierarchical,
    init_params,
    mlp_forward,
    mlp_shape,
)
from dmil.rng import SplitMix64
from dmil.tasks import make_dataset, sample_task


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
        )
        for _ in range(n)
    ]


def routed(selector, high_shape, trajs):
    """The per-skill batches of trajs (raw features) routed by the
    selector's argmax."""
    p = pool(trajs, "raw")
    return partition_by_skill(p, route(selector, high_shape, p), high_shape.out_dim)


def hi(params, trajs, rate, steps, aux):
    """The selector's inner trace alone: adapt_phases with the sub-skills fixed."""
    p = pool(trajs, params.feature_kind)
    return adapt_phases(params, p, p, rate, steps, aux, adapt_low=False)[0]


def li(params, p, rate, steps):
    """The sub-skills' inner traces alone, routed by the unadapted selector."""
    return adapt_phases(params, p, p, rate, steps, 0.0, adapt_high=False)[1]


# ---- hard labels ----


def test_hard_labels_k1_all_zero() -> None:
    params = small_params(n_skills=1)
    p = pool(random_trajs(1), "raw")
    labels = hard_labels(p, params.skills, params.skill_shape)
    assert np.array_equal(labels, np.zeros(len(p), dtype=np.int64))


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
        onehot = high_batch(p, labels, 4, 0.0).onehot
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
    loss = SelectorLoss(MlpShape((k, k)))
    return loss_value(loss, theta, high_batch(p, labels, k, 1.0)) - loss_value(loss, theta, high_batch(p, labels, k, 0.0))


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
    batch = high_batch(pool(trajs, "raw"), np.zeros(10, dtype=np.int64), 3, lam)
    got = loss_value(SelectorLoss(params.high_shape), theta, batch)
    assert got == pytest.approx(np.log(3.0) + lam * (2.0 / 3.0), rel=1e-12)


def test_high_loss_perfect_classifier_near_zero() -> None:
    shape = mlp_shape(4, 3, (4,))
    v = np.zeros(shape.n_params)
    v[-3] = 30.0  # output bias of class 0: logits [30, 0, 0] everywhere
    trajs = random_trajs(5, n=1, T=8)
    batch = high_batch(pool(trajs, "raw"), np.zeros(8, dtype=np.int64), 3, 0.5)
    got = loss_value(SelectorLoss(shape), ParamVector(v), batch)
    assert got == pytest.approx(0.0, abs=1e-6)


def test_high_loss_matches_straight_line_recomputation() -> None:
    params = small_params(7)
    trajs = random_trajs(8, n=2, T=9)
    p = pool(trajs, "raw")
    S, slices = p.states, p.slices
    labels = hard_labels(p, params.skills, params.skill_shape)
    lam = 0.25
    got = loss_value(SelectorLoss(params.high_shape), params.high, high_batch(p, labels, 3, lam))

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


# ---- hi_step: adapt_phases' selector update ----


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
    params = small_params(n_skills=1)
    trajs = random_trajs(5)
    (batch,) = routed(params.high, params.high_shape, trajs)
    p = pool(trajs, "raw")
    assert len(batch) == len(p)
    assert np.array_equal(batch.states, p.states) and np.array_equal(batch.actions, p.actions)


def test_partition_hand_set_selector() -> None:
    shape = mlp_shape(4, 3, (4,))
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


# ---- li_step: adapt_phases' sub-skill updates ----


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
    high_shape = mlp_shape(2, 1, (4,))
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


# ---- ho_grad / lo_grad ----


def _phases(params, task, cfg, step_seed=0):
    rng = SplitMix64(step_seed)
    t1, t2, t3, t4 = (pool(t, "raw") for t in sample_phase_batches(task.support, cfg.batch_size, rng))
    trace_h, traces_l = adapt_phases(params, t1, t2, cfg.inner_rate, cfg.inner_steps, cfg.aux_weight)
    batches2 = partition_by_skill(t2, route(trace_h.final, params.high_shape, t2), params.K)
    return t1, t2, t3, t4, trace_h, batches2, traces_l


def test_ho_grad_zero_rate_equals_plain_gradient() -> None:
    params = small_params(6)
    task = demo_task(6)
    cfg = TrainConfig(inner_rate=0.0, inner_steps=2, batch_size=2, aux_weight=0.1)
    t1, t2, t3, t4, trace_h, _, traces_l = _phases(params, task, cfg)
    adapted = [t.final for t in traces_l]
    batch3 = high_batch(t3, hard_labels(t3, adapted, params.skill_shape), params.K, cfg.aux_weight)
    got, _ = ho_grad(trace_h, params, batch3)

    from dmil.autodiff import value_and_grad

    want = value_and_grad(SelectorLoss(params.high_shape), params.high, batch3)[1]
    assert np.array_equal(got.values, want.values)


def test_ho_grad_first_order_equals_gradient_at_adapted() -> None:
    params = small_params(7)
    task = demo_task(7)
    cfg = TrainConfig(inner_rate=5e-3, inner_steps=2, batch_size=2, aux_weight=0.1)
    t1, t2, t3, t4, trace_h, _, traces_l = _phases(params, task, cfg)
    adapted = [t.final for t in traces_l]
    batch3 = high_batch(t3, hard_labels(t3, adapted, params.skill_shape), params.K, cfg.aux_weight)
    from dmil.autodiff import meta_grad, value_and_grad

    want = value_and_grad(SelectorLoss(params.high_shape), trace_h.final, batch3)[1]
    got = meta_grad(trace_h, want, mode="first_order")
    assert np.array_equal(got.values, want.values)
    # ho_grad is exact: it differs from the first-order reference.
    exact, _ = ho_grad(trace_h, params, batch3)
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
    cfg = TrainConfig(inner_rate=5e-4, inner_steps=1, batch_size=1, aux_weight=0.1)
    t1, t2, t3, t4, trace_h, _, traces_l = _phases(params, task, cfg)
    adapted = [t.final for t in traces_l]

    batch1 = high_batch(t1, hard_labels(t1, params.skills, params.skill_shape), params.K, cfg.aux_weight)
    batch3 = high_batch(t3, hard_labels(t3, adapted, params.skill_shape), params.K, cfg.aux_weight)
    exact, _ = ho_grad(trace_h, params, batch3)
    loss = SelectorLoss(params.high_shape)

    from dmil.autodiff import inner_adapt, loss_value

    def objective(vals):
        tr = inner_adapt(loss, ParamVector(vals), cfg.inner_rate, batch1, cfg.inner_steps)
        return loss_value(loss, tr.final, batch3)

    assert rel_err(fd_of_map(objective, params.high.values), exact.values) <= 1e-4


def test_lo_grad_zero_rate_and_empty_partition() -> None:
    params = small_params(13)
    task = demo_task(13)
    cfg = TrainConfig(inner_rate=0.0, inner_steps=1, batch_size=2)
    t1, t2, t3, t4, trace_h, _, traces_l = _phases(params, task, cfg)
    batches4 = partition_by_skill(t4, route(trace_h.final, params.high_shape, t4), params.K)
    grads, _ = lo_grad(traces_l, params, batches4)
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
    cfg = TrainConfig(inner_rate=5e-4, inner_steps=1, batch_size=1)
    t1, t2, t3, t4, trace_h, batches2, traces_l = _phases(params, task, cfg)
    batches4 = partition_by_skill(t4, route(trace_h.final, params.high_shape, t4), params.K)
    exact, _ = lo_grad(traces_l, params, batches4)
    loss = SkillMseLoss(params.skill_shape)

    from dmil.autodiff import inner_adapt, loss_value

    checked = 0
    for k, (batch2, batch4) in enumerate(zip(batches2, batches4)):
        if len(batch2) == 0 or len(batch4) == 0:
            continue

        def objective(vals, b2=batch2, b4=batch4):
            tr = inner_adapt(loss, ParamVector(vals), cfg.inner_rate, b2, cfg.inner_steps)
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
    cfg = TrainConfig(inner_rate=1e-3, inner_steps=2, batch_size=2)
    one = meta_train_step(params, [task], cfg, step_seed=3)
    two = meta_train_step(params, [task, task], cfg, step_seed=3)
    # The mean of two equal gradients is (g + g) / 2 = g, bitwise.
    assert np.array_equal(two.g_high.values, one.g_high.values)
    for g2, g1 in zip(two.g_skills, one.g_skills, strict=True):
        assert np.array_equal(g2.values, g1.values)


def test_meta_train_step_matches_hand_assembled_phases() -> None:
    params = small_params(22)
    tasks = [demo_task(22), demo_task(23)]
    cfg = TrainConfig(inner_rate=1e-3, inner_steps=2, batch_size=2, aux_weight=0.1)
    step_seed = 11
    res = meta_train_step(params, tasks, cfg, step_seed=step_seed)

    from dmil.rng import derive_seed

    sum_h = ParamVector.zeros(len(params.high))
    sum_l = [ParamVector.zeros(len(s)) for s in params.skills]
    for task in tasks:
        rng = SplitMix64(derive_seed(step_seed, task.spec.seed))
        t1, t2, t3, t4 = (pool(t, "raw") for t in sample_phase_batches(task.support, cfg.batch_size, rng))
        trace_h, traces_l = adapt_phases(params, t1, t2, cfg.inner_rate, cfg.inner_steps, cfg.aux_weight)
        adapted = [t.final for t in traces_l]
        batch3 = high_batch(t3, hard_labels(t3, adapted, params.skill_shape), params.K, cfg.aux_weight)
        sum_h = sum_h.add(ho_grad(trace_h, params, batch3)[0])
        batches4 = partition_by_skill(t4, route(trace_h.final, params.high_shape, t4), params.K)
        for k, g in enumerate(lo_grad(traces_l, params, batches4)[0]):
            sum_l[k] = sum_l[k].add(g)
    m = len(tasks)
    assert np.array_equal(res.g_high.values, sum_h.scaled(1.0 / m).values)
    for k in range(params.K):
        assert np.array_equal(res.g_skills[k].values, sum_l[k].scaled(1.0 / m).values)


def test_meta_train_step_simultaneity_probe() -> None:
    params = small_params(24)
    tasks = [demo_task(24), demo_task(25)]
    cfg = TrainConfig(inner_rate=1e-3, inner_steps=1, batch_size=2)
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
    cfg = TrainConfig(inner_rate=1e-3, inner_steps=2, batch_size=2)
    fwd = meta_train_step(params, tasks, cfg, step_seed=9)
    rev = meta_train_step(params, tasks[::-1], cfg, step_seed=9)
    assert np.max(np.abs(fwd.g_high.values - rev.g_high.values)) <= 1e-12
    for a, b in zip(fwd.g_skills, rev.g_skills):
        assert np.max(np.abs(a.values - b.values)) <= 1e-12
    again = meta_train_step(params, tasks, cfg, step_seed=9)
    assert np.array_equal(fwd.g_high.values, again.g_high.values)


def test_each_batch_is_featurized_once(monkeypatch) -> None:
    # One pool per batch: the four phase batches of a task, one demo set,
    # and the warm start's fixed pool for every epoch.
    from dmil.config import resolve_config
    from dmil.runner import warm_start

    calls = []
    real = dmil.featurize
    monkeypatch.setattr(dmil, "featurize", lambda states, kind: calls.append(kind) or real(states, kind))
    params = small_params(70)
    tasks = [demo_task(70), demo_task(71), demo_task(72)]
    meta_train_step(params, tasks, TrainConfig(inner_rate=1e-3, inner_steps=2, batch_size=2), step_seed=1)
    assert len(calls) == 4 * len(tasks)
    calls.clear()
    few_shot_adapt(params, tasks[0].support[:3], 1e-3, 2)
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
    meta_train_step(params, tasks, TrainConfig(inner_rate=1e-3, inner_steps=3, batch_size=2), step_seed=2)
    counts = Counter((id(theta), id(x)) for theta, x in seen)
    points = [(id(p.values), id(batch.states)) for trace, batch in traces for p in trace.points]
    assert len(points) >= 3 * len(tasks) * 2  # the selector and at least one sub-skill per task
    assert [counts[k] for k in points] == [1] * len(points)
    assert max(counts.values()) == 1


def test_few_shot_adapt_keeps_no_linearizations(monkeypatch) -> None:
    # Adaptation that is never differentiated holds no forward activations;
    # meta-training keeps one linearization per inner point.
    traces = _record_inner_traces(monkeypatch)
    params = small_params(82)
    task = demo_task(82)
    few_shot_adapt(params, task.support[:3], 1e-3, 4, aux_weight=0.1)
    assert traces and all(len(t.points) == 4 and t.linearized == () for t, _ in traces)
    traces.clear()
    meta_train_step(params, [task], TrainConfig(inner_rate=1e-3, inner_steps=2, batch_size=2), step_seed=3)
    assert traces and all(len(t.linearized) == len(t.points) == 2 for t, _ in traces)


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
        assert np.all(high_batch(p, labels, k, 0.0).onehot.sum(axis=1) == 1.0)
        batches = routed(params.high, params.high_shape, trajs)
        assert sum(len(b) for b in batches) == len(S)
        got = np.concatenate([b.states for b in batches if len(b)], axis=0)
        assert sorted(map(tuple, got)) == sorted(map(tuple, S))


# ---- few-shot adaptation and prediction ----


def test_few_shot_adapt_zero_rate_identity() -> None:
    params = small_params(40)
    demos = demo_task(40).support[:1]
    adapted = few_shot_adapt(params, demos, 0.0, 3)
    assert np.array_equal(adapted.high.values, params.high.values)
    for a, b in zip(adapted.skills, params.skills):
        assert np.array_equal(a.values, b.values)


def test_few_shot_adapt_three_copies_equal_one_shot() -> None:
    params = small_params(41)
    demo = demo_task(41).support[0]
    one = few_shot_adapt(params, [demo], 5e-4, 3, aux_weight=0.1)
    three = few_shot_adapt(params, [demo, demo, demo], 5e-4, 3, aux_weight=0.1)
    assert np.allclose(one.high.values, three.high.values, rtol=1e-12, atol=1e-12)
    for a, b in zip(one.skills, three.skills):
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-12)


def test_few_shot_adapt_reduces_single_skill_bc_loss_pilot() -> None:
    params = small_params(42)
    task = demo_task(42)
    demo = task.support[0]
    adapted = few_shot_adapt(params, [demo], 5e-4, 3)
    p = pool([demo], "raw")
    loss = SkillMseLoss(params.skill_shape)
    before = sum(loss_value(loss, params.skills[k], p) for k in range(params.K))
    after = sum(loss_value(loss, adapted.skills[k], p) for k in range(params.K))
    if not after < before:
        warnings.warn(f"adaptation did not reduce pooled BC loss: {before} -> {after}")


def test_few_shot_adapt_restricted_variants() -> None:
    params = small_params(43)
    demos = demo_task(43).support[:1]
    high_only = few_shot_adapt(params, demos, 1e-3, 2, adapt_low=False)
    low_only = few_shot_adapt(params, demos, 1e-3, 2, adapt_high=False)
    assert not np.array_equal(high_only.high.values, params.high.values)
    for a, b in zip(high_only.skills, params.skills):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(low_only.high.values, params.high.values)


@pytest.mark.parametrize("features", ["raw", "relative"])
@pytest.mark.parametrize("aux", [0.0, 0.1])
def test_k1_selector_adaptation_changes_nothing(features, aux) -> None:
    # With one skill the selector's softmax is identically 1 and its
    # gradient exactly zero, so maml can leave the selector unadapted.
    for seed in range(5):
        params = init_hierarchical(4, 2, 1, (8,), seed=seed, features=features)
        demos = demo_task(seed).support[:2]
        on = few_shot_adapt(params, demos, 2e-2, 10, aux_weight=aux, adapt_high=True)
        off = few_shot_adapt(params, demos, 2e-2, 10, aux_weight=aux, adapt_high=False)
        assert on.high.values.tobytes() == off.high.values.tobytes() == params.high.values.tobytes()
        assert on.skills[0].values.tobytes() == off.skills[0].values.tobytes() != params.skills[0].values.tobytes()


def test_predict_action_k1_and_hand_set() -> None:
    params = small_params(44, n_skills=1)
    s = np.array([[0.3, -0.2, 1.0, 1.0]])
    a, z = predict_action(params, s)
    assert a.shape == (1, 2) and z.tolist() == [0]

    shape_h = mlp_shape(4, 3, (4,))
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
