import itertools
import json

import numpy as np
import pytest

from dmil.autodiff import ContractError, ParamVector
from dmil.dmil import TrainConfig, predict_action
from dmil.evaluation import (
    ROLLOUT_SEED0,
    ExpertPolicy,
    HierarchicalPolicy,
    RolloutStats,
    adapted_skill_accuracy,
    fd_check,
    query_mse,
    rollout_stats,
    skill_accuracy,
    summarize_report,
    switch_rate,
    write_report_csv,
    write_summary_json,
)
from dmil.kernels import SkillMseLoss
from dmil.policies import HierarchicalParams, featurize, init_hierarchical, init_params, mlp_forward, mlp_shape
from dmil.rng import SplitMix64, derive_seed
from dmil.tasks import ACTION_MAX, DT, GOAL_TOLERANCE, N_REGIMES, START_BOX, make_dataset, sample_task, TaskSpec


# ---- fd_check ----


def test_fd_check_quadratic_tiny_error() -> None:
    theta = np.array([0.3, -1.2, 2.0])

    def objective(x):
        return float(np.sum(x**2))

    err = fd_check(objective, theta, 2.0 * theta)
    assert err <= 1e-8


def test_fd_check_small_mlp_meta_objective() -> None:
    from dmil.autodiff import inner_adapt, loss_value, meta_grad, value_and_grad
    from dmil.dmil import Pool

    shape = mlp_shape(2, 2, (8,))
    rng = SplitMix64(70)
    theta = ParamVector(rng.uniform_array(shape.n_params, -0.8, 0.8))
    s2 = rng.uniform_array(8, -1, 1).reshape(4, 2)
    a2 = rng.uniform_array(8, -1, 1).reshape(4, 2)
    s4 = rng.uniform_array(8, -1, 1).reshape(4, 2)
    a4 = rng.uniform_array(8, -1, 1).reshape(4, 2)
    loss = SkillMseLoss(shape)
    rate = 5e-4

    trace = inner_adapt(loss, theta, rate, Pool(s2, a2, ()), 1)
    exact = meta_grad(trace, value_and_grad(loss, trace.final, Pool(s4, a4, ()))[1])

    def objective(x):
        tr = inner_adapt(loss, ParamVector(x), rate, Pool(s2, a2, ()), 1)
        return loss_value(loss, tr.final, Pool(s4, a4, ()))

    assert fd_check(objective, theta.values, exact.values) <= 1e-4


def test_fd_check_exposes_first_order_gap() -> None:
    # On a curved objective the first-order meta-gradient is materially wrong.
    from dmil.autodiff import inner_adapt, loss_value, meta_grad, value_and_grad
    from dmil.dmil import Pool

    shape = mlp_shape(2, 2, (8,))
    rng = SplitMix64(71)
    theta = ParamVector(rng.uniform_array(shape.n_params, -0.8, 0.8))
    s2 = rng.uniform_array(8, -1, 1).reshape(4, 2)
    a2 = rng.uniform_array(8, -1, 1).reshape(4, 2)
    loss = SkillMseLoss(shape)
    rate = 0.05  # big enough that curvature matters

    trace = inner_adapt(loss, theta, rate, Pool(s2, a2, ()), 1)
    fo = meta_grad(trace, value_and_grad(loss, trace.final, Pool(s2, a2, ()))[1], mode="first_order")

    def objective(x):
        tr = inner_adapt(loss, ParamVector(x), rate, Pool(s2, a2, ()), 1)
        return loss_value(loss, tr.final, Pool(s2, a2, ()))

    assert fd_check(objective, theta.values, fo.values) > 1e-2


def test_fd_check_rejects_large_parameter_vectors() -> None:
    with pytest.raises(ContractError):
        fd_check(lambda x: 0.0, np.zeros(501), np.zeros(501))


# ---- skill accuracy ----


def brute_force_skill_accuracy(pred, truth, n_pred: int, n_true: int) -> float:
    """The best agreement over every injective map of true into predicted
    labels, one by one."""
    best = 0.0
    for mapping in itertools.permutations(range(n_pred), n_true):
        best = max(best, sum(np.sum(pred[truth == t] == mapping[t]) for t in range(n_true)))
    return best / len(pred)


def test_skill_accuracy_identity_and_permutation() -> None:
    truth = np.array([0, 0, 1, 2, 1, 0, 2, 2])
    assert skill_accuracy(truth, truth, 3, 3) == 1.0
    perm = np.array([2, 0, 1])  # pred = perm[truth]
    assert skill_accuracy(perm[truth], truth, 3, 3) == 1.0


def test_skill_accuracy_invariant_under_all_relabelings() -> None:
    rng = SplitMix64(80)
    truth = np.array([rng.randint(4) for _ in range(60)])
    pred = np.array([rng.randint(4) for _ in range(60)])
    base = skill_accuracy(pred, truth, 4, 4)
    for perm in itertools.permutations(range(4)):
        relabeled = np.array([perm[p] for p in pred])
        assert skill_accuracy(relabeled, truth, 4, 4) == pytest.approx(base)


def test_skill_accuracy_random_near_third_and_matches_exhaustive() -> None:
    rng = SplitMix64(81)
    n = 6000
    truth = np.array([rng.randint(3) for _ in range(n)])
    pred = np.array([rng.randint(3) for _ in range(n)])
    got = skill_accuracy(pred, truth, 3, 3)
    assert got == brute_force_skill_accuracy(pred, truth, 3, 3)
    assert abs(got - 1 / 3) < 0.05


def test_skill_accuracy_equals_brute_force_matching() -> None:
    rng = SplitMix64(82)
    for _ in range(200):
        n_true = 1 + rng.randint(4)
        n_pred = n_true + rng.randint(4)
        n = 1 + rng.randint(40)
        truth = np.array([rng.randint(n_true) for _ in range(n)])
        pred = np.array([rng.randint(n_pred) for _ in range(n)])
        got = skill_accuracy(pred, truth, n_pred, n_true)
        assert got == brute_force_skill_accuracy(pred, truth, n_pred, n_true)
        assert type(got) is np.float64


def test_skill_accuracy_contract_errors() -> None:
    # Any skill count is scored: 9 skills have 9! = 362,880 label maps.
    assert skill_accuracy(np.zeros(4), np.zeros(4), 9, 9) == 1.0
    with pytest.raises(ContractError, match="more true skills than predicted"):
        skill_accuracy(np.zeros(4), np.zeros(4), 2, 3)
    with pytest.raises(ContractError):
        skill_accuracy(np.zeros(4), np.zeros(3), 3, 3)


# ---- switch rate ----


def test_switch_rate_cases() -> None:
    assert switch_rate(np.zeros(10)) == 0.0
    alternating = np.arange(10) % 2
    assert switch_rate(alternating) == pytest.approx(9 / 10)
    rng = SplitMix64(82)
    labels = np.array([rng.randint(3) for _ in range(50)])
    want = sum(1 for i in range(49) if labels[i + 1] != labels[i]) / 50
    assert switch_rate(labels) == pytest.approx(want)


def test_switch_rate_bounds() -> None:
    rng = SplitMix64(83)
    for _ in range(20):
        n = 2 + rng.randint(30)
        labels = np.array([rng.randint(4) for _ in range(n)])
        r = switch_rate(labels)
        assert 0.0 <= r <= (n - 1) / n


# ---- adaptation MSE ----


def query_states(task) -> np.ndarray:
    return np.concatenate([t.states for t in task.query])


def pre_post_mse(policy, adapted, task) -> tuple[float, float]:
    """Query MSE of a policy and of its adapted version, each scored from
    one act call on the query states, as runner.evaluate computes them."""
    states = query_states(task)
    return query_mse(policy.act(states)[0], task), query_mse(adapted.act(states)[0], task)


def test_adaptation_mse_zero_rate_pre_equals_post() -> None:
    params = init_hierarchical(4, 2, 3, (8,), seed=1)
    task = make_dataset(sample_task(1), 6, 2, 30, seed=1)
    policy = HierarchicalPolicy(params, adapt_rate=0.0, adapt_steps=3)
    pre, post = pre_post_mse(policy, policy.adapt(list(task.support[:1])), task)
    assert pre == post


def test_adaptation_mse_expert_oracle_hits_noise_floor() -> None:
    spec = sample_task(4)
    task = make_dataset(spec, 4, 4, 60, seed=4)
    pre, post = pre_post_mse(ExpertPolicy(spec), ExpertPolicy(spec), task)
    # Residual is exactly the recorded Gaussian action noise.
    assert post == pre
    assert abs(post - spec.noise_std**2) < 0.3 * spec.noise_std**2


def test_adaptation_mse_deterministic_and_shot_checked(monkeypatch) -> None:
    from dmil.config import resolve_config
    from dmil.runner import evaluate

    params = init_hierarchical(4, 2, 3, (8,), seed=2, features="relative")
    task = make_dataset(sample_task(2), 6, 2, 30, seed=2)
    cfg = resolve_config({"eval": {"shots": [2], "episodes": 1, "adapt_rate": 1e-3, "adapt_steps": 2},
                          "data": {"horizon": 30}})
    a = evaluate(cfg, params, "dmil", [task])
    b = evaluate(cfg, params, "dmil", [task])
    assert a == b and a[0]["post_mse"] != a[0]["pre_mse"]

    def never(self, demos):
        raise AssertionError("adaptation ran before the shots check")

    monkeypatch.setattr(HierarchicalPolicy, "adapt", never)
    cfg["eval"]["shots"] = [1, 7]
    with pytest.raises(ContractError, match=f"eval.shots=7 exceeds the 6 support demonstrations of test task {task.spec.seed}"):
        evaluate(cfg, params, "dmil", [task])


def test_adapted_skill_accuracy_expert_is_perfect() -> None:
    spec = sample_task(5)
    task = make_dataset(spec, 4, 2, 40, seed=5)
    acc = adapted_skill_accuracy(ExpertPolicy(spec).act(query_states(task))[1], N_REGIMES, task)
    assert acc == 1.0


def evaluate_small(seed: int, features: str, shots=(1, 2)) -> tuple:
    """A seeded K=3 model, two test tasks whose query sets differ in size,
    and the config of one runner.evaluate on them."""
    from dmil.config import resolve_config

    params = init_hierarchical(4, 2, 3, (16, 16), seed=seed, features=features)
    tasks = [make_dataset(sample_task(9000 + seed + i), 4, 2 + i, 40, seed=seed + i) for i in range(2)]
    cfg = resolve_config({"eval": {"shots": list(shots), "episodes": 2, "adapt_rate": 2e-2, "adapt_steps": 3},
                          "data": {"horizon": 40}})
    return cfg, params, tasks


def one_state_at_a_time(params: HierarchicalParams, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = [predict_action(params, s[None, :]) for s in states]
    return np.vstack([a for a, _ in rows]), np.concatenate([z for _, z in rows])


@pytest.mark.parametrize("features", ["raw", "relative"])
def test_evaluate_scores_one_state_predict_action(monkeypatch, features) -> None:
    # The scored query actions and skills are the ones a rollout would take:
    # every row is bitwise predict_action on that state alone, under the
    # unadapted parameters for pre_mse and the adapted ones after.
    from dmil import evaluation, runner

    scored, adapted = [], []
    mse, acc, adapt = runner.query_mse, runner.adapted_skill_accuracy, evaluation.few_shot_adapt
    monkeypatch.setattr(runner, "query_mse", lambda a, task: scored.append(("mse", a, task)) or mse(a, task))
    monkeypatch.setattr(
        runner, "adapted_skill_accuracy", lambda z, n, task: scored.append(("acc", z, task)) or acc(z, n, task)
    )
    monkeypatch.setattr(evaluation, "few_shot_adapt", lambda *a, **kw: adapted.append(adapt(*a, **kw)) or adapted[-1])
    for seed in range(3):
        scored.clear()
        adapted.clear()
        cfg, params, tasks = evaluate_small(seed, features)
        runner.evaluate(cfg, params, "dmil", tasks)
        want = [("mse", one_state_at_a_time(params, query_states(t))[0], t) for t in tasks]
        for p, task in zip(adapted, tasks * len(cfg["eval"]["shots"]), strict=True):
            a, z = one_state_at_a_time(p, query_states(task))
            want += [("mse", a, task), ("acc", z, task)]

        def key(item):
            kind, values, task = item
            return kind, task.spec.seed, values.tobytes()

        assert sorted(map(key, scored)) == sorted(map(key, want))


def test_evaluate_predicts_each_query_set_once_per_policy(monkeypatch) -> None:
    # One prediction by the unadapted policy, shared by every shots row of a
    # task, and one per adapted policy for both post_mse and skill_acc.
    from dmil import evaluation, runner

    rows = []
    real = evaluation.predict_action
    monkeypatch.setattr(evaluation, "predict_action", lambda params, states: rows.append(len(states)) or real(params, states))
    cfg, params, tasks = evaluate_small(5, "relative", shots=(1, 2, 3))
    out = runner.evaluate(cfg, params, "dmil", tasks)
    for task in tasks:
        assert rows.count(len(query_states(task))) == 1 + len(cfg["eval"]["shots"])
        assert len({r["pre_mse"] for r in out if r["task_seed"] == task.spec.seed}) == 1


# ---- rollouts ----


def test_rollout_success_expert_is_one() -> None:
    spec = sample_task(6)
    assert rollout_stats(ExpertPolicy(spec), spec, episodes=4, T=120).success_rate == 1.0


def test_rollout_success_zero_policy_is_zero() -> None:
    spec = sample_task(7)
    # One skill with all-zero parameters: every action is zero.
    high, skill = mlp_shape(4, 1, (8,)), mlp_shape(4, 2, (8,))
    params = HierarchicalParams(ParamVector(np.zeros(high.n_params)), (ParamVector(np.zeros(skill.n_params)),), high, skill)
    zero = HierarchicalPolicy(params, 0.0, 1)
    assert np.array_equal(zero.act(np.ones((2, 4)))[0], np.zeros((2, 2)))
    assert rollout_stats(zero, spec, episodes=3, T=120).success_rate == 0.0


def test_rollout_stats_switch_rate_of_expert_is_low() -> None:
    spec = sample_task(8)
    stats = rollout_stats(ExpertPolicy(spec), spec, episodes=3, T=120)
    assert stats.success_rate == 1.0
    assert 0.0 < stats.mean_switch_rate < 0.2  # a handful of genuine regime changes


def goal_seeking_params(features: str, K: int, noise: float) -> HierarchicalParams:
    """A seeded selector over K skills that each steer at the goal with their
    own gain, a = (6 + 2k)(g - p), plus `noise` times their seeded init."""
    params = init_hierarchical(4, 2, K, (8,), seed=3, features=features)
    w1 = np.zeros((params.skill_shape.in_dim, 8))  # hidden j: relu(+-(g - p) on one axis)
    for j, (axis, sign) in enumerate(((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0))):
        w1[2 + axis, j], w1[axis, j] = sign, -sign
    w2 = np.zeros((8, 2))
    w2[[0, 1, 2, 3], [0, 0, 1, 1]] = 1.0, -1.0, 1.0, -1.0
    skills = []
    for k, init in enumerate(params.skills):
        steer = np.concatenate([w1.ravel(), np.zeros(8), (6.0 + 2 * k) * w2.ravel(), np.zeros(2)])
        skills.append(ParamVector(steer + noise * init.values))
    return params.with_updates(params.high, tuple(skills))


def one_episode_at_a_time(params: HierarchicalParams, spec: TaskSpec, episodes: int, T: int) -> RolloutStats:
    """Reference rollout_stats: each episode alone, one state per step, and
    one-row mlp_forward calls for the selector and the chosen skill."""
    waypoints = [np.asarray(w) for w in spec.waypoints]
    successes, rates = 0, []
    for e in range(episodes):
        rng = SplitMix64(derive_seed(spec.seed, ROLLOUT_SEED0 + e))
        p = np.array([rng.uniform(-START_BOX, START_BOX), rng.uniform(-START_BOX, START_BOX)])
        reached, chosen = 0, []
        for _ in range(T):
            g = waypoints[min(reached, len(waypoints) - 1)]
            x = featurize(np.concatenate([p, g])[None, :], params.feature_kind)
            z = int(np.argmax(mlp_forward(params.high, params.high_shape, x)[0]))
            a = mlp_forward(params.skills[z], params.skill_shape, x)[0]
            chosen.append(z)
            p = p + DT * np.clip(a, -ACTION_MAX, ACTION_MAX)
            if reached < len(waypoints) and np.linalg.norm(g - p) < GOAL_TOLERANCE:
                reached += 1
        successes += int(reached == len(waypoints))
        rates.append(switch_rate(chosen))
    return RolloutStats(successes / episodes, float(np.mean(rates)))


@pytest.mark.parametrize("episodes", [1, 5])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("features", ["raw", "relative"])
def test_batched_rollout_stats_equal_one_episode_at_a_time(features, K, episodes) -> None:
    policy = HierarchicalPolicy(goal_seeking_params(features, K, noise=0.1), 0.0, 1)
    got = [rollout_stats(policy, sample_task(t), episodes, 120) for t in (9000, 9001, 9004)]
    want = [one_episode_at_a_time(policy.params, sample_task(t), episodes, 120) for t in (9000, 9001, 9004)]
    assert [repr(s) for s in got] == [repr(s) for s in want]  # repr also tells -0.0 from 0.0
    # The three tasks hold both outcomes, so the waypoint schedule is exercised.
    assert min(s.success_rate for s in want) < 1.0 and max(s.success_rate for s in want) > 0.0


# ---- reports ----


def test_report_roundtrip_and_summary(tmp_path) -> None:
    rows = [
        dict(method="dmil", seed=0, task_seed=9000, shots=1, pre_mse=1.0, post_mse=0.25,
             skill_acc=0.9, switch_rate=0.05, success=1.0),
        dict(method="dmil", seed=1, task_seed=9000, shots=1, pre_mse=1.2, post_mse=0.35,
             skill_acc=0.8, switch_rate=0.07, success=0.8),
    ]
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "summary.json"
    write_report_csv(csv_path, rows)
    write_summary_json(json_path, rows)
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("method,seed,task_seed,shots")
    assert len(text) == 3
    summary = json.loads(json_path.read_text())
    entry = summary["dmil/shots=1"]
    assert entry["post_mse"]["mean"] == pytest.approx(0.3)
    assert entry["post_mse"]["n"] == 2
