import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmil.autodiff import ContractError
from dmil.rng import SplitMix64, Streams, derive_seed
from dmil.tasks import (
    ACTION_DIM,
    ACTION_MAX,
    DOCK_GAIN,
    DOCK_SOFT,
    DT,
    GOAL_TOLERANCE,
    MIN_HORIZON,
    MIN_QUERY,
    MIN_SUPPORT,
    START_BOX,
    DatasetFormatError,
    TaskDataset,
    TaskSpec,
    expert,
    load_datasets,
    make_dataset,
    rollout_expert,
    rollout_policy,
    sample_task,
    save_datasets,
    simulate,
)


def noiseless(spec: TaskSpec) -> TaskSpec:
    return TaskSpec(
        spec.seed, spec.rotation_angle, spec.gain_scale, spec.switch_radii, spec.waypoints, 0.0
    )


# ---- task sampling ----


def test_sample_task_deterministic() -> None:
    assert sample_task(17) == sample_task(17)


def test_sample_task_100_distinct_specs() -> None:
    specs = [sample_task(s) for s in range(100)]
    assert len({(sp.rotation_angle, sp.gain_scale, sp.switch_radii, sp.waypoints) for sp in specs}) == 100


def test_sample_task_ranges() -> None:
    for s in range(50):
        sp = sample_task(s)
        assert -np.pi / 4 <= sp.rotation_angle <= np.pi / 4
        assert 0.5 <= sp.gain_scale <= 2.0
        r1, r2 = sp.switch_radii
        assert r1 > r2 > 0
        assert len(sp.waypoints) >= 2


def test_taskspec_invariants_enforced() -> None:
    with pytest.raises(ContractError):
        TaskSpec(0, 0.0, 1.0, (0.2, 0.5), ((1.0, 0.0), (2.0, 0.0)), 0.01)
    with pytest.raises(ContractError):
        TaskSpec(0, 0.0, 3.0, (0.5, 0.2), ((1.0, 0.0), (2.0, 0.0)), 0.01)
    with pytest.raises(ContractError):
        TaskSpec(0, 0.0, 1.0, (0.5, 0.2), ((1.0, 0.0),), 0.01)


# ---- expert controller ----


def expert_action(spec: TaskSpec, state) -> tuple[np.ndarray, int]:
    """Reference controller, one state at a time: action and regime for
    state [px, py, gx, gy], the rotation as one 2x2 product per state."""
    state = np.asarray(state, dtype=np.float64)
    p, g = state[0:2], state[2:4]
    delta = g - p
    d = float(np.linalg.norm(delta))
    r1, r2 = spec.switch_radii
    if d > r1:
        return spec.gain_scale * (rot(spec.rotation_angle) @ (delta / max(d, 1e-6))), 0
    if d > r2:
        return spec.gain_scale * (rot(spec.rotation_angle + np.pi / 2) @ (delta / max(d, 1e-6))), 1
    return DOCK_GAIN * spec.gain_scale * (delta / max(d, DOCK_SOFT)), 2


def rot(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def act_one(spec: TaskSpec, state) -> tuple[np.ndarray, int]:
    """The expert on a one-row batch."""
    a, z = expert(spec)(np.asarray(state, dtype=np.float64)[None])
    assert a.shape == (1, 2) and z.shape == (1,)
    return a[0], int(z[0])


def test_expert_at_goal_zero_action_dock() -> None:
    spec = sample_task(3)
    a, z = act_one(spec, [1.0, -2.0, 1.0, -2.0])
    assert np.array_equal(a, np.zeros(2))
    assert z == 2


def test_expert_identity_task_unit_vector_approach() -> None:
    spec = TaskSpec(0, 0.0, 1.0, (0.5, 0.25), ((2.0, 0.0), (3.0, 0.0)), 0.0)
    d = 2 * spec.switch_radii[0]
    a, z = act_one(spec, [0.0, 0.0, d, 0.0])
    assert z == 0
    assert a == pytest.approx([1.0, 0.0])


def test_expert_skill_boundaries_match_brute_force() -> None:
    rng = SplitMix64(55)
    for seed in range(20):
        spec = sample_task(seed)
        r1, r2 = spec.switch_radii
        states = rng.uniform_array(4 * 50, -2.0, 2.0).reshape(50, 4)
        _, skills = expert(spec)(states)
        for s, z in zip(states, skills):
            dist = np.sqrt((s[2] - s[0]) ** 2 + (s[3] - s[1]) ** 2)
            want = 0 if dist > r1 else (1 if dist > r2 else 2)
            assert z == want


def test_expert_orbit_is_perpendicular_to_goal_direction() -> None:
    spec = noiseless(sample_task(9))
    r1, r2 = spec.switch_radii
    d = (r1 + r2) / 2
    a, z = act_one(spec, [0.0, 0.0, d, 0.0])
    assert z == 1
    # Same magnitude as the approach action, rotated a quarter turn further.
    approach, _ = act_one(spec, [0.0, 0.0, 2 * r1, 0.0])
    assert np.linalg.norm(a) == pytest.approx(spec.gain_scale)
    ang = np.arctan2(a[1], a[0]) - np.arctan2(approach[1], approach[0])
    assert np.cos(ang) == pytest.approx(0.0, abs=1e-12)


coordinate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def expert_state(draw, spec: TaskSpec) -> list[float]:
    """A state anywhere, or one whose goal distance sits exactly on a switch
    radius, just beside it, at zero, below 1e-6 or inside DOCK_SOFT."""
    px, py = draw(coordinate), draw(coordinate)
    r1, r2 = spec.switch_radii
    kind = draw(st.sampled_from(["free", "r1", "r2", "beside", "goal", "tiny", "soft"]))
    if kind == "free":
        return [px, py, draw(coordinate), draw(coordinate)]
    if kind == "goal":
        return [px, py, px, py]
    if kind in ("r1", "r2"):
        # From the origin along an axis, the distance is the radius exactly.
        r = r1 if kind == "r1" else r2
        gx, gy = draw(st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)]))
        return [0.0, 0.0, gx, gy]
    if kind == "beside":
        r = np.nextafter(draw(st.sampled_from([r1, r2])), draw(st.sampled_from([-np.inf, np.inf])))
        return [0.0, 0.0, 0.0, float(r)]
    top = 1e-6 if kind == "tiny" else DOCK_SOFT
    return [px, py, px + draw(st.floats(-top, top)), py + draw(st.floats(-top, top))]


@given(data=st.data(), task_seed=st.integers(0, 10_000), n=st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_expert_act_equals_reference_row_by_row(data, task_seed, n) -> None:
    spec = sample_task(task_seed)
    states = np.array([data.draw(expert_state(spec)) for _ in range(n)])
    actions, skills = expert(spec)(states)
    assert actions.shape == (n, 2) and skills.dtype == np.int64
    for s, a, z in zip(states, actions, skills):
        want_a, want_z = expert_action(spec, s)
        assert z == want_z
        assert a.tobytes() == want_a.tobytes()


@given(data=st.data(), task_seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
       rows=st.lists(st.integers(1, 5), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_per_row_expert_equals_each_specs_expert_on_its_block(data, task_seeds, rows) -> None:
    specs, rows = [sample_task(seed) for seed in task_seeds], rows[: len(task_seeds)]
    blocks = [np.array([data.draw(expert_state(spec)) for _ in range(k)]) for spec, k in zip(specs, rows)]
    actions, skills = expert(specs, rows)(np.concatenate(blocks))
    stop = np.cumsum(rows)
    for spec, block, end in zip(specs, blocks, stop):
        want_a, want_z = expert(spec)(block)
        assert actions[end - len(block) : end].tobytes() == want_a.tobytes()
        assert skills[end - len(block) : end].tobytes() == want_z.tobytes()


def test_per_row_expert_switches_on_each_rows_own_radii() -> None:
    # Each row exactly on its own spec's r1, then r2, then at its goal (d =
    # 0), beside a spec whose radii differ: the regimes are each row's own.
    specs = [sample_task(4), sample_task(5)]
    assert specs[0].switch_radii != specs[1].switch_radii
    states = np.array([[0.0, 0.0, r, 0.0] for sp in specs for r in sp.switch_radii] + [[0.5, 0.5, 0.5, 0.5]] * 2)
    per_spec = [states[[0, 1, 4]], states[[2, 3, 5]]]
    actions, skills = expert(specs, [3, 3])(np.concatenate(per_spec))
    assert skills.tolist() == [1, 2, 2, 1, 2, 2]
    for i, (spec, block) in enumerate(zip(specs, per_spec)):
        want_a, want_z = expert(spec)(block)
        assert actions[3 * i : 3 * i + 3].tobytes() == want_a.tobytes()
        assert skills[3 * i : 3 * i + 3].tobytes() == want_z.tobytes()
    assert np.array_equal(actions[[2, 5]], np.zeros((2, 2)))


def test_expert_act_radius_cases_pick_the_inner_regime() -> None:
    spec = sample_task(4)
    r1, r2 = spec.switch_radii
    states = np.array([[0.0, 0.0, r1, 0.0], [0.0, 0.0, 0.0, -r2], [0.5, 0.5, 0.5, 0.5]])
    _, skills = expert(spec)(states)
    assert skills.tolist() == [1, 2, 2]


# ---- rollouts ----


def independent_replay(spec: TaskSpec, T: int, seed: int) -> np.ndarray:
    """Fresh reimplementation of the rollout (noise-free specs only)."""
    rng = SplitMix64(derive_seed(spec.seed, seed))
    px = rng.uniform(-0.2, 0.2)
    py = rng.uniform(-0.2, 0.2)
    pos = [px, py]
    wp = [list(w) for w in spec.waypoints]
    hit = 0
    out = []
    c, s = np.cos(spec.rotation_angle), np.sin(spec.rotation_angle)
    for _ in range(T):
        goal = wp[hit] if hit < len(wp) else wp[-1]
        out.append([pos[0], pos[1], goal[0], goal[1]])
        dx, dy = goal[0] - pos[0], goal[1] - pos[1]
        dist = np.hypot(dx, dy)
        r1, r2 = spec.switch_radii
        if dist > r1:
            ux, uy = dx / max(dist, 1e-6), dy / max(dist, 1e-6)
            ax, ay = spec.gain_scale * (c * ux - s * uy), spec.gain_scale * (s * ux + c * uy)
        elif dist > r2:
            ux, uy = dx / max(dist, 1e-6), dy / max(dist, 1e-6)
            # rotation + 90 degrees
            c2, s2 = -s, c
            ax, ay = spec.gain_scale * (c2 * ux - s2 * uy), spec.gain_scale * (s2 * ux + c2 * uy)
        else:
            ux, uy = dx / max(dist, DOCK_SOFT), dy / max(dist, DOCK_SOFT)
            g = DOCK_GAIN * spec.gain_scale
            ax, ay = g * ux, g * uy
        pos[0] += DT * min(max(ax, -ACTION_MAX), ACTION_MAX)
        pos[1] += DT * min(max(ay, -ACTION_MAX), ACTION_MAX)
        gi = min(hit, len(wp) - 1)
        if hit < len(wp) and np.hypot(wp[gi][0] - pos[0], wp[gi][1] - pos[1]) < GOAL_TOLERANCE:
            hit += 1
    return np.array(out)


def test_rollout_matches_independent_replay() -> None:
    spec = noiseless(sample_task(1234))
    traj = rollout_expert(spec, 120, 0)
    want = independent_replay(spec, 120, 0)
    assert np.max(np.abs(traj.states - want)) <= 1e-9


def test_rollout_length_and_labels() -> None:
    spec = sample_task(7)
    traj = rollout_expert(spec, 120, 2)
    assert len(traj) == 120
    assert traj.true_skills is not None and traj.true_skills.shape == (120,)


def test_rollout_visits_multiple_skills() -> None:
    for seed in range(20):
        traj = rollout_expert(sample_task(seed), 120, 0)
        assert len(set(traj.true_skills.tolist())) >= 2


def test_rollout_deterministic() -> None:
    spec = sample_task(5)
    a = rollout_expert(spec, 50, 3)
    b = rollout_expert(spec, 50, 3)
    assert np.array_equal(a.states, b.states) and np.array_equal(a.actions, b.actions)


def test_expert_solves_every_sampled_task() -> None:
    from dmil.evaluation import ExpertPolicy

    for seed in range(25):
        spec = sample_task(3000 + seed)
        skills, ok = rollout_policy([spec], ExpertPolicy(spec).act, 120, [1, 2])
        assert skills.shape == (2, 120)
        assert ok.tolist() == [True, True], f"expert failed its own task, seed {seed}"


# ---- datasets ----


def one_demonstration_at_a_time(spec: TaskSpec, T: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference demonstration: one state per step, expert_action plus the
    step's noise, drawn from the episode's own stream when it is needed
    (after the start box and the noise of the steps before).  A noise-free
    spec draws no noise and adds none."""
    rng = SplitMix64(derive_seed(spec.seed, seed))
    p = np.array([rng.uniform(-START_BOX, START_BOX), rng.uniform(-START_BOX, START_BOX)])
    waypoints = [np.asarray(w) for w in spec.waypoints]
    reached, states, actions, skills = 0, [], [], []
    for _ in range(T):
        g = waypoints[min(reached, len(waypoints) - 1)]
        s = np.concatenate([p, g])
        a, z = expert_action(spec, s)
        if spec.noise_std > 0:
            a = a + spec.noise_std * rng.normal_array(2)
        states.append(s)
        actions.append(a)
        skills.append(z)
        p = p + DT * np.clip(a, -ACTION_MAX, ACTION_MAX)
        if reached < len(waypoints) and np.linalg.norm(g - p) < GOAL_TOLERANCE:
            reached += 1
    return np.array(states), np.array(actions), np.array(skills, dtype=np.int64)


@pytest.mark.parametrize("task_seed,seed", [(0, 77), (11, 4), (3005, 1), (9002, 123)])
def test_make_dataset_equals_one_demonstration_at_a_time(task_seed, seed) -> None:
    # Each spec alone, then both as one split: a noise-free task beside a
    # noisy one adds no noise.
    specs = [sample_task(task_seed), noiseless(sample_task(task_seed))]
    for ds in [make_dataset(spec, 4, 3, 120, seed=seed) for spec in specs] + make_dataset(specs, 4, 3, 120, [seed] * 2):
        spec = ds.spec
        for j, traj in enumerate(ds.support + ds.query):
            states, actions, skills = one_demonstration_at_a_time(spec, 120, derive_seed(seed, j))
            assert traj.states.tobytes() == states.tobytes()
            assert traj.actions.tobytes() == actions.tobytes()
            assert traj.true_skills.tobytes() == skills.tobytes()
        # The demonstrations finish their tours, so the waypoint schedule is exercised.
        assert np.array_equal(ds.query[0].states[-1, 2:], spec.waypoints[-1])
        # A single demonstration draws from the stream of its seed alone.
        traj = rollout_expert(spec, 120, seed)
        want = one_demonstration_at_a_time(spec, 120, seed)
        assert [traj.states.tobytes(), traj.actions.tobytes(), traj.true_skills.tobytes()] == [x.tobytes() for x in want]


@pytest.fixture
def noise_draws(monkeypatch):
    """Counts Streams.normal_array calls, the only draw of action noise."""
    seen = []
    keep = Streams.normal_array

    def normal_array(self, k, std=1.0):
        seen.append(k)
        return keep(self, k, std)

    monkeypatch.setattr(Streams, "normal_array", normal_array)
    return seen


@pytest.mark.parametrize("T", [2, 40, 120])
def test_one_noise_draw_per_expert_simulation_and_none_for_policies(noise_draws, T) -> None:
    spec = sample_task(21)
    make_dataset(spec, 4, 2, T, seed=3)
    rollout_expert(spec, T, 5)
    assert noise_draws == [T * ACTION_DIM, T * ACTION_DIM]
    noise_draws.clear()
    make_dataset(noiseless(spec), 4, 2, T, seed=3)
    rollout_policy([spec], expert(spec), T, [1, 2, 3])
    assert noise_draws == []
    # A split draws once per noisy task.
    make_dataset([spec, noiseless(spec), sample_task(22)], 4, 2, T, [3, 3, 4])
    assert noise_draws == [T * ACTION_DIM] * 2


def test_simulating_several_specs_equals_one_spec_at_a_time() -> None:
    # Task-major episodes of specs with different waypoint counts, each
    # expert acting on its own block of rows, under the same action noise.
    full = sample_task(3001)
    specs = [sample_task(9000), dataclasses.replace(full, waypoints=full.waypoints[:2]), sample_task(12)]
    seeds, T = [4, 5, 6], 120

    def experts(states):
        outs = [expert(spec)(states[3 * i : 3 * i + 3]) for i, spec in enumerate(specs)]
        return np.concatenate([a for a, _ in outs]), np.concatenate([z for _, z in outs])

    together = simulate(specs, experts, T, [seeds] * len(specs), noisy=True)
    alone = [simulate([spec], expert(spec), T, [seeds], noisy=True) for spec in specs]
    for got, parts in zip(together, zip(*alone)):
        assert got.tobytes() == np.concatenate(parts).tobytes()
    # The two-waypoint tour finishes at its own last waypoint.
    assert together[3].all() and np.array_equal(together[0][3, -1, 2:], full.waypoints[1])


def test_simulate_needs_one_seed_list_per_spec() -> None:
    specs = [sample_task(1), sample_task(2)]
    with pytest.raises(ContractError, match="1 seed lists for 2 specs"):
        simulate(specs, expert(specs, [2, 2]), 20, [[1, 2]])
    with pytest.raises(ContractError, match="3 seed lists for 2 specs"):
        simulate(specs, expert(specs, [1, 1]), 20, [[1], [2], [3]])
    with pytest.raises(ContractError, match="3 seeds for 2 specs"):
        make_dataset(specs, 4, 1, 20, [1, 2, 3])


@pytest.mark.parametrize(
    "task_seeds,n_support,n_query,T",
    [
        ((9000, 9001, 9002), MIN_SUPPORT, MIN_QUERY, MIN_HORIZON),
        ((1000,), MIN_SUPPORT, MIN_QUERY, MIN_HORIZON),
        ((3, 1000, 9004, 12), 6, 3, 120),
        ((7,), 14, 2, 40),
    ],
)
def test_make_dataset_over_specs_equals_one_spec_at_a_time(task_seeds, n_support, n_query, T) -> None:
    # The split form, at the MIN_SUPPORT/MIN_QUERY/MIN_HORIZON bounds, for a
    # single spec and for several: byte for byte each spec's own call.
    specs = [sample_task(seed) for seed in task_seeds]
    seeds = [derive_seed(5, spec.seed) for spec in specs]
    together = make_dataset(specs, n_support, n_query, T, seeds)
    assert isinstance(together, list) and len(together) == len(specs)
    for ds, spec, seed in zip(together, specs, seeds):
        alone = make_dataset(spec, n_support, n_query, T, seed=seed)
        assert ds.spec == spec and (len(ds.support), len(ds.query)) == (n_support, n_query)
        for got, want in zip(ds.support + ds.query, alone.support + alone.query, strict=True):
            assert [got.states.tobytes(), got.actions.tobytes(), got.true_skills.tobytes()] == [
                want.states.tobytes(), want.actions.tobytes(), want.true_skills.tobytes()]


def test_simulating_no_episode_is_a_contract_error() -> None:
    from dmil.evaluation import ExpertPolicy, rollout_stats

    spec = sample_task(8)
    with pytest.raises(ContractError, match="at least one episode"):
        rollout_policy([spec], ExpertPolicy(spec).act, 120, [])
    with pytest.raises(ContractError, match="at least one episode"):
        rollout_stats(ExpertPolicy(spec), spec, 0, 120)


def test_make_dataset_shapes_and_split() -> None:
    ds = make_dataset(sample_task(11), 6, 2, 40, seed=4)
    assert len(ds.support) == 6 and len(ds.query) == 2
    assert all(len(t) == 40 for t in ds.support + ds.query)


def test_make_dataset_rejects_small_support() -> None:
    with pytest.raises(ContractError):
        make_dataset(sample_task(0), 3, 1, 40, seed=0)
    with pytest.raises(ContractError):
        make_dataset(sample_task(0), 4, 0, 40, seed=0)


def test_dataset_roundtrip_exact(tmp_path) -> None:
    datasets = [make_dataset(sample_task(s), 4, 2, 25, seed=s) for s in (20, 21)]
    path = tmp_path / "data.jsonl"
    save_datasets(path, datasets)
    loaded = load_datasets(path)
    assert len(loaded) == 2
    for a, b in zip(datasets, loaded):
        assert a.spec == b.spec
        for ta, tb in zip(a.support + a.query, b.support + b.query):
            assert np.array_equal(ta.states, tb.states)
            assert np.array_equal(ta.actions, tb.actions)
            assert np.array_equal(ta.true_skills, tb.true_skills)


def test_load_reports_malformed_line(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    ds = make_dataset(sample_task(1), 4, 1, 25, seed=1)
    save_datasets(path, [ds])
    lines = path.read_text().splitlines()
    lines[2] = '{"task_seed": 1, "split": "support"}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_datasets(path)


def test_dataset_disjointness_enforced() -> None:
    ds = make_dataset(sample_task(2), 4, 1, 25, seed=2)
    with pytest.raises(ContractError):
        TaskDataset(ds.support, (ds.support[0],), ds.spec)
