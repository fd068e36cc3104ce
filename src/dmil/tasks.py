"""Synthetic multi-task benchmark: a point mass steered through waypoints by a
switching controller with three radius-banded regimes.

Ground truth per task: far from the goal the controller heads (rotated)
straight at it; inside the outer radius it spirals in at ninety degrees to
the goal direction; inside the inner radius it docks with a weak
counter-rotated saturated-proportional pull.  The three regimes are pairwise
distinct as direction/magnitude fields, so they are identifiable from states
alone.  Rotation angles are drawn clockwise-only so the spiral always makes
radial progress; gains are drawn high enough that the waypoint tour fits the
horizon.  Tasks vary controller gain and rotation (sub-skill adaptation
pressure) and the switch radii (selector adaptation pressure).

One dynamics loop, simulate, steps the noisy expert demonstrations (all of
a split's tasks in one call) and the closed-loop rollouts that score a
policy (those of every test task in one call), task-major, each episode
touring its own spec's waypoints.  Before the first step each episode draws
from its own stream its start box, then (demonstrations only) all T steps'
action noise at once; one task's streams draw together (rng.Streams), each
the same draws in the same order as one step at a time.  The loop itself
only acts and steps.  The expert acts on all states of a step at once, each
row with its own task's parameters, rounding as one state at a time does.

Everything is deterministic given seeds via the package RNG, including the
JSON Lines dataset files, which round-trip doubles exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .autodiff import ContractError
from .data import Trajectory, finite_reals, json_int, read_json
from .rng import SplitMix64, Streams, derive_seed

DT = 0.1
ACTION_MAX = 1.0
GOAL_TOLERANCE = 0.05
DOCK_GAIN = 0.3
DOCK_SOFT = 0.15  # saturation radius of the dock controller
NOISE_STD = 0.01

ROTATION_RANGE = (-np.pi / 4, -np.pi / 6)  # within the documented [-pi/4, pi/4]
GAIN_RANGE = (1.0, 2.0)  # within the documented [0.5, 2.0]
R1_RANGE = (0.58, 0.72)
R2_RANGE = (0.21, 0.28)
WAYPOINT_DIST_RANGE = (1.1, 1.4)
N_WAYPOINTS = 4
START_BOX = 0.2
STATE_DIM = 4  # [px, py, gx, gy]
ACTION_DIM = 2
N_REGIMES = 3  # approach, orbit, dock: the hidden skill labels 0, 1, 2
# The smallest datasets make_dataset and simulate build, and config.SCHEMA's
# data.* bounds: four phase batches come from the support set.
MIN_SUPPORT, MIN_QUERY, MIN_HORIZON = 4, 1, 2


class DatasetFormatError(ValueError):
    """A dataset file is unreadable or empty, or a line is not what the simulator writes."""


@dataclass(frozen=True)
class TaskSpec:
    seed: int
    rotation_angle: float
    gain_scale: float
    switch_radii: tuple[float, float]  # (r1, r2), r1 > r2 > 0
    waypoints: tuple[tuple[float, float], ...]
    noise_std: float

    def __post_init__(self):
        r1, r2 = self.switch_radii
        if not (r1 > r2 > 0):
            raise ContractError(f"need r1 > r2 > 0, got {self.switch_radii}")
        if not (0.5 <= self.gain_scale <= 2.0):
            raise ContractError(f"gain_scale {self.gain_scale} outside [0.5, 2.0]")
        if len(self.waypoints) < 2:
            raise ContractError("need at least two waypoints")
        if self.noise_std < 0:
            raise ContractError("noise_std must be >= 0")


def sample_task(seed: int) -> TaskSpec:
    """Deterministic task draw; the field order below is the stream contract."""
    rng = SplitMix64(derive_seed(seed, 0xA5))
    rotation = rng.uniform(*ROTATION_RANGE)
    gain = rng.uniform(*GAIN_RANGE)
    r1 = rng.uniform(*R1_RANGE)
    r2 = rng.uniform(*R2_RANGE)
    waypoints = []
    anchor = np.zeros(2)
    for _ in range(N_WAYPOINTS):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        dist = rng.uniform(*WAYPOINT_DIST_RANGE)
        anchor = anchor + dist * np.array([np.cos(angle), np.sin(angle)])
        waypoints.append((float(anchor[0]), float(anchor[1])))
    return TaskSpec(
        seed=seed,
        rotation_angle=rotation,
        gain_scale=gain,
        switch_radii=(r1, r2),
        waypoints=tuple(waypoints),
        noise_std=NOISE_STD,
    )


def _rot(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def expert(spec: TaskSpec | Sequence[TaskSpec], rows: Sequence[int] = (1,)) -> Callable:
    """The noise-free controller act(states): (n, 4) states [px, py, gx, gy]
    to (n, 2) actions and (n,) regimes.  One spec acts on every row; of a
    sequence, spec i acts on the next rows[i] rows, its radii, gains and
    rotations laid out once per row.  simulate adds a demonstration's noise.

    Far from the goal (d > r1) the action is the gain times the unit goal
    direction rotated by the task angle; between the radii the rotation is a
    quarter turn more.  Each row is rotated by its own 2x2 product, so it
    rounds as one-state arithmetic does.  Inside r2 it is a
    saturated-proportional pull straight at the goal: constant speed down to
    DOCK_SOFT, then proportional decay, so docking finishes within the
    horizon and the mass settles instead of hovering.  The pull is unrotated
    on purpose: it stays at least the rotation angle away from the approach
    field and a quarter turn minus the rotation away from the orbit field
    for every task, so no two regimes can share a direction structure.
    """
    specs = [spec] if isinstance(spec, TaskSpec) else spec
    r1, r2, gain = np.repeat([(*sp.switch_radii, sp.gain_scale) for sp in specs], rows, axis=0).T
    rots = [(_rot(sp.rotation_angle), _rot(sp.rotation_angle + np.pi / 2)) for sp in specs]
    approach_rot, orbit_rot = np.repeat(rots, rows, axis=0).swapaxes(0, 1)
    gain, dock_gain = gain[:, None], DOCK_GAIN * gain[:, None]

    def act(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        delta = states[:, 2:4] - states[:, 0:2]
        d = np.sqrt(np.vecdot(delta, delta))
        skills = np.where(d > r1, 0, np.where(d > r2, 1, 2))
        unit = (delta / np.maximum(d, 1e-6)[:, None])[:, :, None]
        turned = gain * (np.where((skills == 0)[:, None, None], approach_rot, orbit_rot) @ unit)[:, :, 0]
        dock = dock_gain * (delta / np.maximum(d, DOCK_SOFT)[:, None])
        return np.where((skills == 2)[:, None], dock, turned), skills

    return act


def simulate(
    specs: Sequence[TaskSpec], act: Callable, T: int, seeds: Sequence[Sequence[int]], noisy: bool = False
) -> tuple[np.ndarray, ...]:
    """The dynamics loop, one episode per seed of seeds[i] for each spec i,
    all stepped together: p' = p + DT * clip(a), and each episode's goal
    advances to the next waypoint of its own spec inside the tolerance.
    Episodes are task-major: spec i's episodes are a block of len(seeds[i])
    rows, seed j of it with the stream SplitMix64(derive_seed(specs[i].seed,
    seeds[i][j])), one row of that spec's Streams.  Before the first step
    each episode draws its start box, then, when noisy and the spec's
    noise_std > 0, all T steps' action noise at once: T * ACTION_DIM normals
    times noise_std, the same draws in the same order as one ACTION_DIM draw
    per step.  The loop draws nothing: act(states) maps (n, 4) states, in
    that row order, to (n, 2) actions and (n,) skills, and step t adds row t
    of the noise.  Rows do not interact (sqrt(vecdot(d, d)) rounds as
    linalg.norm does on a 2-vector), so an episode steps as it would alone.
    Returns states (n, T, 4), actions (n, T, 2), skills (n, T) and whether
    each episode reached every waypoint before the horizon."""
    if T < MIN_HORIZON:
        raise ContractError(f"horizon must be >= {MIN_HORIZON}, got {T}")
    if len(seeds) != len(specs):
        raise ContractError(f"{len(seeds)} seed lists for {len(specs)} specs")
    rows = [len(block) for block in seeds]
    if (n := sum(rows)) == 0:
        raise ContractError("need at least one episode")
    noisy = noisy and any(spec.noise_std > 0 for spec in specs)
    # Step t's noise waits in actions[:, t] until step t writes that row.
    p, states, actions = np.empty((n, 2)), np.empty((n, T, STATE_DIM)), np.zeros((n, T, ACTION_DIM))
    for spec, block, stop in zip(specs, seeds, np.cumsum(rows)):
        streams, here = Streams([derive_seed(spec.seed, seed) for seed in block]), slice(stop - len(block), stop)
        p[here] = streams.uniform_array(2, -START_BOX, START_BOX)
        if noisy and spec.noise_std > 0:
            actions[here] = (spec.noise_std * streams.normal_array(T * ACTION_DIM)).reshape(len(block), T, ACTION_DIM)
    # Every spec's waypoints in one table; episode r tours rows first[r] to last[r].
    waypoints = np.concatenate([np.asarray(spec.waypoints, dtype=np.float64) for spec in specs])
    counts = np.array([len(spec.waypoints) for spec in specs])
    n_wp = np.repeat(counts, rows)
    first = np.repeat(np.cumsum(counts) - counts, rows)
    last = first + n_wp - 1
    reached = np.zeros(n, dtype=np.int64)
    skills = np.empty((n, T), dtype=np.int64)
    for t in range(T):
        g = waypoints[np.minimum(first + reached, last)]
        s = np.concatenate([p, g], axis=1)
        a, z = act(s)
        if noisy:
            a = a + actions[:, t]
        states[:, t], actions[:, t], skills[:, t] = s, a, z
        p = p + DT * np.clip(a, -ACTION_MAX, ACTION_MAX)
        d = g - p
        reached += (reached < n_wp) & (np.sqrt(np.vecdot(d, d)) < GOAL_TOLERANCE)
    return states, actions, skills, reached == n_wp


def _demonstrations(specs: Sequence[TaskSpec], T: int, seeds: Sequence[Sequence[int]]) -> list[Trajectory]:
    """Noisy expert demonstrations with ground-truth regime labels, task-major, one per seed."""
    states, actions, skills, _ = simulate(specs, expert(specs, [len(s) for s in seeds]), T, seeds, noisy=True)
    return [Trajectory(*episode) for episode in zip(states, actions, skills)]


def rollout_expert(spec: TaskSpec, T: int, seed: int) -> Trajectory:
    """One noisy expert demonstration with ground-truth regime labels."""
    return _demonstrations([spec], T, [[seed]])[0]


def rollout_policy(
    specs: Sequence[TaskSpec], act: Callable, T: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-loop rollouts of a batched policy act(states) -> (actions,
    skills), one noise-free episode per (spec, seed) pair in simulate's
    task-major order.  Returns the chosen skills (n, T) and whether each
    episode reached every waypoint before the horizon."""
    _, _, skills, ok = simulate(specs, act, T, [seeds] * len(specs))
    return skills, ok


@dataclass(frozen=True)
class TaskDataset:
    """Per-task support/query split; disjoint by construction."""

    support: tuple[Trajectory, ...]
    query: tuple[Trajectory, ...]
    spec: TaskSpec

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "query", tuple(self.query))
        if not self.support or not self.query:
            raise ContractError("support and query sets must both be nonempty")
        if {id(t) for t in self.support} & {id(t) for t in self.query}:
            raise ContractError("support and query sets must be disjoint")


def make_dataset(
    spec: TaskSpec | Sequence[TaskSpec], n_support: int, n_query: int, T: int, seed: int | Sequence[int]
) -> TaskDataset | list[TaskDataset]:
    """n_support + n_query demonstrations per task from per-rollout
    sub-seeds of its seed, each count at least its MIN_*, every task's in
    one simulate call: a spec and its seed give its TaskDataset, a sequence
    of specs and one seed each a list of them, one per spec."""
    if n_support < MIN_SUPPORT:
        raise ContractError(f"n_support must be >= {MIN_SUPPORT}, got {n_support}")
    if n_query < MIN_QUERY:
        raise ContractError(f"n_query must be >= {MIN_QUERY}, got {n_query}")
    one = isinstance(spec, TaskSpec)
    specs, seeds, n = [spec] if one else spec, [seed] if one else seed, n_support + n_query
    if len(seeds) != len(specs):
        raise ContractError(f"{len(seeds)} seeds for {len(specs)} specs")
    rolls = _demonstrations(specs, T, [[derive_seed(s, j) for j in range(n)] for s in seeds])
    out = [TaskDataset(rolls[i * n : i * n + n_support], rolls[i * n + n_support : (i + 1) * n], sp)
           for i, sp in enumerate(specs)]
    return out[0] if one else out


# ---------------------------------------------------------------------------
# JSON Lines dataset files
# ---------------------------------------------------------------------------
#
# One line per trajectory: {"task_seed", "split", "states", "actions",
# "true_skills"}.  Doubles serialize via repr, so load(save(x)) reproduces
# every value exactly.  Specs are reconstructed through sample_task, so the
# format covers sampler-produced tasks (the only kind the tooling writes);
# loading checks each line against what the simulator writes: an integer
# task seed, (T, STATE_DIM) states whose goal columns tour that seed's
# waypoints from the first, (T, ACTION_DIM) actions and regime labels in
# [0, N_REGIMES).  A line from another generator or relabelled with another
# task's seed is refused rather than paired with the wrong spec.


def save_datasets(path, datasets: Sequence[TaskDataset]) -> None:
    lines = []
    for ds in datasets:
        for split, trajs in (("support", ds.support), ("query", ds.query)):
            for t in trajs:
                lines.append(
                    json.dumps(
                        {
                            "task_seed": ds.spec.seed,
                            "split": split,
                            "states": t.states.tolist(),
                            "actions": t.actions.tolist(),
                            "true_skills": t.true_skills.tolist(),
                        },
                        separators=(",", ":"),
                    )
                )
    Path(path).write_text("\n".join(lines) + "\n")


def _record(rec: dict) -> tuple[int, str, Trajectory]:
    """One line's task seed, split and trajectory; KeyError for a missing
    field, ValueError if a field is not what the simulator writes."""
    seed = json_int(rec["task_seed"], "task_seed")
    states = finite_reals(rec["states"], "states", STATE_DIM)
    actions = finite_reals(rec["actions"], "actions", ACTION_DIM)
    try:
        labels = [json_int(z, "true_skills", 0, N_REGIMES) for z in rec["true_skills"]]
    except (TypeError, ValueError):
        raise ValueError(f"true_skills must be integers in [0, {N_REGIMES})") from None
    return seed, rec["split"], Trajectory(states, actions, labels)


def _tours(traj: Trajectory, spec: TaskSpec) -> bool:
    """Whether the goal columns start at spec's first waypoint and every
    goal is one of its waypoints, as simulate writes them."""
    goals, waypoints = traj.states[:, 2:4], np.asarray(spec.waypoints)
    on_waypoint = (goals[:, None, :] == waypoints[None]).all(axis=2).any(axis=1)
    return bool((goals[0] == waypoints[0]).all() and on_waypoint.all())


def load_datasets(path) -> list[TaskDataset]:
    groups: dict[int, dict[str, list[Trajectory]]] = {}  # in first-seen order
    specs: dict[int, TaskSpec] = {}
    for lineno, rec in read_json(path, "dataset", DatasetFormatError, lines=True):
        try:
            seed, split, traj = _record(rec)
        except KeyError as e:
            raise DatasetFormatError(f"line {lineno}: missing field {e}") from e
        except (ValueError, TypeError, OverflowError) as e:
            raise DatasetFormatError(f"line {lineno}: {e}") from e
        if split not in ("support", "query"):
            raise DatasetFormatError(f"line {lineno}: unknown split {split!r}")
        if seed not in specs:
            specs[seed] = sample_task(seed)
        if not _tours(traj, specs[seed]):
            raise DatasetFormatError(f"line {lineno}: the goals are not task {seed}'s waypoints")
        groups.setdefault(seed, {"support": [], "query": []})[split].append(traj)
    out = []
    for seed, g in groups.items():
        if not g["support"] or not g["query"]:
            raise DatasetFormatError(f"task {seed}: missing support or query trajectories")
        out.append(TaskDataset(tuple(g["support"]), tuple(g["query"]), specs[seed]))
    if not out:
        raise DatasetFormatError(f"{path} holds no trajectory")
    return out
