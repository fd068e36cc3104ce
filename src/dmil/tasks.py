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
a task's in one call) and the closed-loop rollouts that score a policy; each
episode draws its start box, then any action noise, from its own stream,
and the streams of all episodes draw together (rng.Streams).  The expert,
expert_act, acts on all states of a step at once, with the same rounding
as acting on one state at a time.

Everything is deterministic given seeds via the package RNG, including the
JSON Lines dataset files, which round-trip doubles exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .autodiff import ContractError
from .data import Trajectory
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


class DatasetFormatError(ValueError):
    """A dataset file is empty, or a line failed to parse or violated the schema."""


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


def expert_act(
    spec: TaskSpec, states: np.ndarray, streams: Streams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The controller on (n, 4) states [px, py, gx, gy]: (n, 2) actions and
    (n,) regimes.  Given one stream per row, every row adds noise of std
    spec.noise_std, drawn from its own stream.

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
    delta = states[:, 2:4] - states[:, 0:2]
    d = np.sqrt(np.vecdot(delta, delta))
    r1, r2 = spec.switch_radii
    skills = np.where(d > r1, 0, np.where(d > r2, 1, 2))
    unit = (delta / np.maximum(d, 1e-6)[:, None])[:, :, None]
    approach = spec.gain_scale * (_rot(spec.rotation_angle) @ unit)[:, :, 0]
    orbit = spec.gain_scale * (_rot(spec.rotation_angle + np.pi / 2) @ unit)[:, :, 0]
    dock = DOCK_GAIN * spec.gain_scale * (delta / np.maximum(d, DOCK_SOFT)[:, None])
    actions = np.choose(skills[:, None], (approach, orbit, dock))
    if streams is not None and spec.noise_std > 0:
        actions = actions + spec.noise_std * streams.normal_array(ACTION_DIM)
    return actions, skills


def simulate(spec: TaskSpec, act: Callable, T: int, seeds: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The dynamics loop, one episode per seed, all stepped together:
    p' = p + DT * clip(a), and each episode's goal advances to the next
    waypoint inside the tolerance.  Episode i has the stream
    SplitMix64(derive_seed(spec.seed, seeds[i])), row i of one Streams; it
    draws its start box from it, then, once per step, act(states, streams)
    maps (n, 4) states to (n, 2) actions and (n,) skills, drawing any noise
    of row i from that stream.  Rows do not interact
    (sqrt(vecdot(d, d)) rounds as linalg.norm does on a 2-vector).  Returns
    states (n, T, 4), actions (n, T, 2), skills (n, T) and whether each
    episode reached every waypoint before the horizon."""
    if T < 2:
        raise ContractError(f"horizon must be >= 2, got {T}")
    n = len(seeds)
    streams = Streams([derive_seed(spec.seed, seed) for seed in seeds])
    p = streams.uniform_array(2, -START_BOX, START_BOX)
    waypoints = np.asarray(spec.waypoints, dtype=np.float64)
    n_wp = len(waypoints)
    reached = np.zeros(n, dtype=np.int64)
    states = np.empty((n, T, STATE_DIM))
    actions = np.empty((n, T, ACTION_DIM))
    skills = np.empty((n, T), dtype=np.int64)
    for t in range(T):
        g = waypoints[np.minimum(reached, n_wp - 1)]
        s = np.concatenate([p, g], axis=1)
        a, z = act(s, streams)
        states[:, t], actions[:, t], skills[:, t] = s, a, z
        p = p + DT * np.clip(a, -ACTION_MAX, ACTION_MAX)
        d = g - p
        reached += (reached < n_wp) & (np.sqrt(np.vecdot(d, d)) < GOAL_TOLERANCE)
    return states, actions, skills, reached == n_wp


def _demonstrations(spec: TaskSpec, T: int, seeds: Sequence[int]) -> list[Trajectory]:
    """Noisy expert demonstrations with ground-truth regime labels, one per seed."""
    states, actions, skills, _ = simulate(spec, lambda s, streams: expert_act(spec, s, streams), T, seeds)
    return [Trajectory(*episode) for episode in zip(states, actions, skills)]


def rollout_expert(spec: TaskSpec, T: int, seed: int) -> Trajectory:
    """One noisy expert demonstration with ground-truth regime labels."""
    return _demonstrations(spec, T, [seed])[0]


def rollout_policy(spec: TaskSpec, act: Callable, T: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Closed-loop rollouts of a batched policy act(states) -> (actions,
    skills), one episode per seed.  Returns the chosen skills (n, T) and
    whether each episode reached every waypoint before the horizon."""
    _, _, skills, ok = simulate(spec, lambda s, streams: act(s), T, seeds)
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
    spec: TaskSpec, n_support: int, n_query: int, T: int, seed: int
) -> TaskDataset:
    """n_support + n_query demonstrations from per-rollout sub-seeds, all
    stepped in one simulate call.

    Four phase batches must be drawable from the support set, hence
    n_support >= 4.
    """
    if n_support < 4:
        raise ContractError(f"n_support must be >= 4, got {n_support}")
    if n_query < 1:
        raise ContractError(f"n_query must be >= 1, got {n_query}")
    rolls = _demonstrations(spec, T, [derive_seed(seed, j) for j in range(n_support + n_query)])
    return TaskDataset(tuple(rolls[:n_support]), tuple(rolls[n_support:]), spec)


# ---------------------------------------------------------------------------
# JSON Lines dataset files
# ---------------------------------------------------------------------------
#
# One line per trajectory: {"task_seed", "split", "states", "actions",
# "true_skills"}.  Doubles serialize via repr, so load(save(x)) reproduces
# every value exactly.  Specs are reconstructed through sample_task, so the
# format covers sampler-produced tasks (the only kind the tooling writes);
# loading checks each line against what the simulator writes: an integer
# task seed, (T, STATE_DIM) states, (T, ACTION_DIM) actions and regime labels
# in [0, N_REGIMES).


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
    seed = rec["task_seed"]
    if type(seed) is not int:
        raise ValueError(f"task_seed must be an integer, got {seed!r}")
    states = _reals(rec["states"], "states", STATE_DIM)
    actions = _reals(rec["actions"], "actions", ACTION_DIM)
    labels = np.array(rec["true_skills"], dtype=object)
    if labels.ndim != 1 or not all(type(z) is int and 0 <= z < N_REGIMES for z in labels):
        raise ValueError(f"true_skills must be integers in [0, {N_REGIMES})")
    return seed, rec["split"], Trajectory(states, actions, labels.astype(np.int64))


def _reals(rows, name: str, width: int) -> np.ndarray:
    """rows as a (T, width) float64 array; ValueError for another shape or
    for an entry that is not a finite JSON number (NaN, Infinity, a string,
    a boolean)."""
    a = np.array(rows, dtype=object)
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"{name} must have shape (T, {width}), got {a.shape}")
    for v in a.flat:
        if type(v) not in (int, float) or not math.isfinite(v):
            raise ValueError(f"{name} must be finite numbers, got {v!r}")
    return a.astype(np.float64)


def load_datasets(path) -> list[TaskDataset]:
    groups: dict[int, dict[str, list[Trajectory]]] = {}  # in first-seen order
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            seed, split, traj = _record(json.loads(line))
        except KeyError as e:
            raise DatasetFormatError(f"line {lineno}: missing field {e}") from e
        except (ValueError, TypeError, OverflowError) as e:
            raise DatasetFormatError(f"line {lineno}: {e}") from e
        if split not in ("support", "query"):
            raise DatasetFormatError(f"line {lineno}: unknown split {split!r}")
        groups.setdefault(seed, {"support": [], "query": []})[split].append(traj)
    out = []
    for seed, g in groups.items():
        if not g["support"] or not g["query"]:
            raise DatasetFormatError(f"task {seed}: missing support or query trajectories")
        out.append(TaskDataset(tuple(g["support"]), tuple(g["query"]), sample_task(seed)))
    if not out:
        raise DatasetFormatError(f"{path} holds no trajectory")
    return out
