"""Output checks, run outside the timed region.

Each check raises CheckFailed with a one-line reason.  They recompute what
they can in their own numpy code (dynamics replay, goal schedule, regimes,
majority-class share) and test required properties of the rest (expert
success, finite-difference agreement, adaptation gain, loss trend, byte
identity between rounds).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

DT = 0.1  # p' = p + DT * clip(a, -ACTION_MAX, ACTION_MAX)
ACTION_MAX = 1.0
GOAL_TOLERANCE = 0.05


class CheckFailed(AssertionError):
    pass


def _fail(msg: str):
    raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# generated data
# ---------------------------------------------------------------------------


def check_trajectory(spec, states, actions, true_skills, horizon: int) -> None:
    """Replay one demonstration: positions follow the clipped-action
    dynamics bit for bit, goals follow the waypoint schedule, and each
    step's regime is the band of |g - p| between the task's radii."""
    states, actions = np.asarray(states), np.asarray(actions)
    if states.shape != (horizon, 4) or actions.shape != (horizon, 2):
        _fail(f"task {spec.seed}: trajectory shapes {states.shape}, {actions.shape} for horizon {horizon}")
    p, g = states[:, 0:2], states[:, 2:4]
    if not np.array_equal(p[1:], p[:-1] + DT * np.clip(actions[:-1], -ACTION_MAX, ACTION_MAX)):
        _fail(f"task {spec.seed}: positions do not replay from the recorded actions")
    waypoints = np.asarray(spec.waypoints)
    reached = np.hypot(*(g[:-1] - p[1:]).T) < GOAL_TOLERANCE
    goal_index = np.minimum(np.concatenate([[0], np.cumsum(reached)]), len(waypoints) - 1)
    if not np.array_equal(g, waypoints[goal_index]):
        _fail(f"task {spec.seed}: goals do not follow the waypoint schedule")
    d = np.hypot(*(g - p).T)
    r1, r2 = spec.switch_radii
    regimes = np.where(d > r1, 0, np.where(d > r2, 1, 2))
    if true_skills is None or not np.array_equal(np.asarray(true_skills), regimes):
        _fail(f"task {spec.seed}: true_skills disagree with the regimes recomputed from |g - p|")


def check_datasets(datasets, horizon: int) -> int:
    """check_trajectory on every support and query trajectory; returns how
    many were checked."""
    n = 0
    for ds in datasets:
        for t in ds.support + ds.query:
            check_trajectory(ds.spec, t.states, t.actions, t.true_skills, horizon)
            n += 1
    return n


# ---------------------------------------------------------------------------
# program outputs
# ---------------------------------------------------------------------------


def check_expert_success(success_rates: Sequence[float]) -> None:
    """The noise-free expert reaches every waypoint in every episode."""
    bad = [i for i, s in enumerate(success_rates) if s != 1.0]
    if not success_rates or bad:
        _fail(f"expert rollouts missed a waypoint on test tasks {bad} (success {list(success_rates)})")


def check_gradcheck(report: dict, tolerance: float) -> None:
    """Exact meta-gradients agree with central finite differences."""
    worst = max(report["max_rel_err_high"], report["max_rel_err_low"])
    if not (report["pass"] and worst <= tolerance and report["skill_objectives_checked"] > 0):
        _fail(f"meta-gradient finite-difference error {worst:.3g} exceeds {tolerance:g}")


def majority_share(test_tasks) -> float:
    """Mean over tasks of the largest true-regime share on the query set:
    what a constant labeling scores."""
    shares = []
    for task in test_tasks:
        z = np.concatenate([t.true_skills for t in task.query])
        shares.append(np.bincount(z).max() / z.size)
    return float(np.mean(shares))


def one_shot(rows: Sequence[dict], method: str = "dmil") -> list[dict]:
    return [r for r in rows if r["method"] == method and r["shots"] == 1]


def check_adaptation(rows: Sequence[dict], test_tasks) -> None:
    """dmil's 1-shot adaptation lowers query MSE and recovers the hidden
    skills better than a constant labeling."""
    sel = one_shot(rows)
    if len(sel) != len(test_tasks):
        _fail(f"expected {len(test_tasks)} 1-shot dmil rows, got {len(sel)}")
    pre = np.mean([r["pre_mse"] for r in sel])
    post = np.mean([r["post_mse"] for r in sel])
    if not post < pre:
        _fail(f"1-shot adaptation did not lower query MSE ({pre:.6g} -> {post:.6g})")
    acc = np.mean([r["skill_acc"] for r in sel])
    base = majority_share(test_tasks)
    if not acc > base:
        _fail(f"1-shot skill recovery {acc:.4f} is not above the majority-class share {base:.4f}")


def check_loss_trend(metric_rows: Sequence[dict]) -> None:
    """Mean outer loss over the last tenth of iterations is below the mean
    over the first tenth."""
    n = len(metric_rows) // 10
    if n < 1:
        _fail(f"need at least 10 iterations for a loss trend, got {len(metric_rows)}")
    first = np.mean([r["outer_loss"] for r in metric_rows[:n]])
    last = np.mean([r["outer_loss"] for r in metric_rows[-n:]])
    if not last < first:
        _fail(f"outer loss did not fall: first tenth {first:.6g}, last tenth {last:.6g}")


def count_nonfinite(rows: Sequence[dict]) -> int:
    """Evaluation rows holding a non-finite number (failed operations)."""
    return sum(
        1
        for r in rows
        if any(isinstance(v, (float, np.floating)) and not np.isfinite(v) for v in r.values())
    )


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def _update_array(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def digest_datasets(datasets) -> str:
    h = hashlib.sha256()
    for ds in datasets:
        h.update(repr(ds.spec).encode())
        for t in ds.support + ds.query:
            for a in (t.states, t.actions, t.true_skills):
                _update_array(h, a)
    return h.hexdigest()


def digest_metric_rows(results) -> str:
    """results: (method, TrainResult) pairs in training order."""
    h = hashlib.sha256()
    for method, res in results:
        h.update(method.encode())
        for row in res.metrics:
            h.update(repr(sorted(row.items())).encode())
    return h.hexdigest()


def digest_params(results) -> str:
    h = hashlib.sha256()
    for method, res in results:
        h.update(method.encode())
        for v in (res.params.high, *res.params.skills):
            _update_array(h, v.values)
    return h.hexdigest()


def check_same_digests(first: dict, again: dict, what: str) -> None:
    """A rerun inside one process reproduces every output byte for byte."""
    diff = [k for k in first if first[k] != again.get(k)]
    if diff:
        _fail(f"{what} is not byte-identical to round 1: {', '.join(diff)} differ")
