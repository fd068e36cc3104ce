"""Metrics and numerical oracles: finite-difference meta-gradient checks,
exactly matched skill recovery, query MSE, switch rate, rollout
success, and report files (CSV rows plus a JSON summary)."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .autodiff import ContractError
from .autodiff import inner_adapt  # noqa: F401  (perfbench/tracing.py wraps this name here)
from .data import Trajectory
from .dmil import few_shot_adapt, predict_action
from .policies import HierarchicalParams
from .policies import mlp_forward  # noqa: F401  (perfbench/tracing.py wraps this name here)
from .tasks import N_REGIMES, TaskDataset, TaskSpec, expert_act, rollout_policy

FD_MAX_PARAMS = 500
ROLLOUT_SEED0 = 0xE7A1


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def fd_check(
    objective: Callable[[np.ndarray], float],
    theta: np.ndarray,
    exact: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Max relative error of the exact gradient against central differences.

    Per-coordinate differences are normalized by the exact gradient's max
    magnitude, so coordinates with near-zero gradient do not blow up the
    ratio.  Cost is two objective evaluations per coordinate, hence the
    parameter-count cap.
    """
    theta = np.asarray(theta, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if theta.shape != exact.shape:
        raise ContractError("theta and exact gradient must have the same shape")
    if theta.size > FD_MAX_PARAMS:
        raise ContractError(f"fd_check is limited to {FD_MAX_PARAMS} parameters, got {theta.size}")
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        d = np.zeros_like(theta)
        d[i] = h
        fd[i] = (objective(theta + d) - objective(theta - d)) / (2.0 * h)
    return max_rel_err(fd, exact)


def max_rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """max |approx - exact| over the exact vector's max magnitude (floored
    at 1e-12)."""
    scale = max(float(np.max(np.abs(exact))), 1e-12)
    return float(np.max(np.abs(approx - exact))) / scale


# ---------------------------------------------------------------------------
# label metrics
# ---------------------------------------------------------------------------


def skill_accuracy(
    pred: np.ndarray,
    truth: np.ndarray,
    n_pred_skills: int,
    n_true_skills: int,
) -> float:
    """Best per-step agreement over injective maps of true labels into
    predicted labels (skill indices are arbitrary): a max-weight matching on
    the confusion counts, exact by dynamic programming over subsets of the
    true labels in O(n_pred_skills * 2**n_true_skills * n_true_skills)."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ContractError("pred and truth must have equal lengths")
    if n_true_skills > n_pred_skills:
        raise ContractError("cannot map more true skills than predicted skills")
    by_truth = [pred[truth == t] for t in range(n_true_skills)]
    # best[s]: the most agreeing steps when the true labels in bitmask s map
    # to distinct predicted labels among those seen so far (-inf: none can).
    full = (1 << n_true_skills) - 1
    best = [0.0] + [-np.inf] * full
    for p in range(n_pred_skills):
        counts = [np.count_nonzero(z == p) for z in by_truth]
        for s in range(full, 0, -1):  # descending: p maps at most one label
            for t in range(n_true_skills):
                if s >> t & 1:
                    best[s] = max(best[s], best[s ^ 1 << t] + counts[t])
    return np.float64(best[full]) / len(pred)


def switch_rate(labels) -> float:
    """Fraction of timesteps at which the label changes: count / length."""
    labels = np.asarray(labels)
    if labels.shape[0] < 2:
        raise ContractError("switch_rate needs at least two timesteps")
    return float(np.count_nonzero(labels[1:] != labels[:-1])) / labels.shape[0]


# ---------------------------------------------------------------------------
# policies and task-level metrics
# ---------------------------------------------------------------------------
#
# A policy predicts through act alone: raw states in a batch of rows, (n, 4),
# give actions (n, 2) and the chosen skills (n,).  The metrics score the
# predictions the caller passes in, so runner.evaluate predicts each query
# set once per policy, and closed-loop rollouts call act once per simulator
# step with one row per episode.  For the learned policy act is
# predict_action, whose rows are bitwise one-state calls: the scored query
# actions are the actions a rollout would take in those states.


@dataclass(frozen=True)
class HierarchicalPolicy:
    """Few-shot-adaptable wrapper around hierarchical parameters; the
    adapt_high/adapt_low flags say which levels adaptation moves."""

    params: HierarchicalParams
    adapt_rate: float
    adapt_steps: int
    aux_weight: float = 0.0
    adapt_high: bool = True
    adapt_low: bool = True

    def adapt(self, demos: Sequence[Trajectory]) -> "HierarchicalPolicy":
        adapted = few_shot_adapt(
            self.params,
            demos,
            self.adapt_rate,
            self.adapt_steps,
            aux_weight=self.aux_weight,
            adapt_high=self.adapt_high,
            adapt_low=self.adapt_low,
        )
        return replace(self, params=adapted)

    def act(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return predict_action(self.params, states)


@dataclass(frozen=True)
class ExpertPolicy:
    """Ground-truth controller (noise-free)."""

    spec: TaskSpec

    def act(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return expert_act(self.spec, states)


def query_mse(actions: np.ndarray, task: TaskDataset) -> float:
    """Mean squared error of predicted actions for the query set's states
    (trajectory then time order), per pair and dimension."""
    want = np.concatenate([t.actions for t in task.query])
    return float(np.mean((actions - want) ** 2))


def adapted_skill_accuracy(skills: np.ndarray, n_skills: int, task: TaskDataset) -> float | None:
    """Matched agreement (skill_accuracy) of the skills chosen for the query
    set's states, out of n_skills, with the generator's N_REGIMES hidden
    labels; None for a policy of fewer skills than regimes, such as a
    monolithic one, which has no labels to match."""
    if n_skills < N_REGIMES:
        return None
    truth = np.concatenate([t.true_skills for t in task.query])
    return skill_accuracy(skills, truth, n_skills, N_REGIMES)


@dataclass(frozen=True)
class RolloutStats:
    success_rate: float
    mean_switch_rate: float


def rollout_stats(policy, spec: TaskSpec, episodes: int, T: int) -> RolloutStats:
    """Closed-loop rollouts with the policy's own skill choices, all episodes
    stepped together; success means every waypoint reached within tolerance
    before the horizon."""
    seeds = [ROLLOUT_SEED0 + e for e in range(episodes)]
    skills, ok = rollout_policy(spec, policy.act, T, seeds)
    rates = [switch_rate(z) for z in skills]
    return RolloutStats(int(np.count_nonzero(ok)) / episodes, float(np.mean(rates)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

# A report row: what was evaluated, then the metrics summarize_report
# aggregates (a None metric, the skill recovery of a monolithic policy, is
# an empty cell and enters no mean).
REPORT_METRICS = ("pre_mse", "post_mse", "skill_acc", "switch_rate", "success")
REPORT_FIELDS = ("method", "seed", "task_seed", "shots") + REPORT_METRICS


def write_report_csv(path, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=REPORT_FIELDS)
        w.writeheader()
        w.writerows(rows)


def summarize_report(rows: Sequence[dict]) -> dict:
    """Means and standard deviations across seeds per (method, shots)."""
    groups: dict[tuple, dict[str, list[float]]] = {}
    for row in rows:
        key = (row["method"], row["shots"])
        g = groups.setdefault(key, {})
        for metric in REPORT_METRICS:
            if row[metric] is not None:
                g.setdefault(metric, []).append(float(row[metric]))
    out = {}
    for (method, shots), metrics in sorted(groups.items()):
        entry = {}
        for metric, vals in sorted(metrics.items()):
            entry[metric] = {
                "mean": float(np.mean(vals)),
                "std": float(np.std(vals)),
                "n": len(vals),
            }
        out[f"{method}/shots={shots}"] = entry
    return out


def write_summary_json(path, rows: Sequence[dict]) -> None:
    Path(path).write_text(json.dumps(summarize_report(rows), indent=2, sort_keys=True) + "\n")
