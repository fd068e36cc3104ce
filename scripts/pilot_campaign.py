"""Pilot for the acceptance benchmark campaign: trains every run of RUNS on
five seeds with the candidate config, one runner.campaign per seed, prints
each benchmark criterion's numbers, then writes every evaluation row to
runs/pilot_summary.json.  Used to freeze configs/acceptance.json."""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from dmil.config import resolve_config
from dmil.runner import build_datasets, campaign

CANDIDATE = {
    "data": {"n_train_tasks": 20, "n_test_tasks": 5, "n_support": 40, "n_query": 10, "horizon": 120},
    "model": {"hidden": [32, 32], "n_skills": 3, "features": "relative"},
    "dmil": {
        "batch_size": 2,
        "tasks_per_step": 5,
        "inner_rate": 2e-2,
        "outer_rate": 2e-3,
        "inner_steps": 3,
        "aux_weight": 0.1,
        "outer_optimizer": "adam",
        "warmup_epochs": 800,
        "warmup_consolidate": 250,
        "warmup_rate": 5e-2,
        "warmup_trajs_per_task": 2,
        "warmup_restarts": 4,
        "warmup_probe_epochs": 250,
    },
    "eval": {
        "shots": [1, 3],
        "episodes": 4,
        "adapt_rate": 2e-2,
        "adapt_steps": 10,
        "scale_steps_with_shots": True,
    },
    "run": {"seed": 0, "iterations": 500},
}

SEEDS = [0, 1, 2, 3, 4]
METHODS_5B = ["dmil_high", "dmil_low", "em_only"]
# The dmil section overrides of each run: every method, and dmil without the
# switch term.  Under one seed the four methods share one warm start and
# dmil_noaux, whose aux weight differs, gets its own.
RUNS = {m: {"method": m} for m in ["dmil", *METHODS_5B]} | {"dmil_noaux": {"aux_weight": 0.0}}
LOSS_ITERATIONS = (10, 299)  # the outer iterations criterion 8 compares
MOST, MIN_SKILL_ACC = 4, 0.8  # what 5b and 7, and 6 need; 5a, 5c and 8 need every seed


def plan(seed: int) -> dict[str, dict]:
    """Each run's resolved config under one seed."""
    return {name: resolve_config(CANDIDATE | {"dmil": CANDIDATE["dmil"] | over}, seed=seed)
            for name, over in RUNS.items()}


def metric(runs, key, shots=1, name="dmil"):
    """The mean of `key` over run `name`'s evaluation rows at `shots`, of
    one seed's runs (run name -> runner.Run).  The criteria below take such
    runs (6: every seed's) and return their numbers, then their verdict."""
    return float(np.mean([r[key] for r in runs[name].rows if r["shots"] == shots]))


def c5a(runs):
    """Adaptation halves the error: dmil's 1-shot query MSE before and after."""
    pre, post = metric(runs, "pre_mse"), metric(runs, "post_mse")
    return pre, post, post <= 0.5 * pre


def c5b(runs, m):
    """dmil adapts at least as well as method m: their 1-shot post MSEs."""
    ours, theirs = metric(runs, "post_mse"), metric(runs, "post_mse", name=m)
    return ours, theirs, ours <= theirs


def c5c(runs):
    """Three shots adapt at least as well as one: dmil's 3- and 1-shot post MSE."""
    three, one = metric(runs, "post_mse", 3), metric(runs, "post_mse")
    return three, one, three <= one


def c6(results):
    """Skill recovery: dmil's 1-shot skill accuracy, averaged over the seeds."""
    mean = sum(metric(runs, "skill_acc") for runs in results.values()) / len(results)
    return mean, mean >= MIN_SKILL_ACC


def c7(runs):
    """The switch term lowers switching: dmil's and dmil_noaux's 1-shot switch rates."""
    aux, noaux = metric(runs, "switch_rate"), metric(runs, "switch_rate", name="dmil_noaux")
    return aux, noaux, aux < noaux


def c8(runs):
    """The outer loss falls: dmil's at LOSS_ITERATIONS."""
    first, last = (runs["dmil"].metrics[i]["outer_loss"] for i in LOSS_ITERATIONS)
    return first, last, last < first


def verdict(results, need, criterion, *args):
    """How many seeds of results (seed -> runs) pass a per-seed criterion,
    and whether at least `need` do."""
    passed = sum(criterion(runs, *args)[-1] for runs in results.values())
    return passed, passed >= need


def report(results) -> None:
    mark = {True: "✓", False: "✗"}
    print("\n===== criterion summaries =====")
    for seed, runs in results.items():
        (pre1, post1, ok_a), (post3, _, ok_c), (l10, l300, ok_8) = c5a(runs), c5c(runs), c8(runs)
        line = (f"seed {seed}: ratio={post1/pre1:.3f}{mark[ok_a]} 3shot {post3:.4f}<={post1:.4f}{mark[ok_c]} "
                f"acc={metric(runs, 'skill_acc'):.3f} loss {l10:.3f}->{l300:.3f}{mark[ok_8]}")
        for m in METHODS_5B:
            _, pm, win = c5b(runs, m)
            line += f" | vs {m}: {post1:.4f} vs {pm:.4f}{mark[win]}"
        sw_aux, sw_nx, win = c7(runs)
        print(line + f" | switch {sw_aux:.4f} vs noaux {sw_nx:.4f}{mark[win]}")
    n = len(results)
    (a, _), (c, _), (e, _) = (verdict(results, n, f) for f in (c5a, c5c, c8))
    print(f"\n5a: {a}/{n} (need {n})  5c: {c}/{n} (need {n})  8: {e}/{n} (need {n})")
    print(f"5b (need >={MOST} each): { {m: verdict(results, MOST, c5b, m)[0] for m in METHODS_5B} }")
    print(f"6: mean acc {c6(results)[0]:.3f} (need >={MIN_SKILL_ACC})")
    print(f"7: {verdict(results, MOST, c7)[0]}/{n} (need >={MOST})")


def main():
    t_start = time.perf_counter()
    datasets = build_datasets(resolve_config(CANDIDATE))
    results = {}
    for seed in SEEDS:
        results[seed] = campaign(plan(seed), datasets)
        for name, run in results[seed].items():
            print(f"[seed {seed}] {name}: {run.seconds:.0f}s div={run.diverged_total}", flush=True)
    report(results)
    print(f"total wall: {(time.perf_counter()-t_start)/60:.1f} min")
    out = Path(__file__).resolve().parent.parent / "runs" / "pilot_summary.json"
    out.parent.mkdir(exist_ok=True)
    rows = {str(seed): {name: run.rows for name, run in runs.items()} for seed, runs in results.items()}
    out.write_text(json.dumps(rows, indent=1, default=float))


if __name__ == "__main__":
    main()
