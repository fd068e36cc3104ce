"""Pilot for the acceptance benchmark campaign: trains every method on five
seeds with the candidate config and prints each benchmark criterion's
numbers, then writes every evaluation row to runs/pilot_summary.json.  Used
to freeze configs/acceptance.json."""

import copy
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from dmil.config import resolve_config
from dmil.runner import build_datasets, evaluate, train, warm_start

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


def main():
    t_start = time.perf_counter()
    results = {}
    datasets = None
    for seed in SEEDS:
        per_seed = {}
        cfg = resolve_config(copy.deepcopy(CANDIDATE), seed=seed)
        if datasets is None:
            datasets = build_datasets(cfg)
        t0 = time.perf_counter()
        warm = warm_start(cfg, datasets[0])
        print(f"[seed {seed}] warm start {time.perf_counter()-t0:.0f}s", flush=True)
        for method in ["dmil"] + METHODS_5B:
            mc = resolve_config(copy.deepcopy(CANDIDATE), seed=seed)
            mc["dmil"]["method"] = method
            t0 = time.perf_counter()
            res = train(mc, datasets=datasets, warm_params=warm)
            rows = evaluate(mc, res.params, method, res.test_tasks)
            per_seed[method] = {"rows": rows, "metrics": res.metrics, "div": res.diverged_total,
                                "secs": time.perf_counter() - t0}
            print(f"[seed {seed}] {method}: {per_seed[method]['secs']:.0f}s div={res.diverged_total}", flush=True)
        # aux ablation for criterion 7 (its own warm start: aux plays no role anywhere)
        nx = resolve_config(copy.deepcopy(CANDIDATE), seed=seed)
        nx["dmil"]["aux_weight"] = 0.0
        t0 = time.perf_counter()
        warm_nx = warm_start(nx, datasets[0])
        res_nx = train(nx, datasets=datasets, warm_params=warm_nx)
        rows_nx = evaluate(nx, res_nx.params, "dmil", res_nx.test_tasks)
        per_seed["dmil_noaux"] = {"rows": rows_nx, "metrics": res_nx.metrics, "div": res_nx.diverged_total,
                                  "secs": time.perf_counter() - t0}
        print(f"[seed {seed}] dmil_noaux: {per_seed['dmil_noaux']['secs']:.0f}s", flush=True)
        results[seed] = per_seed

    def mean_metric(rows, shots, key):
        sel = [r for r in rows if r["shots"] == shots]
        return float(np.mean([r[key] for r in sel]))

    print("\n===== criterion summaries =====")
    c5a = c5c = c6 = c8 = 0
    c5b_wins = {m: 0 for m in METHODS_5B}
    c7_wins = 0
    for seed in SEEDS:
        rows = results[seed]["dmil"]["rows"]
        pre1 = mean_metric(rows, 1, "pre_mse")
        post1 = mean_metric(rows, 1, "post_mse")
        post3 = mean_metric(rows, 3, "post_mse")
        acc = mean_metric(rows, 1, "skill_acc")
        met = results[seed]["dmil"]["metrics"]
        l10, l300 = met[10]["outer_loss"], met[299]["outer_loss"]
        ok_a = post1 <= 0.5 * pre1
        ok_c = post3 <= post1
        ok_8 = l300 < l10
        c5a += ok_a; c5c += ok_c; c8 += ok_8
        line = f"seed {seed}: ratio={post1/pre1:.3f}{'✓' if ok_a else '✗'} 3shot {post3:.4f}<={post1:.4f}{'✓' if ok_c else '✗'} acc={acc:.3f} loss {l10:.3f}->{l300:.3f}{'✓' if ok_8 else '✗'}"
        for m in METHODS_5B:
            pm = mean_metric(results[seed][m]["rows"], 1, "post_mse")
            win = post1 <= pm
            c5b_wins[m] += win
            line += f" | vs {m}: {post1:.4f} vs {pm:.4f}{'✓' if win else '✗'}"
        sw_aux = mean_metric(rows, 1, "switch_rate")
        sw_nx = mean_metric(results[seed]["dmil_noaux"]["rows"], 1, "switch_rate")
        win7 = sw_aux < sw_nx
        c7_wins += win7
        line += f" | switch {sw_aux:.4f} vs noaux {sw_nx:.4f}{'✓' if win7 else '✗'}"
        print(line)
        c6 += acc
    print(f"\n5a: {c5a}/5 (need 5)  5c: {c5c}/5 (need 5)  8: {c8}/5 (need 5)")
    print(f"5b (need >=4 each): {c5b_wins}")
    print(f"6: mean acc {c6/5:.3f} (need >=0.8)")
    print(f"7: {c7_wins}/5 (need >=4)")
    print(f"total wall: {(time.perf_counter()-t_start)/60:.1f} min")
    out = Path(__file__).resolve().parent.parent / "runs" / "pilot_summary.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(
        {str(s): {m: results[s][m]["rows"] for m in results[s]} for s in results}, indent=1, default=float))


if __name__ == "__main__":
    main()
