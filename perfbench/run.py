"""Benchmark of the dmil package: runs one workload in this process and
prints its metrics as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload meta_train --seed 0 --seconds 20 --trace 0

--trace 0 repeats whole rounds of the workload until --seconds have passed
and reports the end-to-end metrics as medians over rounds.  --trace 1 runs
one untraced round, then one traced round, and reports the per-layer
metrics of the traced round.  Output checks run after the measured rounds;
a failed check prints `"correct": false` and exits with code 1.
"""

from __future__ import annotations

import os

# Single-threaded BLAS before numpy loads: the benchmark machine has two
# shared cores, and thread pools make timings wander.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXTRA_SETUPS = 2
GRADCHECK_TOLERANCE = 1e-4

if not (SRC / "dmil" / "__init__.py").is_file():
    sys.exit(f"run.py: the dmil sources are missing ({SRC / 'dmil'} not found); run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import GC_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, config_for, run_round  # noqa: E402

from dmil import evaluation, runner  # noqa: E402
from dmil.config import resolve_config  # noqa: E402

PER_LAYER_SPANS = {  # span -> the aggregates reported for it
    "autodiff.hvp": ("calls", "self_s"),
    "autodiff.meta_grad": ("self_s",),
    "autodiff.inner_adapt": ("self_s",),
    "autodiff.value_and_grad": ("calls", "self_s"),
    "dmil.hard_labels": ("self_s",),
    "runner.warm_start": ("calls",),
    "dmil.partition_by_skill": ("self_s",),
    "tasks.make_dataset": ("self_s",),
    "evaluation.rollout_stats": ("self_s",),
    "tasks.rollout_policy": ("calls",),
    "policies.mlp_forward": ("calls", "self_s"),
    "evaluation.query_mse": ("self_s",),
}
# Percentile metrics: span, operation kind (method, shots), percentiles.
PERCENTILES = (
    ("dmil.meta_train_step", ("dmil", None), (50, 90)),
    ("baselines.maml_train_step", ("maml", None), (50,)),
    ("baselines.em_only_train", ("em_only", None), (50,)),
    ("dmil.few_shot_adapt", ("dmil", 1), (50,)),
)
COUNTS = ("autodiff.tape_nodes", "py.gc.collections", "py.gc.collected_objects", "tasks.sim_steps", "rng.normal_array.calls")


def percentile_ms(samples: list, q: int) -> float:
    """q-th percentile in ms.  0.0 stands for "not reported": no samples, or
    fewer than ten samples beyond a tail percentile."""
    n = len(samples)
    if n == 0 or q != 50 and n * (100 - q) < 1000:
        return 0.0
    if q == 50:
        return 1000.0 * statistics.median(samples)
    return 1000.0 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def stage_times(spans: list, first: int) -> dict:
    """End-to-end seconds of one round from its stage spans, which start at
    index `first` of the tracer's span list."""
    t = dict.fromkeys(("setup_s", "warm_start_s", "train_s", "eval_s", "total_s"), 0.0)
    train_spans = {first + i for i, s in enumerate(spans) if s[0] == "runner.train"}
    for name, start, end, parent, kind in spans:
        d = end - start
        if name == GC_SPAN:
            if parent != -1:  # forced inside runner.ablate, so inside its span
                t["total_s"] -= d
            continue
        if parent == -1:
            t["total_s"] += d
        if name == "runner.build_datasets":
            t["setup_s"] += d
        elif name == "runner.warm_start":
            t["warm_start_s"] += d
            if parent in train_spans:
                t["train_s"] -= d
        elif name == "runner.train":
            t["train_s"] += d
        elif name == "runner.evaluate":
            t["eval_s"] += d
    return t


def round_summary(out: dict) -> tuple[int, int, int]:
    """(attempted, failed, diverged iterations): an operation is an outer
    iteration or a (task, shots) evaluation; it fails on a non-finite
    value.  Diverged inner adaptations depend on the seed, so they are
    reported but not counted as failures."""
    attempted = failed = diverged = 0
    for _, res in out["trained"]:
        attempted += len(res.metrics)
        failed += sum(1 for r in res.metrics if not math.isfinite(r["outer_loss"]))
        diverged += sum(1 for r in res.metrics if r["diverged"] > 0)
    attempted += len(out["rows"])
    failed += checks.count_nonfinite(out["rows"])
    return attempted, failed, diverged


def digests(out: dict) -> dict:
    return {
        "datasets": checks.digest_datasets(out["datasets"][0] + out["datasets"][1]),
        "metric_rows": checks.digest_metric_rows(out["trained"]),
        "params": checks.digest_params(out["trained"]),
    }


def run_checks(workload: str, cfg: dict, out: dict) -> list[str]:
    """Every output check of the workload; returns one line per check."""
    train_tasks, test_tasks = out["datasets"]
    horizon = cfg["data"]["horizon"]
    n = checks.check_datasets(train_tasks + test_tasks, horizon)
    lines = [f"check data replay: {n} trajectories replayed"]
    rates = [
        evaluation.rollout_stats(evaluation.ExpertPolicy(t.spec), t.spec, cfg["eval"]["episodes"], horizon).success_rate
        for t in test_tasks
    ]
    checks.check_expert_success(rates)
    lines.append(f"check expert rollouts: every waypoint reached on {len(rates)} test tasks")
    checks.check_adaptation(out["rows"], test_tasks)
    lines.append("check adaptation: 1-shot post MSE < pre MSE, skill recovery > majority share")
    if workload == "meta_train":
        report = runner.gradcheck_run(resolve_config({"gradcheck": {"instances": 3}}))
        checks.check_gradcheck(report, GRADCHECK_TOLERANCE)
        worst = max(report["max_rel_err_high"], report["max_rel_err_low"])
        lines.append(f"check meta-gradients: finite-difference error {worst:.3g} <= {GRADCHECK_TOLERANCE:g}")
        checks.check_loss_trend(out["trained"][0][1].metrics)
        lines.append("check loss trend: last tenth below first tenth")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cfg = config_for(args.workload, args.seed)
    tracer = Tracer()
    tracer.install_stages()
    extra_sets, bounds, outputs = [], [], []
    start = time.perf_counter()
    try:
        # Extra dataset builds, so that setup_s is a median of at least
        # three builds even when only one round fits in the run.
        for _ in range(0 if args.trace else EXTRA_SETUPS):
            extra_sets.append(runner.build_datasets(cfg))
        while True:
            first, round_start = len(tracer.spans), time.perf_counter()
            outputs.append(run_round(args.workload, cfg))
            bounds.append((first, len(tracer.spans)))
            if args.trace:
                if len(outputs) == 2:
                    break
                tracer.install_layers()
                continue
            now = time.perf_counter()
            if now - start + 0.5 * (now - round_start) >= args.seconds:
                break  # start another round only if half of it fits
    finally:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = [stage_times(tracer.spans[a:b], a) for a, b in bounds]

    correct = True
    first_digests = digests(outputs[0])
    try:
        for line in run_checks(args.workload, cfg, outputs[0]):
            print(line)
        for k, out in enumerate(outputs[1:], start=2):
            checks.check_same_digests(first_digests, digests(out), f"round {k}")
        for k, (train_tasks, test_tasks) in enumerate(extra_sets, start=1):
            again = dict(first_digests, datasets=checks.digest_datasets(train_tasks + test_tasks))
            checks.check_same_digests(first_digests, again, f"extra dataset build {k}")
        print(f"check reruns: {len(outputs) - 1} more rounds and {len(extra_sets)} more dataset builds byte-identical")
    except checks.CheckFailed as e:
        print(f"CHECK FAILED: {e}")
        correct = False
    for name, value in first_digests.items():
        print(f"digest {name} sha256:{value}")

    summaries = [round_summary(out) for out in outputs]
    attempted = sum(s[0] for s in summaries)
    failed = sum(s[1] for s in summaries)
    diverged = summaries[0][2]
    iterations = sum(len(res.metrics) for _, res in outputs[0]["trained"])
    print(f"rounds: {len(outputs)}; diverged inner adaptation in {diverged} of {iterations} outer iterations per round")

    if args.trace:
        metrics = per_layer_metrics(tracer, bounds[1], rounds, diverged)
        path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(path, bounds[1][0])
        print(f"spans written to {path.relative_to(HERE.parent)}")
    else:
        for r in rounds:
            print("round " + " ".join(f"{k}={v:.3f}" for k, v in r.items()))
        setups = [e - s for name, s, e, _, _ in tracer.spans if name == "runner.build_datasets"]
        print("setup builds " + " ".join(f"{v:.3f}" for v in setups))
        sel = checks.one_shot(outputs[0]["rows"])
        metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": "s"} for name in rounds[0]}
        metrics["setup_s"]["value"] = statistics.median(setups)
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
        metrics["post_mse_1shot"] = {"value": float(sum(r["post_mse"] for r in sel) / len(sel)), "unit": "mse"}
        metrics["skill_acc_1shot"] = {"value": float(sum(r["skill_acc"] for r in sel) / len(sel)), "unit": "share"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer_metrics(tracer, bound, rounds, diverged) -> dict:
    table = tracer.table(*bound)
    print(f"{'span':36s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:36s} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "samples": {}}
    m = {}
    for name, fields in PER_LAYER_SPANS.items():
        row = table.get(name, empty)
        for f in fields:
            m[f"{name}.{f}"] = {"value": row[f], "unit": "count" if f == "calls" else "s"}
    for name, kind, qs in PERCENTILES:
        samples = table.get(name, empty)["samples"].get(kind, [])
        for q in qs:
            m[f"{name}.ms_p{q}"] = {"value": percentile_ms(samples, q), "unit": "ms"}
        m[f"{name}.samples"] = {"value": len(samples), "unit": "count"}
    for name in COUNTS:
        m[name] = {"value": tracer.counts[name], "unit": "count"}
    m["py.gc.pause_s"] = {"value": tracer.gc_pause_s, "unit": "s"}
    rows = tracer.counts["policies.mlp_forward.rows"]
    calls = table.get("policies.mlp_forward", empty)["calls"]
    m["policies.mlp_forward.rows_per_call"] = {"value": rows / calls if calls else 0.0, "unit": "rows"}
    sim_s = table.get("tasks.make_dataset", empty)["self_s"] + table.get("tasks.rollout_policy", empty)["self_s"]
    steps = tracer.counts["tasks.sim_steps"]
    m["tasks.sim_step_us"] = {"value": 1e6 * sim_s / steps if steps else 0.0, "unit": "us"}
    m["dmil.diverged_iterations"] = {"value": diverged, "unit": "count"}
    m["trace.overhead_s"] = {"value": rounds[1]["total_s"] - rounds[0]["total_s"], "unit": "s"}
    return m


if __name__ == "__main__":
    sys.exit(main())
