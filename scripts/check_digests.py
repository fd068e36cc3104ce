"""Byte-identity check of the benchmark's outputs: runs the three perfbench
workloads at seed 0 and ablate at seed 7 for one round each, then
perfbench's own self-test, every one as a subprocess, and prints the twelve
output digests next to the recorded ones, each run's correct/failed result
and the line count of each src/dmil file.  Exits 1 on any mismatch, failed
check or failed operation.

    python3 scripts/check_digests.py

The recorded digests were measured with numpy 2.4.6 and OpenBLAS 0.3.31
(SkylakeX core); another numpy or BLAS build may round differently.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (workload, seed) -> digest name -> sha256.
RECORDED = {
    ("meta_train", 0): {
        "datasets": "a3d83c5abdedb1a3c5f46ea2beb2dbf0da8acfe705dd1b92e69baf094165b6cb",
        "metric_rows": "b6101980454f38d914dbc165550c991422867d343b0c94d329805454d2fef403",
        "params": "e6c5651202d6e9512b315ca0db0a9d3bdea56da4d5b685a7142c2c32385297a6",
    },
    ("ablate", 0): {
        "datasets": "36d03b4c4b89b5aa32eb15b172b834dd8dd5ca4f5dac6cfd9bd60a6a6ca3b575",
        "metric_rows": "786b93e3fdcd49e1c2c7580e03a82e2fd9065dabe6e58da95de4150b49f369a6",
        "params": "69a80bbb2d1975faa9a9b5423fa8f09d77ae849a26ce4726d09d3bb1dc278f00",
    },
    ("fewshot_eval", 0): {
        "datasets": "6dadacfe812191aaae2fec5e339bd59b1e745f0cd65a7f48834be379c85b3ae4",
        "metric_rows": "8d093ef9a4e6db9e9d8141de33ddf12d713f29b55da73b71b56c79a1c2ccab4d",
        "params": "1078e5c420ad8b25847cc9be85acb6863d264ca5a5454b1eb4f8f68dcd360086",
    },
    # A seed whose run flags a diverged inner adaptation (1 of 15 iterations).
    ("ablate", 7): {
        "datasets": "efaa5606b3fb0b5abe56f1139a63d1dfd88618a5ee95856a9d064130a302bc02",
        "metric_rows": "449a4fe5a2f373a779b34873edd53d1c4498fa7a819ef840ae90e626b320a486",
        "params": "d7da7de20ee13372b1ab77aafed528c144a9c08f9e13a1b54d37d67d5f19a354",
    },
}


def run_workload(workload: str, seed: int) -> tuple[dict, dict | None, int]:
    """The digests a run prints, its final JSON result (None if it printed
    none) and its exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digests = {}
    for line in lines:
        if line.startswith("digest "):
            name, value = line.split()[1:3]
            digests[name] = value.removeprefix("sha256:")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return digests, result, proc.returncode


def main() -> int:
    ok = True
    for (workload, seed), recorded in RECORDED.items():
        digests, result, code = run_workload(workload, seed)
        run = f"{workload} seed {seed}"
        for name, want in recorded.items():
            got = digests.get(name, "missing")
            same = got == want
            ok &= same
            print(f"{run:20s} {name:12s} {got[:16]} recorded {want[:16]} {'ok' if same else 'MISMATCH'}")
        correct = result is not None and result["correct"] and result["failed"] == 0 and code == 0
        ok &= correct
        summary = "no result" if result is None else f"correct: {result['correct']}, failed: {result['failed']}"
        print(f"{run:20s} {summary}, exit {code} {'ok' if correct else 'FAILED'}")
    selftest = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True)
    ok &= selftest.returncode == 0
    ran = [line for line in selftest.stderr.splitlines() if line.startswith("Ran ")]
    print(f"perfbench/selftest.py: {ran[-1] if ran else 'no tests ran'}, exit {selftest.returncode}"
          f" {'ok' if selftest.returncode == 0 else 'FAILED'}")
    counts = {p.name: len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "dmil").glob("*.py"))}
    for name, lines in counts.items():
        print(f"src/dmil/{name}: {lines} lines")
    print(f"src/dmil: {sum(counts.values())} lines")
    print("all digests and checks as recorded" if ok else "MISMATCH: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
