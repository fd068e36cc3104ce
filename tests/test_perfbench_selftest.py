"""perfbench/selftest.py tests the benchmark's own output checks.  Its
expert rollouts go through the package's batched policy contract (its
SlowExpert overrides `act` and calls the base class's), so a change to that
contract which breaks the benchmark fails here, not only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def snapshot() -> list:
    return sorted((str(p.relative_to(PERFBENCH)), p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))


def test_perfbench_selftest_passes() -> None:
    before = snapshot()
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert snapshot() == before  # leaves perfbench/ as checked in: no bytecode, no out/ files
