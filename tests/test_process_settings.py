"""Process-wide settings made when the dmil package is imported: one BLAS
thread (dmil.blas) and fixed malloc thresholds (dmil.allocator).  Each
subprocess test starts a fresh interpreter, because both settings belong to
the process and the page-fault count depends on what it allocated before."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dmil
from dmil import allocator

SRC = str(Path(__file__).resolve().parent.parent / "src")

# One warm-up epoch, then 20 hard-EM epochs on a 4,800-row pool (20 tasks x
# 2 trajectories x 120 steps); prints the minor page faults of the 20.
EM_FAULTS = """
import resource
import dmil
from dmil import runner
from dmil.config import resolve_config
from dmil.dmil import pool

cfg = resolve_config({"data": {"n_train_tasks": 20, "n_support": 4, "n_query": 1, "horizon": 120},
                      "model": {"hidden": [32, 32]}})
p = pool([t for task in runner.build_split(cfg, "train") for t in task.support[:2]], "relative")
assert len(p) == 4800
params = runner._em_alternations(runner.init_model(cfg), p, 1, 5e-2, 0.1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
runner._em_alternations(params, p, 20, 5e-2, 0.1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def run_child(code: str, **env: str) -> str:
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_pins_blas_to_one_thread() -> None:
    # numpy has read OPENBLAS_NUM_THREADS=2 by the time dmil pins.
    code = "import dmil\nfrom dmil import blas\nprint(blas.threads())"
    assert run_child(code, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2") == "1"


def test_hard_em_epochs_reuse_freed_memory() -> None:
    # With glibc's default thresholds each epoch maps fresh pages for its
    # pool-sized temporaries: 3,200 to 3,700 faults per epoch.
    if not dmil.MALLOC_THRESHOLDS_SET:
        pytest.skip("no glibc mallopt: the default thresholds stay")
    faults = int(run_child(EM_FAULTS))
    assert faults < 500, f"{faults} minor page faults in 20 hard-EM epochs"


class RefusingLibc:
    @staticmethod
    def mallopt(param, value):
        return 0


def unopenable_libc():
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [object, RefusingLibc, unopenable_libc], ids=["no-mallopt", "refused", "no-libc"])
def test_thresholds_not_set_without_glibc_mallopt(monkeypatch, libc) -> None:
    monkeypatch.setattr(allocator, "_libc", libc)
    assert allocator.set_thresholds() is False
