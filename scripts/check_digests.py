"""Byte-identity check of the benchmark's outputs: runs the three perfbench
workloads at seed 0 and ablate at seed 7 for one round each, one traced
fewshot_eval round at seed 0, then perfbench's own self-test, every one as
a subprocess, and prints the output digests next to the recorded ones, each
run's correct/failed result and the line count of each src/dmil file and
of the package, beside the count at git HEAD and the difference (omitted
where git cannot show the file).  Run before committing, the total's
difference is the change's net src/dmil lines.  Exits 1 on any mismatch,
failed check or failed operation.

The benchmark's own digests (datasets, metric rows, params) do not cover
runner.evaluate's rows, so each recorded (workload, seed) also reruns one
round in this process, through perfbench/workloads.py's config_for and
run_round, and compares the sha256 of the repr of its evaluation rows.
Nor do they cover the meta-gradient check, so it also runs
runner.gradcheck_run at the default config in this process and compares
the sha256 of its report, without elapsed_seconds, as sorted-key JSON.

The in-process meta_train and ablate rounds at seed 0 run under
tracemalloc, and the script prints the traced heap's peak during each
warm_start and train stage, by method: meta_train's one warm start and its
train stage after the warm start nested in it (the outer iterations), and
ablate's warm start per skill count and each method's train stage.  The
highest is the round's heap high-water mark, which perfbench's peak_rss_mb
follows; the peaks do not change the exit code.

The traced round must also report 1-shot few_shot_adapt samples: the tracer
tags each few_shot_adapt span with the length of its second positional
argument, the demonstrations.  Demonstrations moved off that position leave
the traced 1-shot percentile empty (a keyword call crashes the traced run),
while every untraced round still matches its digests.

    python3 scripts/check_digests.py

The recorded digests were measured with numpy 2.4.6 and OpenBLAS 0.3.31
(SkylakeX core); another numpy or BLAS build may round differently.  The
script prints runner.environment() beside that build and says whether it
is the same, so that a mismatch on another build reads as one; the
environment does not change the exit code.
"""

import contextlib
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ as checked in
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dmil import runner  # noqa: E402
from dmil.config import resolve_config  # noqa: E402
from dmil.runner import environment, gradcheck_run  # noqa: E402
from workloads import config_for, run_round  # noqa: E402

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

# (workload, seed) -> sha256 of repr(rows) of the round's runner.evaluate rows.
EVAL_ROWS = {
    ("meta_train", 0): "78b0d584936ef665131011393de17911eee8a8c7a8fdbd5b2602cf676de370e3",
    ("ablate", 0): "051869cf5f747cdd6ab84ab9bb741712a4c89e10e9cdfda151fcbdcfa14f28fe",
    ("fewshot_eval", 0): "b3d5c6f7d94f491e86ded89045c78d9d3be5fd22ac2466c4788cf737733c592d",
    ("ablate", 7): "15ddc5571329f55f651d5e470e14de8a791e94c5da42527f0dc315d560b7e4d6",
}


# sha256 of runner.gradcheck_run's report at the default config, without
# elapsed_seconds, as sorted-key JSON.
GRADCHECK_REPORT = "90f7ca3e48673b8583e1c87ccd76377d9f6866dc88bc85b6b4ef8a7cc1fad376"

# The build the digests were recorded on: numpy's version, the prefix of the
# OpenBLAS config string and the OpenBLAS core type.
RECORDED_ENVIRONMENT = ("2.4.6", "OpenBLAS 0.3.31", "SkylakeX")


def gradcheck_digest() -> str:
    report = gradcheck_run(resolve_config())
    del report["elapsed_seconds"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def environment_line() -> str:
    """This process's runner.environment() beside the recorded build, and
    whether they are the same."""
    env = environment()
    numpy, config, core = RECORDED_ENVIRONMENT
    same = (env["numpy"] == numpy and (env["openblas"]["config"] or "").startswith(config)
            and env["openblas"]["corename"] == core)
    verdict = "same build" if same else "another build: a digest mismatch may be its rounding, not a change"
    return f"environment {json.dumps(env, sort_keys=True)}\nrecorded on numpy {numpy}, {config} ({core} core): {verdict}"


def eval_rows_digest(workload: str, seed: int) -> str:
    rows = run_round(workload, config_for(workload, seed))["rows"]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# The rounds whose warm_start and train stages are traced.
TRACED_STAGES_ROUNDS = (("meta_train", 0), ("ablate", 0))


@contextlib.contextmanager
def traced_stage_peaks():
    """Trace allocations and wrap runner.warm_start and runner.train, which
    run_round and runner.ablate reach through runner: yields a dict that
    gets each stage's peak traced heap in bytes, keyed "<method> <stage>"
    by the method of the config the stage is called with.  Each stage
    resets the peak as it starts and ends, so train's peak is that of the
    iterations after its warm start."""
    peaks: dict[str, int] = {}
    keep = {name: getattr(runner, name) for name in ("warm_start", "train")}

    def traced(name):
        def stage(cfg, *args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return keep[name](cfg, *args, **kwargs)
            finally:
                peaks[f"{cfg['dmil']['method']} {name}"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()

        return stage

    tracemalloc.start()
    try:
        for name in keep:
            setattr(runner, name, traced(name))
        yield peaks
    finally:
        for name, fn in keep.items():
            setattr(runner, name, fn)
        tracemalloc.stop()


def run_workload(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict | None, int]:
    """The digests a run prints, its final JSON result (None if it printed
    none) and its exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
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


def check_run(workload: str, seed: int, trace: int = 0) -> tuple[bool, dict | None]:
    """Run one round and print its digests against the recorded ones and
    its result.  Returns whether all match and the run is correct with no
    failed operation, and the run's JSON result."""
    digests, result, code = run_workload(workload, seed, trace)
    run = f"{workload} seed {seed}" + (" traced" if trace else "")
    ok = True
    for name, want in RECORDED[(workload, seed)].items():
        got = digests.get(name, "missing")
        same = got == want
        ok &= same
        print(f"{run:27s} {name:12s} {got[:16]} recorded {want[:16]} {'ok' if same else 'MISMATCH'}")
    correct = result is not None and result["correct"] and result["failed"] == 0 and code == 0
    summary = "no result" if result is None else f"correct: {result['correct']}, failed: {result['failed']}"
    print(f"{run:27s} {summary}, exit {code} {'ok' if correct else 'FAILED'}")
    return ok and correct, result


def head_line_counts() -> dict[str, int]:
    """Line count at git HEAD of each src/dmil/*.py file, by file name;
    empty where git cannot list HEAD's files."""

    def git(*args: str) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        except FileNotFoundError:  # no git on the path
            return subprocess.CompletedProcess(args, 1, "", "")

    listed = git("ls-tree", "--name-only", "HEAD", "src/dmil/")
    paths = [p for p in listed.stdout.split() if p.endswith(".py")] if listed.returncode == 0 else []
    shown = {Path(p).name: git("show", f"HEAD:{p}") for p in paths}
    return {name: len(proc.stdout.splitlines()) for name, proc in shown.items() if proc.returncode == 0}


def against_head(lines: int, head: int | None) -> str:
    return "" if head is None else f" (HEAD {head}, {lines - head:+d})"


def main() -> int:
    print(environment_line())
    ok = True
    for workload, seed in RECORDED:
        ok &= check_run(workload, seed)[0]
    for (workload, seed), want in EVAL_ROWS.items():
        with traced_stage_peaks() if (workload, seed) in TRACED_STAGES_ROUNDS else contextlib.nullcontext() as peaks:
            got = eval_rows_digest(workload, seed)
        ok &= got == want
        print(f"{f'{workload} seed {seed}':27s} {'eval_rows':12s} {got[:16]} recorded {want[:16]} "
              f"{'ok' if got == want else 'MISMATCH'}")
        if peaks:
            stages = ", ".join(f"{stage} {peak / 2**20:.2f} MiB" for stage, peak in peaks.items())
            print(f"{f'{workload} seed {seed}':27s} tracemalloc peak: {stages} ({max(peaks, key=peaks.get)} is the"
                  " high-water mark)")
    got = gradcheck_digest()
    ok &= got == GRADCHECK_REPORT
    print(f"{'gradcheck default config':27s} {'report':12s} {got[:16]} recorded {GRADCHECK_REPORT[:16]} "
          f"{'ok' if got == GRADCHECK_REPORT else 'MISMATCH'}")
    traced_ok, result = check_run("fewshot_eval", 0, trace=1)
    samples = result["metrics"].get("dmil.few_shot_adapt.samples", {}).get("value", 0) if result else 0
    ok &= traced_ok and samples > 0
    print(f"{'fewshot_eval seed 0 traced':27s} dmil.few_shot_adapt.samples: {samples} {'ok' if samples else 'FAILED'}")
    selftest = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True)
    ok &= selftest.returncode == 0
    ran = [line for line in selftest.stderr.splitlines() if line.startswith("Ran ")]
    print(f"perfbench/selftest.py: {ran[-1] if ran else 'no tests ran'}, exit {selftest.returncode}"
          f" {'ok' if selftest.returncode == 0 else 'FAILED'}")
    counts = {p.name: len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "dmil").glob("*.py"))}
    head = head_line_counts()
    for name, lines in counts.items():
        print(f"src/dmil/{name}: {lines} lines{against_head(lines, head.get(name))}")
    total = sum(counts.values())
    print(f"src/dmil: {total} lines{against_head(total, sum(head.values()) if head else None)}")
    print("all digests and checks as recorded" if ok else "MISMATCH: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
