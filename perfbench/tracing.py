"""Spans and counters recorded from outside the dmil package.

The tracer replaces a module attribute with a wrapper that records a span
around each call, and puts the original back on restore().  Every function
is wrapped at the name its caller looks up (`runner` imports
`meta_train_step` into its own namespace, `evaluation` imports
`few_shot_adapt`, ...), so no code under src/ changes.  Spans are kept in
memory as tuples and aggregated or written out after the measured round.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from dmil import autodiff, baselines, evaluation, policies, rng, runner, tasks
from dmil import dmil as core

# Stage functions: always wrapped, because the end-to-end metrics are their
# span durations.  runner.ablate calls the other four through runner's globals.
STAGES = ("build_datasets", "warm_start", "train", "evaluate", "ablate")

# gc.collect() runs before every stage call except warm_start, so that no
# stage pays for the garbage of the one before and the heap's collection
# phase at each stage start does not depend on what ran earlier.  These
# collections are the benchmark's own and are recorded as spans of this
# name, so that they can be left out of the stage times.
GC_SPAN = "bench.gc_collect"

# Layers of the per-layer table, each at every name its callers look up.
LAYERS = (
    ("autodiff.value_and_grad", ((autodiff, "value_and_grad"),)),
    ("autodiff.hvp", ((autodiff, "hvp"),)),
    ("autodiff.inner_adapt", ((core, "inner_adapt"), (baselines, "inner_adapt"), (evaluation, "inner_adapt"))),
    ("autodiff.meta_grad", ((core, "meta_grad"), (baselines, "meta_grad"))),
    ("dmil.hard_labels", ((core, "hard_labels"), (runner, "hard_labels"), (baselines, "hard_labels"))),
    ("dmil.partition_by_skill", ((core, "partition_by_skill"),)),
    ("dmil.meta_train_step", ((runner, "meta_train_step"),)),
    ("baselines.maml_train_step", ((runner, "maml_train_step"),)),
    ("baselines.em_only_train", ((runner, "em_only_train"),)),
    ("dmil.predict_action", ((evaluation, "predict_action"),)),
    ("evaluation.query_mse", ((runner, "query_mse"),)),
    ("evaluation.adapted_skill_accuracy", ((runner, "adapted_skill_accuracy"),)),
    ("evaluation.rollout_stats", ((runner, "rollout_stats"),)),
    ("tasks.make_dataset", ((runner, "make_dataset"),)),
)


class Tracer:
    """Spans are (name, start, end, parent index, kind).  The kind is
    (method, shots or None): percentiles are taken within one kind only."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.gc_pause_s = 0.0
        self.method = None
        self._stack: list[int] = []
        self._patches: list = []
        self._gc_started = None
        self._forced = False

    # ---- patching ----

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def span(self, owner, attr, name, shots=None, note=None, collect=False):
        """Wrap owner.attr in a span.  shots(args) tags the kind; note(args)
        runs before the call for bookkeeping; collect runs gc.collect()
        first and records it as a GC_SPAN span of its own."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            if collect:
                self._collect()
            kind = (self.method, None if shots is None else shots(args))
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, kind)

        self._patch(owner, attr, wrapper)

    def _collect(self):
        self._forced = True
        start = time.perf_counter()
        gc.collect()
        end = time.perf_counter()
        self._forced = False
        self.spans.append((GC_SPAN, start, end, self._stack[-1] if self._stack else -1, (self.method, None)))

    def count(self, owner, attr, name, amount=lambda args: 1):
        """Wrap owner.attr with a counter only, for calls too small or too
        many to time one by one."""
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += amount(args)
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _add(self, name, amount):
        self.counts[name] += amount

    def _set_method(self, method):
        self.method = method

    # ---- what gets wrapped ----

    def install_stages(self):
        notes = {
            "train": lambda a: self._set_method(a[0]["dmil"]["method"]),
            "evaluate": lambda a: self._set_method(a[2]),
        }
        for attr in STAGES:
            # warm_start is always the first call inside train, whose
            # collection it shares.
            self.span(runner, attr, f"runner.{attr}", note=notes.get(attr), collect=attr != "warm_start")

    def install_layers(self):
        for name, sites in LAYERS:
            for owner, attr in sites:
                self.span(owner, attr, name)
        self.span(evaluation, "few_shot_adapt", "dmil.few_shot_adapt", shots=lambda a: len(a[1]))
        # Both simulator entry points step exactly `T` times per call.
        self.span(evaluation, "rollout_policy", "tasks.rollout_policy", note=lambda a: self._add("tasks.sim_steps", a[2]))
        self.count(tasks, "rollout_expert", "tasks.sim_steps", amount=lambda a: a[1])
        for owner in (policies, core, baselines, evaluation):
            self.span(
                owner,
                "mlp_forward",
                "policies.mlp_forward",
                note=lambda a: self._add("policies.mlp_forward.rows", 1 if np.ndim(a[2]) == 1 else len(a[2])),
            )
        self.count(rng.SplitMix64, "normal_array", "rng.normal_array.calls")
        self.count(autodiff.Node, "__init__", "autodiff.tape_nodes")
        gc.callbacks.append(self._gc_callback)

    # ---- garbage collector ----

    def _gc_callback(self, phase, info):
        if not self._stack or self._forced:  # only collections the program triggers
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.counts["py.gc.collections"] += 1
            self.counts["py.gc.collected_objects"] += info["collected"]
            self._gc_started = None

    # ---- aggregation ----

    def table(self, first: int = 0, last: int | None = None) -> dict:
        """Aggregate spans[first:last] into name -> {calls, total_s, self_s,
        samples: {kind: [seconds]}}.  Self time is the span's duration minus
        the durations of its direct children."""
        spans = self.spans[first:last]
        child = defaultdict(float)
        for name, start, end, parent, kind in spans:
            child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, kind) in enumerate(spans, start=first):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "samples": defaultdict(list)})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["samples"][kind].append(end - start)
        return out

    def write(self, path: Path, first: int = 0) -> None:
        """spans[first:] as JSON lines [name, start, end, parent, kind], with
        times in seconds from the first span and parents as line numbers
        (-1 at top level)."""
        spans = self.spans[first:]
        t0 = spans[0][1] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for name, start, end, parent, kind in spans:
                line = [name, round(start - t0, 9), round(end - t0, 9), parent - first if parent >= first else -1, list(kind)]
                f.write(json.dumps(line) + "\n")
