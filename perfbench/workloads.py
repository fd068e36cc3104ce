"""The benchmark's workloads: one config each, built from the seed, and one
round of calls into dmil's public runner functions.

Sizes are chosen so that every timed stage lasts at least a second on a
2-core machine and a round lasts 10-25 s; README.md lists them.
"""

from __future__ import annotations

import copy

from dmil import runner
from dmil.config import resolve_config

# The pilot model of scripts/pilot_campaign.py (K=3, 32x32, relative
# features, Adam), restated so that editing the pilot does not move the
# benchmark.
PILOT = {
    "model": {"hidden": [32, 32], "n_skills": 3, "features": "relative"},
    "dmil": {
        "batch_size": 2,
        "tasks_per_step": 5,
        "inner_rate": 2e-2,
        "outer_rate": 2e-3,
        "inner_steps": 3,
        "aux_weight": 0.1,
        "outer_optimizer": "adam",
        "warmup_rate": 5e-2,
        "warmup_trajs_per_task": 2,
    },
    "eval": {"shots": [1, 3], "adapt_rate": 2e-2, "adapt_steps": 10, "scale_steps_with_shots": True},
    "run": {"checkpoint_every": 0},
}


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


CONFIGS = {
    # Second-order meta-training on 240-row batches: tape bookkeeping.
    "meta_train": _merge(PILOT, {
        "data": {"n_train_tasks": 10, "n_test_tasks": 12, "n_support": 14, "n_query": 2, "horizon": 120},
        "dmil": {"warmup_epochs": 80, "warmup_consolidate": 20, "warmup_restarts": 2, "warmup_probe_epochs": 15},
        "eval": {"episodes": 6},
        "run": {"iterations": 100},
    }),
    # All five methods at the default 64x64 network; the warm start, which
    # runner.ablate recomputes once per method, is most of the time.
    "ablate": _merge(PILOT, {
        "data": {"n_train_tasks": 5, "n_test_tasks": 4, "n_support": 16, "n_query": 12, "horizon": 120},
        "model": {"hidden": [64, 64]},
        "dmil": {
            "batch_size": 4,
            "warmup_epochs": 120,
            "warmup_consolidate": 30,
            "warmup_restarts": 2,
            "warmup_probe_epochs": 10,
        },
        "eval": {"episodes": 2},
        "run": {"iterations": 3},
    }),
    # Many test tasks, more rollout episodes, brief training: the per-step
    # simulator and single-row policy calls.
    "fewshot_eval": _merge(PILOT, {
        "data": {"n_train_tasks": 8, "n_test_tasks": 12, "n_support": 8, "n_query": 6, "horizon": 120},
        "dmil": {"warmup_epochs": 150, "warmup_consolidate": 40, "warmup_restarts": 2, "warmup_probe_epochs": 15},
        "eval": {"episodes": 8},
        "run": {"iterations": 14},
    }),
}

WORKLOADS = tuple(CONFIGS)


def config_for(workload: str, seed: int) -> dict:
    """The workload's config for one seed.  The seed draws every
    demonstration (start state and action noise, through data.data_seed).
    Task parameters, model init and batch schedule stay fixed, so the
    quality metrics of two seeds compare fits to the same tasks rather than
    task draws of different difficulty."""
    cfg = copy.deepcopy(CONFIGS[workload])
    cfg["data"]["data_seed"] = seed
    return resolve_config(cfg)


def run_round(workload: str, cfg: dict) -> dict:
    """One round: every call goes through runner's module attributes, where
    the tracer's stage spans time it.

    Returns the outputs the checks and digests need: datasets, (method,
    TrainResult) pairs in training order, and the evaluation rows."""
    if workload == "ablate":
        trained = []
        keep = runner.train

        def train(*args, **kwargs):
            res = keep(*args, **kwargs)
            trained.append((res.method, res))
            return res

        runner.train = train  # ablate looks train up in runner's globals
        try:
            rows = runner.ablate(cfg)
        finally:
            runner.train = keep
        res = trained[0][1]
        return {"datasets": (res.train_tasks, res.test_tasks), "trained": trained, "rows": rows}
    train_tasks, test_tasks = runner.build_datasets(cfg)
    res = runner.train(cfg, datasets=(train_tasks, test_tasks))
    rows = runner.evaluate(cfg, res.params, "dmil", test_tasks)
    return {"datasets": (train_tasks, test_tasks), "trained": [("dmil", res)], "rows": rows}
