"""Run configuration: one JSON document with sections {data, model, dmil,
eval, gradcheck, run}.  Unknown keys are hard errors (no silent defaults for
typos), and so is a value whose type differs from its default's (an int may
stand for a float; keys whose default is None take any value), and so is a
float that is not finite.  Values are deep-merged over SCHEMA's defaults."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import NamedTuple

from .data import json_int, read_json
from .policies import FEATURE_KINDS
from .tasks import MIN_HORIZON, MIN_QUERY, MIN_SUPPORT


class ConfigError(ValueError):
    pass


class Method(NamedTuple):
    one_network: bool  # trains one network instead of model.n_skills
    adapts: tuple[bool, bool]  # (selector, sub-skills), inner loop and test time alike
    step: str  # the runner function that takes the outer step


# Every per-method rule, in ablation order.  maml is dmil_low with one
# network; its one-output selector has an exactly zero gradient, so it is
# never adapted.  em_only trains without inner steps and adapts like dmil at
# test time.
METHODS = {
    "dmil": Method(False, (True, True), "meta_train_step"),
    "dmil_high": Method(False, (True, False), "meta_train_step"),
    "dmil_low": Method(False, (False, True), "meta_train_step"),
    "maml": Method(True, (False, True), "maml_train_step"),
    "em_only": Method(False, (True, True), "em_only_train"),
}

# Every config key once, as (default, rule), the rule checked after the
# merge: a tuple of the valid values; a lower bound, which a list-valued key
# applies to each entry (it must list integers, at least one unless it is
# model.hidden: empty means no hidden layer); or None, no check.
SCHEMA: dict = {
    "data": {
        "n_train_tasks": (20, 1),
        "n_test_tasks": (5, 1),
        "n_support": (40, MIN_SUPPORT),
        "n_query": (10, MIN_QUERY),
        "horizon": (120, MIN_HORIZON),
        "data_seed": (77, None),
        "train_path": (None, None),  # optional JSONL files written by gen-data
        "test_path": (None, None),
    },
    "model": {
        "hidden": ([64, 64], 1),
        "n_skills": (3, 1),
        "features": ("relative", FEATURE_KINDS),  # policy input map: raw state or [s, g-p, |g-p|]
    },
    "dmil": {
        "method": ("dmil", tuple(METHODS)),
        "inner_rate": (5e-4, 0),
        "outer_rate": (1e-4, 0),
        "inner_steps": (3, 1),
        "aux_weight": (0.1, 0),
        "batch_size": (16, 1),
        "tasks_per_step": (5, 1),
        # Outer update of all five methods at outer_rate.  Every method's
        # step yields gradients at the pre-step parameters (em_only routes
        # by the pre-step selector).
        "outer_optimizer": ("sgd", ("sgd", "adam")),
        # Hard-EM warm start (shared verbatim by every method under one seed):
        # label-routed alternations, then selector-only consolidation.
        "warmup_epochs": (0, 0),
        "warmup_consolidate": (0, 0),
        "warmup_rate": (5e-2, 0),
        "warmup_trajs_per_task": (2, 1),
        "warmup_restarts": (1, 1),
        "warmup_probe_epochs": (300, 0),
    },
    "eval": {
        "shots": ([1, 3], 1),
        "episodes": (5, 1),
        "adapt_rate": (5e-4, 0),
        "adapt_steps": (3, 1),
        "scale_steps_with_shots": (False, None),  # k-shot adaptation runs k * adapt_steps
    },
    "gradcheck": {
        "instances": (20, 1),
        "inner_steps": ([1, 3], 1),
    },
    "run": {
        "seed": (0, None),
        "iterations": (300, 0),
        "checkpoint_every": (100, 0),  # 0: only the first and final checkpoints
    },
}
DEFAULT_CONFIG: dict = {
    section: {name: default for name, (default, _) in keys.items()} for section, keys in SCHEMA.items()
}


def _merge(defaults: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            valid = ", ".join(sorted(defaults))
            raise ConfigError(f"unknown config key {here!r}; valid keys here: {valid}")
        want = type(defaults[key])
        if want is dict:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here!r} must be a section (object)")
            out[key] = _merge(defaults[key], value, here)
            continue
        got = type(value)
        if defaults[key] is not None and got is not want and (want, got) != (float, int):
            raise ConfigError(f"config key {here!r} must be {want.__name__}, got {got.__name__} {value!r}")
        if got is float and not math.isfinite(value):  # json reads NaN and Infinity
            raise ConfigError(f"config key {here!r} must be finite, got {value!r}")
        out[key] = copy.copy(value)  # a valid leaf is a scalar or a list of scalars
    return out


def resolve_config(overrides: dict | None = None, seed: int | None = None) -> dict:
    """Defaults deep-merged with overrides; optional run.seed replacement."""
    cfg = _merge(DEFAULT_CONFIG, overrides or {}, "")
    if seed is not None:
        cfg["run"]["seed"] = int(seed)
    d = cfg["data"]
    if (d["train_path"] is None) != (d["test_path"] is None):
        raise ConfigError("config keys 'data.train_path' and 'data.test_path' must be set together")
    for key in ("train_path", "test_path"):
        path = d[key]
        if path is not None and not (isinstance(path, str) and Path(path).is_file()):
            raise ConfigError(f"config key 'data.{key}' must name a dataset file, got {path!r}")
    for section, keys in SCHEMA.items():
        for name, (_, rule) in keys.items():
            key, value = f"{section}.{name}", cfg[section][name]
            if rule is None:
                continue
            if isinstance(rule, tuple):
                if value not in rule:
                    raise ConfigError(f"config key {key!r} must be one of {', '.join(rule)}, got {value!r}")
            elif isinstance(value, list):
                try:
                    for k in value:
                        json_int(k, key, rule)
                except ValueError as e:
                    raise ConfigError(f"config key {key!r} must list integers >= {rule}, got {value!r}") from e
                if not value and key != "model.hidden":
                    raise ConfigError(f"config key {key!r} must list at least one integer")
            elif value < rule:
                raise ConfigError(f"config key {key!r} must be >= {rule}, got {value!r}")
    return cfg


def load_config(path, seed: int | None = None) -> dict:
    return resolve_config(read_json(path, "config file", ConfigError), seed=seed)


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"
