"""Run configuration: one JSON document with sections {data, model, dmil,
eval, gradcheck, run}.  Unknown keys are hard errors (no silent defaults for
typos), and so is a value whose type differs from its default's (an int may
stand for a float; keys whose default is None take any value).  Values are
deep-merged over the defaults below."""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import NamedTuple

from .policies import FEATURE_KINDS


class ConfigError(ValueError):
    pass


class Method(NamedTuple):
    one_network: bool  # trains one network instead of model.n_skills
    adapts: tuple[bool, bool]  # (selector, sub-skills), inner loop and test time alike
    step: str  # the runner function that takes the outer step


DEFAULT_CONFIG: dict = {
    "data": {
        "n_train_tasks": 20,
        "n_test_tasks": 5,
        "n_support": 40,
        "n_query": 10,
        "horizon": 120,
        "data_seed": 77,
        "train_path": None,  # optional JSONL files written by gen-data
        "test_path": None,
    },
    "model": {
        "hidden": [64, 64],
        "n_skills": 3,
        "features": "relative",  # policy input map: raw state or [s, g-p, |g-p|]
    },
    "dmil": {
        "method": "dmil",  # a key of METHODS below
        "inner_rate": 5e-4,
        "outer_rate": 1e-4,
        "inner_steps": 3,
        "aux_weight": 0.1,
        "batch_size": 16,
        "tasks_per_step": 5,
        # Outer update of all five methods at outer_rate: "sgd" or "adam".
        # Every method's step yields gradients at the pre-step parameters
        # (em_only routes by the pre-step selector).
        "outer_optimizer": "sgd",
        # Hard-EM warm start (shared verbatim by every method under one seed):
        # label-routed alternations, then selector-only consolidation.
        "warmup_epochs": 0,
        "warmup_consolidate": 0,
        "warmup_rate": 5e-2,
        "warmup_trajs_per_task": 2,
        "warmup_restarts": 1,
        "warmup_probe_epochs": 300,
    },
    "eval": {
        "shots": [1, 3],
        "episodes": 5,
        "adapt_rate": 5e-4,
        "adapt_steps": 3,
        "scale_steps_with_shots": False,  # k-shot adaptation runs k * adapt_steps
    },
    "gradcheck": {
        "instances": 20,
        "inner_steps": [1, 3],
    },
    "run": {
        "seed": 0,
        "iterations": 300,
        "checkpoint_every": 100,
    },
}

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
OUTER_OPTIMIZERS = ("sgd", "adam")
# Lower bounds of numeric keys, checked after the merge (a None value means
# "use the default"); a list-valued key must list integers >= the bound, and
# at least one unless it is model.hidden (empty: no hidden layer).
RANGES = (
    ("data.n_train_tasks", 1),
    ("data.n_test_tasks", 1),
    ("data.n_support", 4),  # the data.* bounds are tasks.make_dataset's
    ("data.n_query", 1),
    ("data.horizon", 2),
    ("dmil.inner_steps", 1),
    ("dmil.batch_size", 1),
    ("dmil.tasks_per_step", 1),
    ("model.n_skills", 1),
    ("run.iterations", 0),
    ("dmil.inner_rate", 0),
    ("dmil.outer_rate", 0),
    ("dmil.warmup_rate", 0),
    ("eval.adapt_rate", 0),
    ("eval.adapt_steps", 1),
    ("eval.episodes", 1),
    ("eval.shots", 1),
    ("model.hidden", 1),
    ("gradcheck.inner_steps", 1),
    ("gradcheck.instances", 1),
    ("dmil.warmup_restarts", 1),
    ("dmil.warmup_trajs_per_task", 1),
    ("dmil.warmup_probe_epochs", 0),
    ("dmil.warmup_epochs", 0),
    ("dmil.warmup_consolidate", 0),
)


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
        out[key] = copy.deepcopy(value)
    return out


def resolve_config(overrides: dict | None = None, seed: int | None = None) -> dict:
    """Defaults deep-merged with overrides; optional run.seed replacement."""
    cfg = _merge(DEFAULT_CONFIG, overrides or {}, "")
    if seed is not None:
        cfg["run"]["seed"] = int(seed)
    if cfg["dmil"]["method"] not in METHODS:
        raise ConfigError(
            f"unknown method {cfg['dmil']['method']!r}; valid methods: {', '.join(METHODS)}"
        )
    if cfg["dmil"]["outer_optimizer"] not in OUTER_OPTIMIZERS:
        raise ConfigError(
            f"unknown outer_optimizer {cfg['dmil']['outer_optimizer']!r}; "
            f"valid optimizers: {', '.join(OUTER_OPTIMIZERS)}"
        )
    if cfg["model"]["features"] not in FEATURE_KINDS:
        raise ConfigError(
            f"unknown model.features {cfg['model']['features']!r}; "
            f"valid feature kinds: {', '.join(FEATURE_KINDS)}"
        )
    d = cfg["data"]
    if (d["train_path"] is None) != (d["test_path"] is None):
        raise ConfigError("config keys 'data.train_path' and 'data.test_path' must be set together")
    for key in ("train_path", "test_path"):
        path = d[key]
        if path is not None and not (isinstance(path, str) and Path(path).is_file()):
            raise ConfigError(f"config key 'data.{key}' must name a dataset file, got {path!r}")
    for key, low in RANGES:
        section, name = key.split(".")
        value = cfg[section][name]
        if isinstance(value, list):
            if not all(type(k) is int and k >= low for k in value):
                raise ConfigError(f"config key {key!r} must list integers >= {low}, got {value!r}")
            if not value and key != "model.hidden":
                raise ConfigError(f"config key {key!r} must list at least one integer")
        elif value is not None and value < low:
            raise ConfigError(f"config key {key!r} must be >= {low}, got {value!r}")
    return cfg


def load_config(path, seed: int | None = None) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} does not parse: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return resolve_config(raw, seed=seed)


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"
