"""Trajectory container shared by the learner and the benchmark generator
(dmil.pool batches them; this module only holds and checks them), the one
reader of every input file (read_json: configs, checkpoints and dataset
lines), and the number rules of dataset lines, checkpoints, config lists and
layer sizes: finite_reals, json_int."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ContractError


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed (state, action) pairs with the hidden skill labels the
    generator wrote.

    true_skills exist only for evaluation; no training code path reads them.
    """

    states: np.ndarray  # (T, state_dim)
    actions: np.ndarray  # (T, action_dim)
    true_skills: np.ndarray  # (T,) ints, evaluation only

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.float64)
        a = np.asarray(self.actions, dtype=np.float64)
        if s.ndim != 2 or a.ndim != 2:
            raise ContractError("states and actions must be 2-D arrays")
        if s.shape[0] != a.shape[0]:
            raise ContractError(
                f"states length {s.shape[0]} != actions length {a.shape[0]}"
            )
        if s.shape[0] < 2:
            raise ContractError("trajectories need at least 2 timesteps")
        z = np.asarray(self.true_skills, dtype=np.int64)
        if z.shape != (s.shape[0],):
            raise ContractError("true_skills must align with states")
        for name, value in (("states", s), ("actions", a), ("true_skills", z)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.states.shape[0]


def finite_reals(values, name: str, width: int | None = None) -> np.ndarray:
    """values as a float64 array, (T, width) given a width, else 1-D;
    ValueError for another shape or for an entry that is not a finite JSON
    number (NaN, Infinity, a string, a boolean)."""
    a = np.array(values, dtype=object)
    if a.ndim != (1 if width is None else 2) or (width is not None and a.shape[1] != width):
        raise ValueError(f"{name} must have shape {'(N,)' if width is None else f'(T, {width})'}, got {a.shape}")
    for v in a.flat:
        if type(v) not in (int, float) or not math.isfinite(v):
            raise ValueError(f"{name} must be finite numbers, got {v!r}")
    return a.astype(np.float64)


def json_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """value if it is a JSON integer (not a boolean) in [low, high), the
    upper bound optional; ContractError (a ValueError) otherwise."""
    if type(value) is not int:
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value >= high):
        raise ContractError(f"{name} must be {f'>= {low}' if high is None else f'in [{low}, {high})'}, got {value}")
    return value


def read_json(path, what: str, error: type[ValueError], lines: bool = False):
    """The JSON object in the file, or with lines=True (line number, object)
    per non-blank line.  error, one line naming `what` and the path or the
    line, for a file that cannot be read, is not UTF-8 (never sniffed), is
    not JSON, nests past the parser's limit, repeats a key within an object
    at any depth or holds no object."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise error(f"{what} {path} cannot be read: {e.strerror}") from e
    if not lines:
        return _json_object(raw, f"{what} {path}", error)
    return ((n, _json_object(line, f"line {n}", error)) for n, line in enumerate(raw.splitlines(), 1) if line.strip())


def _unique_keys(pairs: list) -> dict:
    """json's object_pairs_hook: the object, or KeyError for a key that
    appears twice (json.loads alone keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise KeyError(key)
        obj[key] = value
    return obj


def _json_object(raw: bytes, where: str, error: type[ValueError]) -> dict:
    try:
        value = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except KeyError as e:  # only _unique_keys raises it
        raise error(f"{where} repeats the key {e.args[0]!r}") from None
    except RecursionError:
        raise error(f"{where} nests deeper than the JSON parser's limit") from None
    except UnicodeDecodeError as e:
        raise error(f"{where} is not UTF-8: {e}") from e
    except ValueError as e:  # JSONDecodeError, or an integer past Python's digit limit
        raise error(f"{where} is not JSON: {e}") from e
    if type(value) is not dict:
        raise error(f"{where} holds a JSON {type(value).__name__}, not an object")
    return value
