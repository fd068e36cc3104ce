"""Checkpoint files: one JSON document per snapshot.

Doubles serialize via repr, so a decimal round-trip reproduces every value
exactly.  The schema is versioned; a mismatch is a hard error naming both
versions."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .autodiff import ParamVector
from .config import METHODS
from .data import finite_reals, json_int, read_json
from .policies import HierarchicalParams, MlpShape

SCHEMA_VERSION = 1


class CheckpointSchemaError(ValueError):
    pass


@dataclass(frozen=True)
class Checkpoint:
    params: HierarchicalParams
    method: str
    rng_state: int
    iteration: int


def save_checkpoint(path, params: HierarchicalParams, method: str, rng_state: int, iteration: int) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "features": params.feature_kind,
        "K": params.K,
        "shapes": {
            "high": list(params.high_shape.layer_sizes),
            "skill": list(params.skill_shape.layer_sizes),
        },
        "high": params.high.values.tolist(),
        "skills": [s.values.tolist() for s in params.skills],
        "rng_state": int(rng_state),
        "iteration": int(iteration),
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def load_checkpoint(path) -> Checkpoint:
    """Read one checkpoint; a file that is not one (not a JSON object by
    data.read_json's rules, another schema version, a missing or malformed
    field: numbers by data.py's rules, rng_state in [0, 2^64), method a
    config.METHODS key) raises a one-line CheckpointSchemaError."""
    doc = read_json(path, "checkpoint", CheckpointSchemaError)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"checkpoint schema version {version!r} is not supported (expected {SCHEMA_VERSION})"
        )
    try:
        params = HierarchicalParams(
            ParamVector(finite_reals(doc["high"], "field 'high'")),
            tuple(ParamVector(finite_reals(s, "field 'skills'")) for s in doc["skills"]),
            MlpShape(doc["shapes"]["high"]),
            MlpShape(doc["shapes"]["skill"]),
            doc["features"],
        )
        if json_int(doc["K"], "field 'K'", 1) != params.K:
            raise ValueError(f"field 'K' is {doc['K']} for {params.K} skill arrays")
        if doc["method"] not in METHODS:
            raise ValueError(f"field 'method' must name one of {', '.join(METHODS)}, got {doc['method']!r}")
        rng_state = json_int(doc["rng_state"], "field 'rng_state'", 0, 2**64)
        return Checkpoint(params, doc["method"], rng_state, json_int(doc["iteration"], "field 'iteration'", 0))
    except KeyError as e:
        raise CheckpointSchemaError(f"checkpoint {path} has no field {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise CheckpointSchemaError(f"checkpoint {path} is malformed: {e}") from e
