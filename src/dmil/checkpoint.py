"""Checkpoint files: one JSON document per snapshot.

Doubles serialize via repr, so a decimal round-trip reproduces every value
exactly.  The schema is versioned; a mismatch is a hard error naming both
versions."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import NumericError, ParamVector
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
    """Read one checkpoint.  A file that cannot be read or is not one (not
    JSON, not an object, another schema version, a missing or malformed
    field, a non-finite parameter, a K, rng_state or iteration that is not
    a JSON integer) raises a one-line CheckpointSchemaError."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise CheckpointSchemaError(f"checkpoint {path} cannot be read: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise CheckpointSchemaError(f"checkpoint {path} does not parse: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointSchemaError(f"checkpoint {path} holds a JSON {type(doc).__name__}, not an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"checkpoint schema version {version!r} is not supported (expected {SCHEMA_VERSION})"
        )
    try:
        params = HierarchicalParams(
            ParamVector(np.array(doc["high"], dtype=np.float64)),
            tuple(ParamVector(np.array(s, dtype=np.float64)) for s in doc["skills"]),
            MlpShape(tuple(doc["shapes"]["high"])),
            MlpShape(tuple(doc["shapes"]["skill"])),
            doc["features"],
        )
        ckpt = Checkpoint(params, doc["method"], doc["rng_state"], doc["iteration"])
        k = doc["K"]
    except KeyError as e:
        raise CheckpointSchemaError(f"checkpoint {path} has no field {e}") from e
    except (TypeError, ValueError) as e:
        raise CheckpointSchemaError(f"checkpoint {path} has a malformed field: {e}") from e
    except NumericError as e:
        raise CheckpointSchemaError(f"checkpoint {path} has a non-finite parameter") from e
    for field, value in (("K", k), ("rng_state", ckpt.rng_state), ("iteration", ckpt.iteration)):
        if type(value) is not int:
            raise CheckpointSchemaError(f"checkpoint {path} field {field!r} must be an integer, got {value!r}")
    if params.K != k:
        raise CheckpointSchemaError(f"checkpoint K={k!r} does not match {params.K} skill arrays")
    return ckpt
