"""Trajectory container shared by the learner and the benchmark generator.

The learner pools trajectories into one batch (dmil.pool); this module only
holds and checks them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed (state, action) pairs, optionally with hidden skill labels.

    true_skills exist only for evaluation; no training code path reads them.
    """

    states: np.ndarray  # (T, state_dim)
    actions: np.ndarray  # (T, action_dim)
    true_skills: np.ndarray | None = None  # (T,) ints, evaluation only

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
        s.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "actions", a)
        if self.true_skills is not None:
            z = np.asarray(self.true_skills, dtype=np.int64)
            if z.shape != (s.shape[0],):
                raise ContractError("true_skills must align with states")
            z.setflags(write=False)
            object.__setattr__(self, "true_skills", z)

    def __len__(self) -> int:
        return self.states.shape[0]

