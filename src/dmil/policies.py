"""Fully-connected policy networks over flat parameter vectors.

Two heads share one MLP layout: a K-way softmax classifier over states (the
skill selector) and K regression networks mapping state to action mean.  The
action distribution is Gaussian with a fixed shared sigma of 1.0, so the
behavior-cloning likelihood reduces to mean squared error and the per-step
best-skill choice depends only on squared prediction error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, ParamVector
from .data import json_int
from .kernels import check_input, forward, unpack
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class MlpShape:
    """Layer sizes (JSON integers >= 1) from input to output; ReLU on hidden layers, linear output."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(json_int(s, "a layer size", 1) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ContractError(f"MlpShape needs >= 2 layers, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))


FEATURE_KINDS = ("raw", "relative")


def featurize(states: np.ndarray, kind: str) -> np.ndarray:
    """Fixed state-only input map for the policy networks.

    "raw" is the identity.  "relative" appends the goal offset and its norm,
    [s, g - p, |g - p|]; everything is still a function of the state alone."""
    states = np.asarray(states, dtype=np.float64)
    if kind == "raw":
        return states
    if kind == "relative":
        delta = states[:, 2:4] - states[:, 0:2]
        dist = np.sqrt(np.sum(delta**2, axis=1, keepdims=True))
        return np.concatenate([states, delta, dist], axis=1)
    raise ContractError(f"unknown feature kind {kind!r}")


def init_params(shape: MlpShape, seed: int) -> ParamVector:
    """Deterministic init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = SplitMix64(seed)
    chunks = []
    sizes = shape.layer_sizes
    for i in range(len(sizes) - 1):
        nin, nout = sizes[i], sizes[i + 1]
        bound = 1.0 / np.sqrt(nin)
        chunks.append(rng.uniform_array(nin * nout, -bound, bound))
        chunks.append(np.zeros(nout))
    return ParamVector(np.concatenate(chunks))


def mlp_forward(theta: ParamVector | np.ndarray, shape: MlpShape, x) -> np.ndarray:
    """Plain numpy forward pass: (N, in) -> (N, out).

    An (m, N, in) stack of inputs gives (m, N, out), against one vector or
    an (m, n_params) stack of vectors, one per input slice: each slice is
    one N-row matmul per layer, bitwise the unstacked call on that slice.
    An (m, n_params) stack on an (m, n, 1, in) input instead meets each row
    with its slice's vector in a matmul of its own, so every row is bitwise
    the one-row call with its own vector (one n-row matmul may round
    differently).  That input is made C-contiguous first, because numpy
    leaves BLAS for non-contiguous operands and may then round otherwise."""
    values = theta.values if isinstance(theta, ParamVector) else np.asarray(theta, dtype=np.float64)
    if values.ndim > 2 or values.shape[-1] != shape.n_params:
        raise ContractError(f"parameter length {values.shape[-1]} != shape size {shape.n_params}")
    x = np.asarray(x, dtype=np.float64)
    layers = unpack(values, shape.layer_sizes)
    if x.ndim < 4 or values.ndim == 1:
        return forward(layers, check_input(x, shape.in_dim, values.shape[:-1]))[-1]
    m = len(values)
    if x.shape[0] != m or x.shape[2:] != (1, shape.in_dim):
        raise ContractError(f"input shape {x.shape} is not an ({m}, n, 1, {shape.in_dim}) stack")
    return forward([(w[:, None], b[:, None]) for w, b in layers], np.ascontiguousarray(x))[-1]


@dataclass(frozen=True)
class HierarchicalParams:
    """The trained object: one selector network plus K sub-skill networks.

    feature_kind names the fixed input map (`featurize`) applied to raw
    states before any network sees them; it travels with the parameters (and
    checkpoints, so it is checked here) and every consumer featurizes
    consistently."""

    high: ParamVector
    skills: tuple[ParamVector, ...]
    high_shape: MlpShape
    skill_shape: MlpShape
    feature_kind: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "skills", tuple(self.skills))
        k = len(self.skills)
        if k < 1:
            raise ContractError("need at least one sub-skill")
        if self.feature_kind not in FEATURE_KINDS:
            raise ContractError(f"unknown feature kind {self.feature_kind!r}")
        if self.high_shape.out_dim != k:
            raise ContractError(
                f"selector output dim {self.high_shape.out_dim} != number of skills {k}"
            )
        if len(self.high) != self.high_shape.n_params:
            raise ContractError("selector parameter length does not match its shape")
        for i, s in enumerate(self.skills):
            if len(s) != self.skill_shape.n_params:
                raise ContractError(f"skill {i} parameter length does not match its shape")

    @property
    def K(self) -> int:
        return len(self.skills)

    def with_updates(
        self, high: ParamVector, skills: tuple[ParamVector, ...]
    ) -> "HierarchicalParams":
        return HierarchicalParams(high, skills, self.high_shape, self.skill_shape, self.feature_kind)


def init_hierarchical(
    state_dim: int,
    action_dim: int,
    n_skills: int,
    hidden: tuple[int, ...],
    seed: int,
    features: str = "raw",
) -> HierarchicalParams:
    """Seeded init for the full hierarchy; sub-streams per component.  The
    input width is what `featurize` makes of a state."""
    in_dim = featurize(np.zeros((1, state_dim)), features).shape[1]
    high_shape = MlpShape((in_dim, *hidden, n_skills))
    skill_shape = MlpShape((in_dim, *hidden, action_dim))
    high = init_params(high_shape, derive_seed(seed, 0))
    skills = tuple(
        init_params(skill_shape, derive_seed(seed, 1 + k)) for k in range(n_skills)
    )
    return HierarchicalParams(high, skills, high_shape, skill_shape, features)
