"""Differentiation over flat parameter vectors.

A loss is any object with value and linearize on float64 arrays (the Loss
protocol): linearize evaluates the loss once at a parameter vector and
returns its value, its gradient and Hessian-vector products at that vector
(a Linearization).  loss_value, linearize, value_and_grad and hvp wrap those
methods and check that every loss, gradient and Hessian-vector product is
finite.  The training losses are closed-form (dmil.kernels).  The small
operation tape below is only their test reference: tests/oracle.py writes
the same losses on it and adapts them to the Loss protocol, and no training,
evaluation or gradcheck path builds a tape.  The tape covers dense matmul
plus elementwise ops, enough for fully-connected networks; its backward
passes are built out of tape ops, so differentiating one again gives exact
reverse-over-reverse Hessian-vector products.

inner_adapt records plain gradient-descent steps and keeps each step's
linearization, and meta_grad backpropagates an outer gradient through them
(the (I - rate * H) chain, applied in reverse step order) without
evaluating the inner loss again.

Everything is float64.  ReLU uses subgradient 0 at the kink and contributes
nothing to second derivatives, which is the usual almost-everywhere
convention; finite-difference checks must stay away from kinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np


class NumericError(RuntimeError):
    """A computation produced a non-finite value."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


# ---------------------------------------------------------------------------
# parameter vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamVector:
    """Immutable flat float64 parameter vector; the unit of differentiation.

    The constructor copies and checks its input.  Arithmetic, and the
    checked results of the loss-level API below, wrap arrays they have just
    allocated (_fresh) without a copy."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ContractError(f"ParamVector must be 1-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NumericError("ParamVector entries must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _fresh(cls, v: np.ndarray, check: bool = True) -> "ParamVector":
        """Wrap a newly allocated 1-D float64 array that nothing else holds,
        checking it is finite unless the caller already has."""
        if check and not np.isfinite(v).all():
            raise NumericError("ParamVector entries must be finite")
        v.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "values", v)
        return out

    def __len__(self) -> int:
        return self.values.shape[0]

    def minus_scaled(self, g: "ParamVector", rate: float) -> "ParamVector":
        """theta - rate * g, the one arithmetic form of every descent step."""
        if len(g) != len(self):
            raise ContractError(f"length mismatch: {len(self)} vs {len(g)}")
        return ParamVector._fresh(self.values - rate * g.values)

    def scaled(self, c: float) -> "ParamVector":
        return ParamVector._fresh(self.values * c)

    def add(self, other: "ParamVector") -> "ParamVector":
        if len(other) != len(self):
            raise ContractError(f"length mismatch: {len(self)} vs {len(other)}")
        return ParamVector._fresh(self.values + other.values)

    @staticmethod
    def zeros(n: int) -> "ParamVector":
        return ParamVector._fresh(np.zeros(n), check=False)


# ---------------------------------------------------------------------------
# tape nodes and operations
# ---------------------------------------------------------------------------


class Node:
    """One tape entry: a value plus vjp closures toward its parents."""

    __slots__ = ("value", "parents", "vjps", "needs_grad")

    def __init__(self, value, parents=(), vjps=(), needs_grad=False):
        self.value = np.asarray(value)
        self.parents = parents
        self.vjps = vjps
        self.needs_grad = needs_grad


def constant(x) -> Node:
    return Node(np.asarray(x, dtype=np.float64))


def leaf(x) -> Node:
    return Node(np.asarray(x, dtype=np.float64), needs_grad=True)


def _op(value, *pairs) -> Node:
    live = tuple((p, f) for p, f in pairs if p.needs_grad)
    if not live:
        return Node(value)
    return Node(value, tuple(p for p, _ in live), tuple(f for _, f in live), True)


def add(a: Node, b: Node) -> Node:
    return _op(a.value + b.value, (a, lambda g: g), (b, lambda g: g))


def sub(a: Node, b: Node) -> Node:
    return _op(a.value - b.value, (a, lambda g: g), (b, lambda g: neg(g)))


def neg(a: Node) -> Node:
    return _op(-a.value, (a, lambda g: neg(g)))


def mul(a: Node, b: Node) -> Node:
    return _op(a.value * b.value, (a, lambda g: mul(g, b)), (b, lambda g: mul(g, a)))


def div(a: Node, b: Node) -> Node:
    return _op(
        a.value / b.value,
        (a, lambda g: div(g, b)),
        (b, lambda g: neg(div(mul(g, a), mul(b, b)))),
    )


def smul(a: Node, c: float) -> Node:
    return _op(a.value * c, (a, lambda g: smul(g, c)))


def sadd(a: Node, c: float) -> Node:
    return _op(a.value + c, (a, lambda g: g))


def matmul(a: Node, b: Node) -> Node:
    return _op(
        a.value @ b.value,
        (a, lambda g: matmul(g, transpose(b))),
        (b, lambda g: matmul(transpose(a), g)),
    )


def transpose(a: Node) -> Node:
    return _op(a.value.T, (a, lambda g: transpose(g)))


def relu(a: Node) -> Node:
    # Mask is detached: subgradient 0 at the kink, zero curvature a.e.
    mask = constant((a.value > 0.0).astype(np.float64))
    return _op(np.maximum(a.value, 0.0), (a, lambda g: mul(g, mask)))


def exp(a: Node) -> Node:
    # The vjp recomputes exp(a) rather than closing over the output node,
    # which would make every tape through exp a reference cycle.
    return _op(np.exp(a.value), (a, lambda g: mul(g, exp(a))))


def log(a: Node) -> Node:
    return _op(np.log(a.value), (a, lambda g: div(g, a)))


def asum(a: Node) -> Node:
    shape = a.value.shape
    return _op(np.sum(a.value), (a, lambda g: expand(g, shape)))


def mean(a: Node) -> Node:
    n = a.value.size
    shape = a.value.shape
    return _op(np.sum(a.value) / n, (a, lambda g: smul(expand(g, shape), 1.0 / n)))


def expand(s: Node, shape) -> Node:
    return _op(np.full(shape, float(s.value)), (s, lambda g: asum(g)))


def sum_rows(m: Node) -> Node:
    """Sum over axis 0: (n, k) -> (k,)."""
    nrows = m.value.shape[0]
    return _op(m.value.sum(axis=0), (m, lambda g: expand_rows(g, nrows)))


def sum_cols(m: Node) -> Node:
    """Sum over axis 1: (n, k) -> (n,)."""
    ncols = m.value.shape[1]
    return _op(m.value.sum(axis=1), (m, lambda g: expand_cols(g, ncols)))


def expand_rows(v: Node, nrows: int) -> Node:
    """(k,) -> (nrows, k) by row repetition."""
    return _op(np.tile(v.value, (nrows, 1)), (v, lambda g: sum_rows(g)))


def expand_cols(v: Node, ncols: int) -> Node:
    """(n,) -> (n, ncols) by column repetition."""
    return _op(np.repeat(v.value[:, None], ncols, axis=1), (v, lambda g: sum_cols(g)))


def reshape(a: Node, shape) -> Node:
    old = a.value.shape
    return _op(a.value.reshape(shape), (a, lambda g: reshape(g, old)))


def slice1d(v: Node, start: int, stop: int) -> Node:
    n = v.value.shape[0]
    return _op(v.value[start:stop], (v, lambda g: pad1d(g, start, n)))


def pad1d(v: Node, start: int, total: int) -> Node:
    k = v.value.shape[0]
    out = np.zeros(total)
    out[start : start + k] = v.value
    return _op(out, (v, lambda g: slice1d(g, start, start + k)))


def slice_rows(m: Node, start: int, stop: int) -> Node:
    n = m.value.shape[0]
    return _op(m.value[start:stop], (m, lambda g: pad_rows(g, start, n)))


def pad_rows(m: Node, start: int, total: int) -> Node:
    k = m.value.shape[0]
    out = np.zeros((total, m.value.shape[1]))
    out[start : start + k] = m.value
    return _op(out, (m, lambda g: slice_rows(g, start, start + k)))


def add_rowvec(m: Node, v: Node) -> Node:
    return add(m, expand_rows(v, m.value.shape[0]))


def log_softmax(logits: Node) -> Node:
    """Row-wise log softmax; the per-row max shift is detached."""
    k = logits.value.shape[1]
    shift = constant(logits.value.max(axis=1))
    centered = sub(logits, expand_cols(shift, k))
    lse = log(sum_cols(exp(centered)))
    return sub(centered, expand_cols(lse, k))


# ---------------------------------------------------------------------------
# backward pass (graph-building, so it is differentiable again)
# ---------------------------------------------------------------------------


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        nid = id(node)
        if nid in seen or not node.needs_grad:
            continue
        seen.add(nid)
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order  # parents before consumers


def backward(out: Node, wrt: Sequence[Node]) -> list[Node]:
    """Gradients of a scalar node w.r.t. each node in wrt, as tape nodes."""
    if out.value.shape != ():
        raise ContractError(f"backward needs a scalar output, got shape {out.value.shape}")
    if not out.needs_grad:
        return [constant(np.zeros_like(w.value)) for w in wrt]
    grads: dict[int, Node] = {id(out): constant(np.float64(1.0))}
    for node in reversed(_toposort(out)):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contrib = vjp(g)
            prev = grads.get(id(parent))
            grads[id(parent)] = contrib if prev is None else add(prev, contrib)
    return [grads.get(id(w)) or constant(np.zeros_like(w.value)) for w in wrt]


# ---------------------------------------------------------------------------
# loss-level API
# ---------------------------------------------------------------------------


class Linearization(Protocol):
    """A loss evaluated once at one parameter vector: its value, its
    gradient, and exact Hessian-vector products at that vector that reuse
    the evaluation.  Every array it returns is a newly allocated 1-D
    float64 array that it does not modify later."""

    value: float
    grad: np.ndarray

    def hvp(self, v: np.ndarray) -> np.ndarray: ...


class Loss(Protocol):
    """A scalar loss of a flat float64 parameter array and a batch.  It must
    be pure: identical (theta, batch) give identical results."""

    name: str

    def value(self, theta: np.ndarray, batch) -> float: ...

    def linearize(self, theta: np.ndarray, batch) -> Linearization: ...


@dataclass(frozen=True)
class Point:
    """A loss linearized at one parameter vector, its value and gradient
    checked finite; hvp(point, v) takes Hessian-vector products there."""

    value: float
    grad: ParamVector
    linear: Linearization
    name: str


def _check_loss(f: Loss, val: float) -> float:
    if not np.isfinite(val):
        raise NumericError(f"non-finite loss ({val}) in {f.name}")
    return val


def loss_value(f: Loss, theta: ParamVector, batch) -> float:
    """Evaluate the loss only."""
    return _check_loss(f, f.value(theta.values, batch))


def linearize(f: Loss, theta: ParamVector, batch) -> Point:
    """The loss, its gradient and its Hessian-vector products at theta, from
    one evaluation."""
    lin = f.linearize(theta.values, batch)
    _check_loss(f, lin.value)
    if not np.isfinite(lin.grad).all():
        raise NumericError(f"non-finite gradient in {f.name}")
    return Point(lin.value, ParamVector._fresh(lin.grad, check=False), lin, f.name)


def value_and_grad(f: Loss, theta: ParamVector, batch) -> tuple[float, ParamVector]:
    point = linearize(f, theta, batch)
    return point.value, point.grad


def hvp(point: Point, v: ParamVector) -> ParamVector:
    """Exact Hessian-vector product H @ v at the point."""
    if len(v) != len(point.grad):
        raise ContractError(f"hvp direction length {len(v)} != parameter length {len(point.grad)}")
    h = point.linear.hvp(v.values)
    if not np.isfinite(h).all():
        raise NumericError(f"non-finite hvp in {point.name}")
    return ParamVector._fresh(h, check=False)


# ---------------------------------------------------------------------------
# inner adaptation and meta-gradients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptTrace:
    """Record of plain gradient-descent steps at one fixed rate.

    points[j] holds the parameters before step j (points[0] is the start),
    and final is the last point minus rate times its gradient; a trace with
    no steps has no points.  linearized[j] is the inner loss linearized at
    points[j], kept (when adapting with keep) for meta_grad's
    Hessian-vector products.
    """

    points: tuple[ParamVector, ...]
    rate: float
    final: ParamVector
    linearized: tuple[Point, ...] = ()
    losses: tuple[float, ...] = ()  # loss before each step, then at final
    diverged: bool = False


def identity_trace(theta: ParamVector) -> AdaptTrace:
    """Zero-step trace: adaptation that leaves parameters untouched."""
    return AdaptTrace(points=(), rate=0.0, final=theta)


_DIVERGENCE_FACTOR = 10.0


def inner_adapt(
    f: Loss,
    theta: ParamVector,
    rate: float,
    batch,
    steps: int,
    keep: bool = True,
) -> AdaptTrace:
    """`steps` full-batch gradient-descent steps at fixed rate.

    Each step linearizes the loss once; with keep the trace holds those
    linearizations for meta_grad, and without it (adaptation that is never
    differentiated) it holds none, and each step's linearization is dropped
    before the next is made.  rate == 0 is allowed and returns theta
    bitwise unchanged.  If the loss grows by more than 10x over the trace
    the result is flagged as diverged (never clipped); training code
    surfaces the flag in metrics.
    """
    if steps < 1:
        raise ContractError(f"inner_adapt needs steps >= 1, got {steps}")
    if rate < 0:
        raise ContractError(f"inner_adapt needs rate >= 0, got {rate}")
    p = theta
    points: list[ParamVector] = []
    kept: list[Point] = []
    losses: list[float] = []
    for _ in range(steps):
        point = linearize(f, p, batch)
        losses.append(point.value)
        points.append(p)
        if keep:
            kept.append(point)
        p = p.minus_scaled(point.grad, rate)
        del point  # without keep, nothing else holds it
    final_loss = loss_value(f, p, batch)
    losses.append(final_loss)
    floor = max(abs(losses[0]), 1e-300)
    diverged = any(l > _DIVERGENCE_FACTOR * floor for l in losses[1:])
    return AdaptTrace(
        points=tuple(points),
        rate=rate,
        final=p,
        linearized=tuple(kept),
        losses=tuple(losses),
        diverged=diverged,
    )


def meta_grad(trace: AdaptTrace, g_outer: ParamVector, mode: str = "exact") -> ParamVector:
    """Gradient of the outer loss w.r.t. the trace's initial parameters.

    Exact mode backpropagates g_outer through every inner step:
    v <- v - rate * H(theta_j) v, visited in reverse step order, where
    H(theta_j) comes from the inner loss linearized at the parameters before
    step j (trace.linearized).  First-order mode, a trace with no steps and
    a zero rate return g_outer unchanged.
    """
    if mode not in ("exact", "first_order"):
        raise ContractError(f"unknown meta_grad mode {mode!r}")
    if len(g_outer) != len(trace.final):
        raise ContractError(
            f"outer gradient length {len(g_outer)} != parameter length {len(trace.final)}"
        )
    if mode == "first_order" or not trace.points or trace.rate == 0.0:
        return g_outer
    if len(trace.linearized) != len(trace.points):
        raise ContractError("meta_grad exact mode needs a trace adapted with keep")
    v = g_outer
    for point in reversed(trace.linearized):
        v = v.minus_scaled(hvp(point, v), trace.rate)
    return v
