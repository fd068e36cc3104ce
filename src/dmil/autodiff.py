"""Differentiation over flat parameter vectors.

A loss is any object with value, value_and_grad and linearize on float64
arrays (the Loss protocol): value_and_grad evaluates the loss and its
gradient at a parameter vector, and linearize does the same but returns
them with Hessian-vector products at that vector (a Linearization), which
keeps what those products reuse.  loss_value, value_and_grad, linearize and
hvp wrap those methods and check that every loss, gradient and
Hessian-vector product is finite.  The training losses are closed-form
(dmil.kernels).  The small operation tape below is only their test
reference: tests/oracle.py writes the same losses on it and adapts them to
the Loss protocol, and no training, evaluation or gradcheck path builds a
tape.  The tape covers dense matmul plus elementwise ops, enough for
fully-connected networks; its backward passes are built out of tape ops,
so differentiating one again gives exact reverse-over-reverse
Hessian-vector products.

inner_adapt records plain gradient-descent steps and, with keep, each
step's linearization, and meta_grad backpropagates an outer gradient
through them (the (I - rate * H) chain, applied in reverse step order)
without evaluating the inner loss again.

All of them also act on a stack of m problems at once, as the kernels do:
a ParamVector may hold an (m, n_params) stack of vectors, a stacked batch
then gives an (m,) loss, and each slice is bitwise its unstacked problem.
Finiteness is checked per slice (a NumericError names the first slice that
failed) and inner_adapt flags divergence per slice.

Everything is float64.  ReLU uses subgradient 0 at the kink and contributes
nothing to second derivatives, which is the usual almost-everywhere
convention; finite-difference checks must stay away from kinks.
"""

from __future__ import annotations

import math
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np


class NumericError(RuntimeError):
    """A computation produced a non-finite value.  Beside the message, it
    carries as fields what the code it passed through knew, each None when
    unknown: in a stack, `slice` is the index of the first slice that
    failed; `phase` is the training phase as the message names it
    ("selector inner", "sub-skill 2 outer"), `task_seed` the seed of the
    task it ran on, and `method` and `iteration` the training run's method
    and outer iteration."""

    FIELDS = ("slice", "task_seed", "phase", "method", "iteration")

    def __init__(
        self,
        message: str,
        slice: int | None = None,
        *,
        task_seed: int | None = None,
        phase: str | None = None,
        method: str | None = None,
        iteration: int | None = None,
    ):
        super().__init__(message)
        self.slice, self.task_seed, self.phase, self.method, self.iteration = slice, task_seed, phase, method, iteration

    def prefixed(self, prefix: str, **fields) -> NumericError:
        """This error with `prefix` before its message, and each of
        `fields` (FIELDS by name) that it leaves None."""
        known = {name: getattr(self, name) for name in self.FIELDS}
        return NumericError(prefix + str(self), **{name: fields.get(name) if v is None else v for name, v in known.items()})


class error_prefix(AbstractContextManager):
    """A context that prefixes a NumericError raised inside with `prefix`
    and gives it the stack slice `slice` and the other `fields`
    (NumericError's keywords) where it names none."""

    def __init__(self, prefix: str, slice: int | None = None, **fields):
        self.prefix, self.fields = prefix, dict(fields, slice=slice)

    def __exit__(self, kind, e, traceback) -> None:
        if isinstance(e, NumericError):
            raise e.prefixed(self.prefix, **self.fields) from e


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


# ---------------------------------------------------------------------------
# parameter vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamVector:
    """Immutable flat float64 parameter vector; the unit of differentiation.
    It may also hold an (m, n_params) stack of vectors, one per slice of a
    stacked problem; len() is the vector length either way.

    The constructor copies and checks its input.  Arithmetic, and the
    checked results of the loss-level API below, wrap arrays they have just
    allocated (_fresh) without a copy."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim not in (1, 2):
            raise ContractError(f"ParamVector must be 1-D or a 2-D stack, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise _non_finite(v, 1, "ParamVector entries must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _fresh(cls, v: np.ndarray, check: bool = True) -> "ParamVector":
        """Wrap a newly allocated 1-D float64 array that nothing else holds,
        checking it is finite unless the caller already has."""
        if check and not np.isfinite(v).all():
            raise _non_finite(v, 1, "ParamVector entries must be finite")
        v.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "values", v)
        return out

    def __len__(self) -> int:
        return self.values.shape[-1]

    def minus_scaled(self, g: "ParamVector", rate: float) -> "ParamVector":
        """theta - rate * g, the one arithmetic form of every descent step."""
        if len(g) != len(self):
            raise ContractError(f"length mismatch: {len(self)} vs {len(g)}")
        return ParamVector._fresh(self.values - rate * g.values)

    @staticmethod
    def zeros(shape: int | tuple[int, ...]) -> "ParamVector":
        return ParamVector._fresh(np.zeros(shape), check=False)


def _non_finite(x, ndim: int, what: str) -> NumericError:
    """The NumericError `what` for an x with a non-finite entry, which it
    shows.  x has `ndim` axes unstacked and one more as a stack, whose
    error also names the first slice that failed."""
    x = np.asarray(x)
    finite = np.isfinite(x)
    if x.ndim == ndim:
        return NumericError(f"{what} ({x[~finite][0]})")
    i = int(np.argmin(finite.reshape(len(x), -1).all(axis=1)))
    return NumericError(f"{what} ({x[i][~finite[i]][0]}), stack slice {i}", i)


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
    be pure: identical (theta, batch) give identical results, and
    value_and_grad gives bitwise linearize's value and gradient, holding
    nothing for Hessian-vector products."""

    name: str

    def value(self, theta: np.ndarray, batch) -> float: ...

    def value_and_grad(self, theta: np.ndarray, batch) -> tuple[float, np.ndarray]: ...

    def linearize(self, theta: np.ndarray, batch) -> Linearization: ...


@dataclass(frozen=True)
class Point:
    """A loss linearized at one parameter vector, its value and gradient
    checked finite; hvp(point, v) takes Hessian-vector products there.  On a
    stacked batch the value is an (m,) array and the gradient a stack."""

    value: float | np.ndarray
    grad: ParamVector
    linear: Linearization
    name: str


def _check_loss(f: Loss, val):
    # An unstacked loss is a float, which math checks far faster than numpy.
    if not (math.isfinite(val) if isinstance(val, float) else np.isfinite(val).all()):
        raise _non_finite(val, 0, f"non-finite loss in {f.name}")
    return val


def loss_value(f: Loss, theta: ParamVector, batch) -> float | np.ndarray:
    """Evaluate the loss only."""
    return _check_loss(f, f.value(theta.values, batch))


def _checked_grad(f: Loss, val, grad: np.ndarray) -> ParamVector:
    _check_loss(f, val)
    if not np.isfinite(grad).all():
        raise _non_finite(grad, 1, f"non-finite gradient in {f.name}")
    return ParamVector._fresh(grad, check=False)


def linearize(f: Loss, theta: ParamVector, batch) -> Point:
    """The loss, its gradient and its Hessian-vector products at theta, from
    one evaluation."""
    lin = f.linearize(theta.values, batch)
    return Point(lin.value, _checked_grad(f, lin.value, lin.grad), lin, f.name)


def value_and_grad(f: Loss, theta: ParamVector, batch) -> tuple[float | np.ndarray, ParamVector]:
    """The loss and its gradient at theta: linearize's, bitwise, from a pass
    that keeps nothing for Hessian-vector products (the closed-form losses
    free each activation once their backward pass has read it)."""
    val, grad = f.value_and_grad(theta.values, batch)
    return val, _checked_grad(f, val, grad)


def hvp(point: Point, v: ParamVector) -> ParamVector:
    """Exact Hessian-vector product H @ v at the point."""
    if len(v) != len(point.grad):
        raise ContractError(f"hvp direction length {len(v)} != parameter length {len(point.grad)}")
    h = point.linear.hvp(v.values)
    if not np.isfinite(h).all():
        raise _non_finite(h, 1, f"non-finite hvp in {point.name}")
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
    Hessian-vector products.  loss is the network's loss, descended on
    batch (None for a trace with no steps) and taken at final by the outer
    step.  On a stacked batch every point after the start, and final, is a
    stack, each loss an (m,) array and diverged an (m,) bool array, one
    entry per slice."""

    points: tuple[ParamVector, ...]
    rate: float
    final: ParamVector
    loss: Loss
    linearized: tuple[Point, ...] = ()
    losses: tuple = ()  # loss before each step, then at final
    diverged: bool | np.ndarray = False
    batch: object = None


def identity_trace(theta: ParamVector, loss: Loss) -> AdaptTrace:
    """Zero-step trace of a network with this loss: theta untouched."""
    return AdaptTrace(points=(), rate=0.0, final=theta, loss=loss)


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

    With keep, each step linearizes the loss once and the trace holds those
    linearizations for meta_grad's Hessian-vector products.  Without it
    (adaptation that is never differentiated) each step takes
    value_and_grad, which keeps no activations, and the trace holds no
    linearization; the steps are bitwise the same either way.  rate == 0 is
    allowed and returns theta bitwise unchanged.  If the loss grows by more than 10x over the trace
    the result is flagged as diverged (never clipped), slice by slice on a
    stacked batch; training code surfaces the flag in metrics.  A stacked
    batch may start from one vector shared by every slice.
    """
    if steps < 1:
        raise ContractError(f"inner_adapt needs steps >= 1, got {steps}")
    if rate < 0:
        raise ContractError(f"inner_adapt needs rate >= 0, got {rate}")
    p = theta
    points: list[ParamVector] = []
    kept: list[Point] = []
    losses: list = []
    for _ in range(steps):
        if keep:
            kept.append(linearize(f, p, batch))
            val, g = kept[-1].value, kept[-1].grad
        else:
            val, g = value_and_grad(f, p, batch)
        losses.append(val)
        points.append(p)
        p = p.minus_scaled(g, rate)
    final_loss = loss_value(f, p, batch)
    losses.append(final_loss)
    floor = np.maximum(np.abs(losses[0]), 1e-300)
    diverged = (np.array(losses[1:]) > _DIVERGENCE_FACTOR * floor).any(axis=0)
    return AdaptTrace(
        points=tuple(points),
        rate=rate,
        final=p,
        linearized=tuple(kept),
        losses=tuple(losses),
        diverged=diverged if diverged.ndim else bool(diverged),
        loss=f,
        batch=batch,
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
