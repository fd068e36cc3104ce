"""The reverse-mode operation tape, and on it the references of the
closed-form losses in dmil.kernels.

The tape's entries are dmil.autodiff.Node; the ops below build them, dense
matmul plus elementwise ops, enough for fully-connected networks.  Their
backward passes are built out of tape ops, so differentiating one again
gives exact reverse-over-reverse Hessian-vector products.  ReLU uses
subgradient 0 at the kink and contributes nothing to second derivatives,
the usual almost-everywhere convention; finite-difference checks must stay
away from kinks.

TapeLoss adapts a function written on the tape to the Loss protocol: it
builds the tape of one evaluation and of its backward pass once per point,
and hvp differentiates the latter again (reverse-over-reverse).  mlp_logits
is the MLP forward pass on the tape, and tape_high_loss/tape_skill_loss
define SelectorLoss and SkillMseLoss with it.  No production path uses
these; the tests compare the closed forms against them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from dmil.autodiff import ContractError, Node
from dmil.dmil import Pool
from dmil.kernels import SelectorLoss, SkillMseLoss, check_input
from dmil.policies import MlpShape

# ---------------------------------------------------------------------------
# tape operations
# ---------------------------------------------------------------------------


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


# A tape function maps (params node, batch) -> scalar node.
TapeFn = Callable[[Node, object], Node]


class TapeLoss:
    """A loss written as a tape function, differentiated by the tape: the
    reference that the closed-form losses in dmil.kernels are tested against
    (hvp is reverse-over-reverse on the tape built once per point)."""

    def __init__(self, fn: TapeFn, name: str | None = None):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "loss")

    def value(self, theta: np.ndarray, batch) -> float:
        return float(self.fn(constant(theta), batch).value)

    def value_and_grad(self, theta: np.ndarray, batch) -> tuple[float, np.ndarray]:
        point = _TapePoint(self.fn, theta, batch)
        return point.value, point.grad

    def linearize(self, theta: np.ndarray, batch) -> "_TapePoint":
        return _TapePoint(self.fn, theta, batch)


class _TapePoint:
    """The tape of one loss evaluation and of its backward pass.  Tape
    values may alias each other or the input, so results are copies."""

    def __init__(self, fn: TapeFn, theta: np.ndarray, batch):
        self._p = leaf(theta)
        out = fn(self._p, batch)
        self._g = backward(out, [self._p])[0]
        self.value = float(out.value)
        self.grad = self._g.value.copy()

    def hvp(self, v: np.ndarray) -> np.ndarray:
        return backward(asum(mul(self._g, constant(v))), [self._p])[0].value.copy()


def mlp_logits(p: Node, shape: MlpShape, x) -> Node:
    """Tape forward pass: (N, in) -> (N, out) from the flat parameter node."""
    h = x if isinstance(x, Node) else constant(x)
    check_input(h.value, shape.in_dim)
    sizes = shape.layer_sizes
    offset = 0
    last = len(sizes) - 2
    for i in range(len(sizes) - 1):
        nin, nout = sizes[i], sizes[i + 1]
        w = reshape(slice1d(p, offset, offset + nin * nout), (nin, nout))
        offset += nin * nout
        b = slice1d(p, offset, offset + nout)
        offset += nout
        z = add_rowvec(matmul(h, w), b)
        h = relu(z) if i < last else z
    return h


def tape_high_loss(shape: MlpShape, aux_weight: float) -> TapeLoss:
    """SelectorLoss on the tape: the reference for the closed form.  The
    batch is a Pool whose actions are the one-hot labels."""

    def selector_loss(p: Node, batch: Pool) -> Node:
        logits = mlp_logits(p, shape, batch.states)
        logp = log_softmax(logits)
        ce = neg(mean(sum_cols(mul(logp, constant(batch.actions)))))
        if aux_weight == 0.0:
            return ce
        probs = exp(logp)
        total_dot = None
        pairs = 0
        for start, stop in batch.slices:
            if stop - start < 2:
                continue
            d = asum(
                mul(slice_rows(probs, start, stop - 1), slice_rows(probs, start + 1, stop))
            )
            total_dot = d if total_dot is None else add(total_dot, d)
            pairs += stop - start - 1
        if total_dot is None:
            return ce
        aux = sadd(smul(total_dot, -1.0 / pairs), 1.0)
        return add(ce, smul(aux, aux_weight))

    return TapeLoss(selector_loss, SelectorLoss.name)


def tape_skill_loss(shape: MlpShape) -> TapeLoss:
    """SkillMseLoss on the tape: the reference for the closed form."""

    def skill_mse_loss(p: Node, batch: Pool) -> Node:
        pred = mlp_logits(p, shape, batch.states)
        r = sub(pred, constant(batch.actions))
        return smul(asum(mul(r, r)), 1.0 / batch.states.shape[0])

    return TapeLoss(skill_mse_loss, SkillMseLoss.name)
