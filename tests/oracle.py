"""The tape references of the closed-form losses in dmil.kernels.

TapeLoss adapts a function written on the operation tape of dmil.autodiff
to the Loss protocol: it builds the tape of one evaluation and of its
backward pass once per point, and hvp differentiates the latter again
(reverse-over-reverse).  mlp_logits is the MLP forward pass on the tape, and
tape_high_loss/tape_skill_loss define SelectorLoss and SkillMseLoss with it.
No production path uses these; the tests compare the closed forms against
them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from dmil import autodiff as ad
from dmil.autodiff import Node, asum, backward, constant, leaf, mul
from dmil.dmil import HighBatch, Pool
from dmil.kernels import SelectorLoss, SkillMseLoss, check_input
from dmil.policies import MlpShape

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
    h = x if isinstance(x, Node) else ad.constant(x)
    check_input(h.value, shape.in_dim)
    sizes = shape.layer_sizes
    offset = 0
    last = len(sizes) - 2
    for i in range(len(sizes) - 1):
        nin, nout = sizes[i], sizes[i + 1]
        w = ad.reshape(ad.slice1d(p, offset, offset + nin * nout), (nin, nout))
        offset += nin * nout
        b = ad.slice1d(p, offset, offset + nout)
        offset += nout
        z = ad.add_rowvec(ad.matmul(h, w), b)
        h = ad.relu(z) if i < last else z
    return h


def tape_high_loss(shape: MlpShape) -> TapeLoss:
    """SelectorLoss on the tape: the reference for the closed form."""

    def selector_loss(p: ad.Node, batch: HighBatch) -> ad.Node:
        logits = mlp_logits(p, shape, batch.states)
        logp = ad.log_softmax(logits)
        ce = ad.neg(ad.mean(ad.sum_cols(ad.mul(logp, ad.constant(batch.onehot)))))
        if batch.aux_weight == 0.0:
            return ce
        probs = ad.exp(logp)
        total_dot = None
        pairs = 0
        for start, stop in batch.slices:
            if stop - start < 2:
                continue
            d = ad.asum(
                ad.mul(ad.slice_rows(probs, start, stop - 1), ad.slice_rows(probs, start + 1, stop))
            )
            total_dot = d if total_dot is None else ad.add(total_dot, d)
            pairs += stop - start - 1
        if total_dot is None:
            return ce
        aux = ad.sadd(ad.smul(total_dot, -1.0 / pairs), 1.0)
        return ad.add(ce, ad.smul(aux, batch.aux_weight))

    return TapeLoss(selector_loss, SelectorLoss.name)


def tape_skill_loss(shape: MlpShape) -> TapeLoss:
    """SkillMseLoss on the tape: the reference for the closed form."""

    def skill_mse_loss(p: ad.Node, batch: Pool) -> ad.Node:
        pred = mlp_logits(p, shape, batch.states)
        r = ad.sub(pred, ad.constant(batch.actions))
        return ad.smul(ad.asum(ad.mul(r, r)), 1.0 / batch.states.shape[0])

    return TapeLoss(skill_mse_loss, SkillMseLoss.name)
