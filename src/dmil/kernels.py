"""Closed-form value, gradient and Hessian-vector product of the two
training losses on ReLU MLPs over flat parameter vectors.

Both losses are functions of the network output y: the sub-skill MSE
(SkillMseLoss) and the selector cross-entropy plus switch term
(SelectorLoss).  The gradient is the usual backward pass from dL/dy.  The
HVP is Pearlmutter's R-operator (Pearlmutter 1994, "Fast exact
multiplication by the Hessian"): with R{.} the derivative along v, a forward
pass carries R{h} through the layers, the loss maps R{y} to R{dL/dy}, and a
backward pass carries R{dL/dz} next to dL/dz; the parameter entries of
R{gradient} are H v.  ReLU masks are constant, as on the tape (zero
curvature almost everywhere).

linearize runs the forward pass, the loss head and the backward pass once and
returns an MlpPoint, which keeps the forward activations and the head's
context; each hvp at that point then runs only the R-passes.

These are the only losses the package differentiates; the test suite checks
them against the same losses written on the autodiff tape (tests/oracle.py).
Every method takes and returns float64 arrays; finiteness is checked by the
callers in autodiff.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import ContractError


def check_input(x, in_dim: int) -> np.ndarray:
    """x as a float64 array; ContractError unless it is (N, in_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ContractError(f"input shape {x.shape} does not match network input {in_dim}")
    return x


def unpack(p: np.ndarray, sizes: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views of each layer in the flat vector [W0, b0, W1, b1, ...]."""
    layers = []
    offset = 0
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        w = p[offset : offset + nin * nout].reshape(nin, nout)
        offset += nin * nout
        layers.append((w, p[offset : offset + nout]))
        offset += nout
    return layers


def forward(layers, x: np.ndarray) -> list[np.ndarray]:
    """Layer inputs and output [h0 = x, h1, ..., y]: ReLU on hidden layers,
    linear output."""
    hs = [x]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = hs[-1] @ w
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        hs.append(z)
    return hs


def backward(layers, hs, g: np.ndarray) -> np.ndarray:
    """Flat gradient from g = dL/dy, in the parameter layout; reads the
    layer inputs hs[:len(layers)] of forward()'s list."""
    parts = []
    for i in range(len(layers) - 1, -1, -1):
        parts += [g.sum(axis=0), (hs[i].T @ g).ravel()]
        if i:
            g = g @ layers[i][0].T
            g *= hs[i] > 0.0
    return np.concatenate(parts[::-1])


def r_forward(layers, vlayers, hs) -> list:
    """R{h} for every entry of forward()'s list; None for the constant input.
    Like backward, reads the layer inputs only."""
    rhs = [None]
    last = len(layers) - 1
    for i, ((w, _), (vw, vb)) in enumerate(zip(layers, vlayers)):
        rz = hs[i] @ vw
        rz += vb
        if rhs[i] is not None:
            rz += rhs[i] @ w
        if i < last:
            rz *= hs[i + 1] > 0.0
        rhs.append(rz)
    return rhs


def r_backward(layers, vlayers, hs, rhs, g: np.ndarray, rg: np.ndarray) -> np.ndarray:
    """Flat H v from g = dL/dy and rg = R{dL/dy}, in the parameter layout."""
    parts = []
    for i in range(len(layers) - 1, -1, -1):
        rgw = hs[i].T @ rg
        if rhs[i] is not None:
            rgw += rhs[i].T @ g
        parts += [rg.sum(axis=0), rgw.ravel()]
        if i:
            w, vw = layers[i][0], vlayers[i][0]
            mask = hs[i] > 0.0
            rg = rg @ w.T
            rg += g @ vw.T
            rg *= mask
            if rhs[i - 1] is not None:  # the input layer's R{gradient} needs no dL/dz
                g = g @ w.T
                g *= mask
    return np.concatenate(parts[::-1])


class _MlpLoss:
    """A loss of the network output.  Subclasses give _head(y, batch), which
    returns the value, g = dL/dy and the context that _r_head(ctx, ry) needs
    to map ry = R{y} to R{dL/dy}."""

    def __init__(self, shape):
        self.sizes = shape.layer_sizes
        self.n_params = shape.n_params

    def _forward(self, theta: np.ndarray, batch):
        if theta.shape != (self.n_params,):
            raise ContractError(f"parameter length {theta.shape} != shape size {self.n_params}")
        x = check_input(batch.states, self.sizes[0])
        layers = unpack(theta, self.sizes)
        return layers, forward(layers, x)

    def value(self, theta: np.ndarray, batch) -> float:
        _, hs = self._forward(theta, batch)
        return self._head(hs[-1], batch)[0]

    def linearize(self, theta: np.ndarray, batch) -> "MlpPoint":
        layers, hs = self._forward(theta, batch)
        val, g, ctx = self._head(hs.pop(), batch)  # no pass reads the output again
        return MlpPoint(self, layers, hs, g, ctx, val, backward(layers, hs, g))


class MlpPoint:
    """An _MlpLoss at one parameter vector: the value and gradient, and the
    layer inputs and loss-head context, which hvp reuses, so that an HVP
    runs only r_forward, the loss head's R-part and r_backward."""

    __slots__ = ("_loss", "_layers", "_hs", "_g", "_ctx", "value", "grad")

    def __init__(self, loss: _MlpLoss, layers, hs, g, ctx, value: float, grad: np.ndarray):
        self._loss, self._layers, self._hs, self._g, self._ctx = loss, layers, hs, g, ctx
        self.value, self.grad = value, grad

    def hvp(self, v: np.ndarray) -> np.ndarray:
        """H v at this point."""
        vlayers = unpack(v, self._loss.sizes)
        rhs = r_forward(self._layers, vlayers, self._hs)
        rg = self._loss._r_head(self._ctx, rhs[-1])
        return r_backward(self._layers, vlayers, self._hs, rhs, self._g, rg)


class SkillMseLoss(_MlpLoss):
    """Behavior-cloning MSE: mean over pairs of squared action error."""

    name = "sub-skill MSE"

    def _head(self, y, batch):
        r = y - batch.actions
        n = batch.states.shape[0]
        val = float((r * r).sum() * (1.0 / n))
        c = 2.0 / n
        return val, r * c, c

    def _r_head(self, c, ry):
        return ry * c


class SelectorLoss(_MlpLoss):
    """Mean cross-entropy vs hard labels plus aux_weight * switch surrogate,
    1 - (1/pairs) sum <p_t, p_t+1> over adjacent rows within each
    trajectory slice (the surrogate is dropped when the weight is 0 or no
    slice has two rows).  The batch (dmil.HighBatch) carries the pair mask,
    the pair count and dL/dlogp of the cross-entropy."""

    name = "selector cross-entropy"

    def _head(self, y, batch):
        n = y.shape[0]
        shifted = y - _row_max(y)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        p = np.exp(logp)
        val = -((logp * batch.onehot).sum(axis=1).sum() / n)
        g_logp = batch.ce_grad  # dL/dlogp
        w = batch.aux_weight
        pairs, n_pairs = batch.pairs, batch.n_pairs
        q = c = None
        if w != 0.0 and n_pairs > 0:
            dots = (pairs * (p[:-1] * p[1:]).sum(axis=1)).sum()
            val = val + (dots * (-1.0 / n_pairs) + 1.0) * w
            c = -w / n_pairs
            q = _neighbour_sum(p, pairs) * c  # dL/dp of the switch term
            g_logp = g_logp + p * q
        s = g_logp.sum(axis=1, keepdims=True)
        g = g_logp - p * s
        return float(val), g, (p, s, q, pairs, c)

    def _r_head(self, ctx, ry):
        p, s, q, pairs, c = ctx
        rp = p * (ry - (p * ry).sum(axis=1, keepdims=True))  # R{p}
        if q is None:  # no switch term
            return -rp * s
        rg_logp = rp * q + p * (_neighbour_sum(rp, pairs) * c)
        return rg_logp - rp * s - p * rg_logp.sum(axis=1, keepdims=True)


def _row_max(y: np.ndarray) -> np.ndarray:
    """y.max(axis=1, keepdims=True) bit for bit, a column at a time: far faster on few columns."""
    return functools.reduce(np.maximum, (y[:, k : k + 1] for k in range(y.shape[1])))


def _neighbour_sum(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Row t gets x[t-1] and x[t+1] for each pair it belongs to."""
    out = np.zeros_like(x)
    out[:-1] += pairs[:, None] * x[1:]
    out[1:] += pairs[:, None] * x[:-1]
    return out
