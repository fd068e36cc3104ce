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

These are the losses of the training hot path; autodiff.TapeLoss over the
tape closures in dmil (tape_high_loss, tape_skill_loss) is their reference.
Every method takes and returns float64 arrays; finiteness is checked by the
callers in autodiff.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ContractError


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
    """Flat gradient from g = dL/dy, in the parameter layout."""
    parts = []
    for i in range(len(layers) - 1, -1, -1):
        parts += [g.sum(axis=0), (hs[i].T @ g).ravel()]
        if i:
            g = g @ layers[i][0].T
            g *= hs[i] > 0.0
    return np.concatenate(parts[::-1])


def r_forward(layers, vlayers, hs) -> list:
    """R{h} for every entry of forward()'s list; None for the constant input."""
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
            g = g @ w.T
            g *= mask
    return np.concatenate(parts[::-1])


class _MlpLoss:
    """A loss of the network output; subclasses give _head(y, batch, ry),
    which returns the value, dL/dy and, when ry = R{y} is given, R{dL/dy}."""

    def __init__(self, shape):
        self.sizes = shape.layer_sizes
        self.n_params = shape.n_params

    def _forward(self, theta: np.ndarray, batch):
        if theta.shape != (self.n_params,):
            raise ContractError(f"parameter length {theta.shape} != shape size {self.n_params}")
        x = batch.states
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ContractError(f"input shape {x.shape} does not match network input {self.sizes[0]}")
        layers = unpack(theta, self.sizes)
        return layers, forward(layers, x)

    def value(self, theta: np.ndarray, batch) -> float:
        _, hs = self._forward(theta, batch)
        return self._head(hs[-1], batch)[0]

    def value_and_grad(self, theta: np.ndarray, batch) -> tuple[float, np.ndarray]:
        layers, hs = self._forward(theta, batch)
        val, g, _ = self._head(hs[-1], batch)
        return val, backward(layers, hs, g)

    def hvp(self, theta: np.ndarray, v: np.ndarray, batch) -> tuple[float, np.ndarray]:
        """The loss at theta and the Hessian-vector product H v."""
        layers, hs = self._forward(theta, batch)
        vlayers = unpack(v, self.sizes)
        rhs = r_forward(layers, vlayers, hs)
        val, g, rg = self._head(hs[-1], batch, rhs[-1])
        return val, r_backward(layers, vlayers, hs, rhs, g, rg)


class SkillMseLoss(_MlpLoss):
    """Behavior-cloning MSE: mean over pairs of squared action error."""

    name = "sub-skill MSE"

    def _head(self, y, batch, ry=None):
        r = y - batch.actions
        n = batch.states.shape[0]
        val = float(np.sum(r * r) * (1.0 / n))
        c = 2.0 / n
        return val, r * c, None if ry is None else ry * c


class SelectorLoss(_MlpLoss):
    """Mean cross-entropy vs hard labels plus aux_weight * switch surrogate,
    1 - (1/pairs) sum <p_t, p_t+1> over adjacent rows within each
    trajectory slice (the surrogate is dropped when the weight is 0 or no
    slice has two rows)."""

    name = "selector cross-entropy"

    def _head(self, y, batch, ry=None):
        n = y.shape[0]
        shifted = y - y.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
        p = np.exp(logp)
        val = -(np.sum(np.sum(logp * batch.onehot, axis=1)) / n)
        g_logp = batch.onehot * (-1.0 / n)  # dL/dlogp
        w = batch.aux_weight
        pairs = _pair_mask(batch.slices, n)
        n_pairs = np.sum(pairs)
        switch = w != 0.0 and n_pairs > 0
        if switch:
            dots = np.sum(pairs * np.sum(p[:-1] * p[1:], axis=1))
            val = val + (dots * (-1.0 / n_pairs) + 1.0) * w
            c = -w / n_pairs
            q = _neighbour_sum(p, pairs) * c  # dL/dp of the switch term
            g_logp = g_logp + p * q
        s = np.sum(g_logp, axis=1, keepdims=True)
        g = g_logp - p * s
        if ry is None:
            return float(val), g, None

        rp = p * (ry - np.sum(p * ry, axis=1, keepdims=True))  # R{p}
        if not switch:
            return float(val), g, -rp * s
        rg_logp = rp * q + p * (_neighbour_sum(rp, pairs) * c)
        rg = rg_logp - rp * s - p * np.sum(rg_logp, axis=1, keepdims=True)
        return float(val), g, rg


def _pair_mask(slices, n: int) -> np.ndarray:
    """1.0 at row t when rows t and t+1 lie in the same slice."""
    m = np.zeros(max(n - 1, 0))
    for start, stop in slices:
        if stop - start >= 2:
            m[start : stop - 1] = 1.0
    return m


def _neighbour_sum(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Row t gets x[t-1] and x[t+1] for each pair it belongs to."""
    out = np.zeros_like(x)
    out[:-1] += pairs[:, None] * x[1:]
    out[1:] += pairs[:, None] * x[:-1]
    return out
