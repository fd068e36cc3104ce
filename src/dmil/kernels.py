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

value_and_grad runs the forward pass, the loss head and the backward pass
once, and the backward pass frees each hidden activation as soon as it has
read it.  linearize runs the same passes but returns an MlpPoint, which keeps
the forward activations and the head's context; each hvp at that point then
runs only the R-passes.  Both give bitwise the same value and gradient.

Every pass takes an optional leading stack axis: an (m, N, in) batch (a
stacked dmil.Pool) against an (m, n_params) stack of parameter vectors, or
one vector shared by every slice, gives an (m,) value, an (m, n_params)
gradient and (m, n_params) HVPs.  The passes are written once, over the last
two axes (`.mT`, `sum(axis=-2)`, `concatenate(axis=-1)`), and an
(N, in) batch is the unstacked case of the same code.  numpy's matmul makes
one BLAS call per slice with the slice's own strides, and every reduction
runs along the same axis of each slice, so each slice is bitwise the
unstacked call on that slice's vector and batch.

These are the only losses the package differentiates; the test suite checks
them against the same losses written on the reverse-mode tape of
tests/oracle.py.
Every method takes and returns float64 arrays; finiteness is checked by the
callers in autodiff.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import ContractError


def check_input(x, in_dim: int, stack: tuple[int, ...] = ()) -> np.ndarray:
    """x as a float64 array; ContractError unless it is (N, in_dim) or an
    (m, N, in_dim) stack, whose leading shape is `stack` when one is given
    (that of a stack of parameter vectors)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != in_dim or (stack and x.shape[:-2] != stack):
        of = f" for a stack of {stack[0]}" if stack else ""
        raise ContractError(f"input shape {x.shape} does not match network input {in_dim}{of}")
    return x


def unpack(p: np.ndarray, sizes: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views of each layer in the flat vector [W0, b0, W1, b1, ...]:
    (in, out) and (out,); a stack of vectors (m, n_params) gives (m, in,
    out) and (m, 1, out) views, which broadcast over each slice's rows."""
    layers = []
    offset = 0
    lead = p.shape[:-1]
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        w = p[..., offset : offset + nin * nout].reshape(lead + (nin, nout))
        offset += nin * nout
        b = p[..., offset : offset + nout]
        layers.append((w, b[:, None] if lead else b))
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
    """Flat gradient from g = dL/dy, in the parameter layout.  Consumes the
    layer inputs hs[:len(layers)] of forward()'s list, as r_backward does
    rhs: each hidden activation is dropped once its ReLU mask is taken and
    before the next dL/dz is allocated.  A caller that keeps the
    activations passes a copy of the list."""
    parts = []
    flat = g.shape[:-2] + (-1,)  # each (in, out) matrix as a parameter-layout row
    for i in range(len(layers) - 1, -1, -1):
        parts += [g.sum(axis=-2), (hs[i].mT @ g).reshape(flat)]
        if i:
            mask = hs[i] > 0.0
            hs[i] = None
            g = g @ layers[i][0].mT
            g *= mask
    return np.concatenate(parts[::-1], axis=-1)


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
    """Flat H v from g = dL/dy and rg = R{dL/dy}, in the parameter layout.
    Consumes rhs: each R{h} is dropped once read, which lowers the memory
    peak of an HVP on a stacked batch."""
    parts = []
    flat = rg.shape[:-2] + (-1,)
    for i in range(len(layers) - 1, -1, -1):
        rgw = hs[i].mT @ rg
        if i:  # R{h0} of the constant input is 0
            rgw += rhs[i].mT @ g
            rhs[i] = None
        parts += [rg.sum(axis=-2), rgw.reshape(flat)]
        if i:
            w, vw = layers[i][0].mT, vlayers[i][0].mT
            mask = hs[i] > 0.0
            rg = rg @ w
            rg += g @ vw
            rg *= mask
            if i > 1:  # the input layer's R{gradient} needs no dL/dz
                g = g @ w
                g *= mask
    return np.concatenate(parts[::-1], axis=-1)


class _MlpLoss:
    """A loss of the network output.  Subclasses give _head(y, batch), which
    returns the value (an array: 0-d, or one entry per slice), g = dL/dy
    and the context that _r_head(ctx, ry) needs to map ry = R{y} to
    R{dL/dy}.  value, value_and_grad and linearize give an unstacked
    batch's value as a float and a stack's as an (m,) array."""

    def __init__(self, shape):
        self.sizes = shape.layer_sizes
        self.n_params = shape.n_params

    def _forward(self, theta: np.ndarray, batch):
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.n_params:
            raise ContractError(f"parameter shape {theta.shape} is not ({self.n_params},) or a stack of it")
        x = check_input(batch.states, self.sizes[0], theta.shape[:-1])
        layers = unpack(theta, self.sizes)
        return layers, forward(layers, x)

    def value(self, theta: np.ndarray, batch):
        _, hs = self._forward(theta, batch)
        return _value(self._head(hs[-1], batch)[0])

    def value_and_grad(self, theta: np.ndarray, batch):
        """The value and the gradient, with no MlpPoint: backward frees each
        hidden activation once it has read it."""
        layers, hs = self._forward(theta, batch)
        val, g = self._head(hs.pop(), batch)[:2]
        return _value(val), backward(layers, hs, g)

    def linearize(self, theta: np.ndarray, batch) -> "MlpPoint":
        layers, hs = self._forward(theta, batch)
        val, g, ctx = self._head(hs.pop(), batch)  # no pass reads the output again
        return MlpPoint(self, layers, hs, g, ctx, _value(val), backward(layers, hs[:], g))


def _value(val: np.ndarray):
    return val if val.ndim else float(val)


class MlpPoint:
    """An _MlpLoss at one parameter vector (or stack): the value and
    gradient, and the layer inputs and loss-head context, which hvp reuses,
    so that an HVP runs only r_forward, the loss head's R-part and
    r_backward."""

    __slots__ = ("_loss", "_layers", "_hs", "_g", "_ctx", "value", "grad")

    def __init__(self, loss: _MlpLoss, layers, hs, g, ctx, value, grad: np.ndarray):
        self._loss, self._layers, self._hs, self._g, self._ctx = loss, layers, hs, g, ctx
        self.value, self.grad = value, grad

    def hvp(self, v: np.ndarray) -> np.ndarray:
        """H v at this point: v has the gradient's shape."""
        vlayers = unpack(v, self._loss.sizes)
        rhs = r_forward(self._layers, vlayers, self._hs)
        rg = self._loss._r_head(self._ctx, rhs[-1])
        return r_backward(self._layers, vlayers, self._hs, rhs, self._g, rg)


class SkillMseLoss(_MlpLoss):
    """Behavior-cloning MSE: mean over pairs of squared action error."""

    name = "sub-skill MSE"

    def _head(self, y, batch):
        r = y - batch.actions
        n = r.shape[-2]
        val = (r * r).sum(axis=(-2, -1)) * (1.0 / n)
        c = 2.0 / n
        return val, r * c, c

    def _r_head(self, c, ry):
        return ry * c


class SelectorLoss(_MlpLoss):
    """Mean cross-entropy vs hard labels plus aux_weight * switch surrogate,
    1 - (1/pairs) sum <p_t, p_t+1> over adjacent rows within each
    trajectory slice (the surrogate is dropped when the weight is 0 or no
    slice has two rows).  The batch is a Pool with one-hot labels as actions
    (dmil.high_batch), whose slices and actions give each evaluation the
    pair mask, the pair count and the cross-entropy's dL/dlogp.  A stacked
    batch holds one slices tuple per stack slice; its slices may split the
    rows differently, but must agree on whether there is any pair (every
    stack dmil.meta_train_step builds does: its pair count is the row count
    less the trajectory count)."""

    name = "selector cross-entropy"

    def __init__(self, shape, aux_weight: float):
        super().__init__(shape)
        self.aux_weight = aux_weight

    def _head(self, y, batch):
        n = y.shape[-2]
        shifted = y - _row_max(y)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        p = np.exp(logp)
        val = -((logp * batch.actions).sum(axis=-1).sum(axis=-1) / n)
        g_logp = batch.actions * (-1.0 / n)  # dL/dlogp
        w = self.aux_weight
        pairs = _pair_mask(batch.slices, y.shape[:-1])
        n_pairs = pairs.sum(axis=-1)
        paired = np.count_nonzero(n_pairs)  # slices with a pair
        q = c = None
        if w != 0.0 and paired:
            if paired != n_pairs.size:
                raise ContractError("a stack's slices disagree on whether any two rows form a pair")
            dots = (pairs * (p[..., :-1, :] * p[..., 1:, :]).sum(axis=-1)).sum(axis=-1)
            val = val + (dots * (-1.0 / n_pairs) + 1.0) * w
            c = (-w / n_pairs)[..., None, None]
            q = _neighbour_sum(p, pairs) * c  # dL/dp of the switch term
            g_logp = g_logp + p * q
        s = g_logp.sum(axis=-1, keepdims=True)
        g = g_logp - p * s
        return val, g, (p, s, q, pairs, c)

    def _r_head(self, ctx, ry):
        p, s, q, pairs, c = ctx
        rp = p * (ry - (p * ry).sum(axis=-1, keepdims=True))  # R{p}
        if q is None:  # no switch term
            return -rp * s
        rg_logp = rp * q + p * (_neighbour_sum(rp, pairs) * c)
        return rg_logp - rp * s - p * rg_logp.sum(axis=-1, keepdims=True)


def _row_max(y: np.ndarray) -> np.ndarray:
    """y.max(axis=-1, keepdims=True) bit for bit, a column at a time: far faster on few columns."""
    return functools.reduce(np.maximum, (y[..., k : k + 1] for k in range(y.shape[-1])))


def _pair_mask(slices, rows: tuple[int, ...]) -> np.ndarray:
    """1.0 at row t when rows t and t+1 lie in one trajectory slice: (N-1,)
    for rows (N,) and one slices tuple, (m, N-1) for rows (m, N) and m."""
    groups = (slices,) if len(rows) == 1 else slices
    pairs = np.zeros((len(groups), max(rows[-1] - 1, 0)))
    for row, group in zip(pairs, groups, strict=True):
        for start, stop in group:
            if stop - start >= 2:
                row[start : stop - 1] = 1.0
    return pairs.reshape(rows[:-1] + pairs.shape[-1:])


def _neighbour_sum(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Row t gets x[t-1] and x[t+1] for each pair it belongs to."""
    out = np.zeros_like(x)
    out[..., :-1, :] += pairs[..., None] * x[..., 1:, :]
    out[..., 1:, :] += pairs[..., None] * x[..., :-1, :]
    return out
