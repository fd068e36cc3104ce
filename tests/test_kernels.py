"""The closed-form losses (dmil.kernels) against their tape references: value,
gradient and Hessian-vector product, whole inner-adaptation traces and
meta-gradients, and the finiteness checks on the closed-form path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmil import autodiff as ad
from dmil.autodiff import NumericError, ParamVector, inner_adapt, meta_grad
from dmil.dmil import Pool
from dmil.evaluation import max_rel_err
from dmil.kernels import SelectorLoss, SkillMseLoss, _row_max
from dmil.policies import MlpShape
from oracle import tape_high_loss, tape_skill_loss

TOL = 1e-10


@st.composite
def instances(draw, loss: str):
    """A random ReLU MLP (1-3 hidden layers), its parameters, a direction and
    a batch; selector batches have K in 1..4, trajectory slices of length
    1 and up, and a zero or positive switch weight."""
    depth = draw(st.integers(1, 3))
    hidden = tuple(draw(st.lists(st.integers(1, 9), min_size=depth, max_size=depth)))
    in_dim = draw(st.integers(1, 5))
    out_dim = draw(st.integers(1, 4)) if loss == "high" else draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = MlpShape((in_dim, *hidden, out_dim))
    n = sum(lengths)
    x = rng.uniform(-1.5, 1.5, size=(n, in_dim))
    theta = ParamVector(rng.uniform(-1.0, 1.0, size=shape.n_params))
    v = ParamVector(rng.uniform(-1.0, 1.0, size=shape.n_params))
    if loss == "high":
        aux = draw(st.sampled_from([0.0, 0.1, 1.5]))
        ends = np.cumsum(lengths)
        slices = tuple((int(e - m), int(e)) for e, m in zip(ends, lengths))
        onehot = np.eye(out_dim)[rng.integers(0, out_dim, size=n)]
        batch = Pool(x, onehot, slices)
        return SelectorLoss(shape, aux), tape_high_loss(shape, aux), theta, v, batch
    batch = Pool(x, rng.uniform(-1.0, 1.0, size=(n, out_dim)), ())
    return SkillMseLoss(shape), tape_skill_loss(shape), theta, v, batch


def assert_close(got: float, want: float) -> None:
    assert abs(got - want) <= TOL * max(abs(want), 1e-12)


@pytest.mark.parametrize("loss", ["high", "skill"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_tape_value_grad_hvp(loss, data) -> None:
    kernel, tape, theta, v, batch = data.draw(instances(loss))
    assert_close(ad.loss_value(kernel, theta, batch), ad.loss_value(tape, theta, batch))
    val_k, g_k = ad.value_and_grad(kernel, theta, batch)
    val_t, g_t = ad.value_and_grad(tape, theta, batch)
    assert_close(val_k, val_t)
    assert max_rel_err(g_k.values, g_t.values) <= TOL
    h_k = ad.hvp(ad.linearize(kernel, theta, batch), v)
    h_t = ad.hvp(ad.linearize(tape, theta, batch), v)
    assert max_rel_err(h_k.values, h_t.values) <= TOL


@pytest.mark.parametrize("loss", ["high", "skill"])
@given(data=st.data(), steps=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_tape_adapt_trace_and_meta_grad(loss, data, steps) -> None:
    kernel, tape, theta, g_outer, batch = data.draw(instances(loss))
    rate = 0.05
    trace_k = inner_adapt(kernel, theta, rate, batch, steps)
    trace_t = inner_adapt(tape, theta, rate, batch, steps)
    for p_k, p_t in zip(trace_k.points + (trace_k.final,), trace_t.points + (trace_t.final,)):
        assert max_rel_err(p_k.values, p_t.values) <= TOL
    for l_k, l_t in zip(trace_k.losses, trace_t.losses):
        assert_close(l_k, l_t)
    assert max_rel_err(meta_grad(trace_k, g_outer).values, meta_grad(trace_t, g_outer).values) <= TOL


def fresh_hvp_chain(loss, trace, g_outer: ParamVector, batch) -> ParamVector:
    """meta_grad's chain with a fresh linearization at every trace point."""
    v = g_outer
    for point in reversed(trace.points):
        v = v.minus_scaled(ad.hvp(ad.linearize(loss, point, batch), v), trace.rate)
    return v


@pytest.mark.parametrize("loss", ["high", "skill"])
@given(data=st.data(), steps=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_meta_grad_over_kept_points_equals_fresh_hvp_chain(loss, data, steps) -> None:
    # Reusing each inner step's forward pass and loss head is the same
    # arithmetic done once, so the meta-gradient is bitwise the chain of
    # fresh HVPs; the tape's fresh chain agrees to rounding.
    kernel, tape, theta, g_outer, batch = data.draw(instances(loss))
    trace = inner_adapt(kernel, theta, 0.05, batch, steps)
    kept = meta_grad(trace, g_outer)
    assert np.array_equal(kept.values, fresh_hvp_chain(kernel, trace, g_outer, batch).values)
    assert max_rel_err(kept.values, fresh_hvp_chain(tape, trace, g_outer, batch).values) <= TOL


@pytest.mark.parametrize("make", [SelectorLoss, SkillMseLoss], ids=lambda c: c.__name__)
def test_kernel_overflow_raises_numeric_error(make) -> None:
    shape = MlpShape((3, 4, 4, 2))
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, size=(6, 3))
    if make is SelectorLoss:
        loss, batch = make(shape, 0.1), Pool(x, np.eye(2)[[0, 1, 1, 0, 0, 1]], ((0, 3), (3, 6)))
    else:
        loss, batch = make(shape), Pool(x, rng.uniform(-1.0, 1.0, size=(6, 2)), ())
    theta = ParamVector(np.full(shape.n_params, 1e300))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="non-finite loss"):
            ad.loss_value(loss, theta, batch)
        with pytest.raises(NumericError, match="non-finite loss"):
            ad.value_and_grad(loss, theta, batch)
        with pytest.raises(NumericError, match="non-finite loss"):
            ad.linearize(loss, theta, batch)
        point = ad.linearize(loss, ParamVector(rng.uniform(-1.0, 1.0, size=shape.n_params)), batch)
        with pytest.raises(NumericError, match="non-finite hvp"):
            ad.hvp(point, ParamVector(rng.uniform(-1.0, 1.0, size=shape.n_params) * 1e308))


def test_row_max_is_numpys_row_max_bitwise() -> None:
    # The selector head shifts its logits by _row_max; max is exact, so the
    # column-at-a-time form must give numpy's row max, and the same shifted
    # logits, bit for bit, also on ties and signed zeros.
    rng = np.random.default_rng(5)
    for i in range(2000):
        n, k = int(rng.integers(1, 60)), int(rng.integers(1, 6))
        if i % 2:
            y = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]), size=(n, k))
        else:
            y = rng.normal(size=(n, k))
        want = y.max(axis=1, keepdims=True)
        assert _row_max(y).tobytes() == want.tobytes()
        assert (y - _row_max(y)).tobytes() == (y - want).tobytes()
