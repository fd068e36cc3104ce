import gc
import weakref

import numpy as np
import pytest

from dmil import autodiff as ad
from dmil.autodiff import (
    ContractError,
    NumericError,
    ParamVector,
    hvp,
    identity_trace,
    inner_adapt,
    linearize,
    meta_grad,
    value_and_grad,
)
from dmil.dmil import Pool
from dmil.kernels import SkillMseLoss
from dmil.policies import MlpShape, init_params
from dmil.rng import SplitMix64
from oracle import TapeLoss, mlp_logits, tape_high_loss


# ---- test losses built directly on the tape ----

# f(theta) = sum(theta^2)
quad_loss = TapeLoss(lambda p, batch: ad.asum(ad.mul(p, p)))
const_loss = TapeLoss(lambda p, batch: ad.smul(ad.asum(ad.mul(p, ad.constant(np.zeros(p.value.shape)))), 1.0))
linear_loss = TapeLoss(lambda p, batch: ad.asum(ad.mul(p, ad.constant(batch))))


def make_mse_loss(shape: MlpShape, X: np.ndarray, Y: np.ndarray) -> TapeLoss:
    def mse(p, batch):
        pred = mlp_logits(p, shape, X)
        r = ad.sub(pred, ad.constant(Y))
        return ad.smul(ad.asum(ad.mul(r, r)), 1.0 / X.shape[0])

    return TapeLoss(mse)


def fd_grad(f, theta: ParamVector, batch, h: float = 1e-5) -> np.ndarray:
    """Central-difference oracle, independent of the engine's backward pass."""
    x = theta.values
    out = np.zeros_like(x)
    for i in range(len(x)):
        dx = np.zeros_like(x)
        dx[i] = h
        lo = ad.loss_value(f, ParamVector(x - dx), batch)
        hi = ad.loss_value(f, ParamVector(x + dx), batch)
        out[i] = (hi - lo) / (2.0 * h)
    return out


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def random_mlp_instance(seed: int, shape_sizes=(2, 4, 1), n: int = 3):
    rng = SplitMix64(seed)
    shape = MlpShape(shape_sizes)
    theta = ParamVector(rng.uniform_array(shape.n_params, -0.8, 0.8))
    X = rng.uniform_array(n * shape_sizes[0], -1.0, 1.0).reshape(n, shape_sizes[0])
    Y = rng.uniform_array(n * shape_sizes[-1], -1.0, 1.0).reshape(n, shape_sizes[-1])
    return make_mse_loss(shape, X, Y), theta


# ---- grad ----


def test_grad_quadratic() -> None:
    g = value_and_grad(quad_loss, ParamVector(np.array([1.0])), None)[1]
    assert g.values == pytest.approx([2.0])


def test_grad_constant_is_zero() -> None:
    g = value_and_grad(const_loss, ParamVector(np.array([3.0, -1.0])), None)[1]
    assert np.array_equal(g.values, np.zeros(2))


def test_grad_matches_finite_differences_on_small_mlp() -> None:
    f, theta = random_mlp_instance(101)
    g = value_and_grad(f, theta, None)[1]
    assert rel_err(fd_grad(f, theta, None), g.values) <= 1e-6


def test_grad_fd_property_100_instances() -> None:
    # Random small-MLP instances away from ReLU kinks (random continuous data).
    worst = 0.0
    for seed in range(100):
        f, theta = random_mlp_instance(2000 + seed)
        g = value_and_grad(f, theta, None)[1]
        worst = max(worst, rel_err(fd_grad(f, theta, None), g.values))
    assert worst <= 1e-5


def test_grad_rejects_nonfinite_loss() -> None:
    def bad(p, batch):
        return ad.log(ad.smul(ad.asum(ad.mul(p, p)), -1.0))

    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="loss"):
        value_and_grad(TapeLoss(bad), ParamVector(np.array([1.0])), None)


# ---- hvp ----


def test_hvp_quadratic() -> None:
    h = hvp(linearize(quad_loss, ParamVector(np.array([1.0])), None), ParamVector(np.array([3.0])))
    assert h.values == pytest.approx([6.0])


def test_hvp_linear_is_zero() -> None:
    theta = ParamVector(np.array([0.3, -2.0, 5.0]))
    v = ParamVector(np.array([1.0, 2.0, 3.0]))
    h = hvp(linearize(linear_loss, theta, np.array([2.0, -1.0, 0.5])), v)
    assert np.array_equal(h.values, np.zeros(3))


def test_hvp_matches_fd_of_gradient() -> None:
    f, theta = random_mlp_instance(77)
    rng = SplitMix64(5)
    v = ParamVector(rng.uniform_array(len(theta), -1.0, 1.0))
    h = 1e-4
    up = value_and_grad(f, ParamVector(theta.values + h * v.values), None)[1]
    dn = value_and_grad(f, ParamVector(theta.values - h * v.values), None)[1]
    fd = (up.values - dn.values) / (2.0 * h)
    assert rel_err(fd, hvp(linearize(f, theta, None), v).values) <= 1e-4


def test_hvp_linear_in_direction() -> None:
    f, theta = random_mlp_instance(13)
    rng = SplitMix64(6)
    u = ParamVector(rng.uniform_array(len(theta), -1.0, 1.0))
    w = ParamVector(rng.uniform_array(len(theta), -1.0, 1.0))
    a, b = 0.7, -1.3
    combo = ParamVector(a * u.values + b * w.values)
    point = linearize(f, theta, None)
    lhs = hvp(point, combo).values
    rhs = a * hvp(point, u).values + b * hvp(point, w).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_hvp_rejects_length_mismatch() -> None:
    with pytest.raises(ContractError):
        hvp(linearize(quad_loss, ParamVector(np.array([1.0, 2.0])), None), ParamVector(np.array([1.0])))


# ---- inner_adapt ----


def test_inner_adapt_one_step_quadratic() -> None:
    trace = inner_adapt(quad_loss, ParamVector(np.array([1.0])), 0.1, None, 1)
    assert trace.final.values == pytest.approx([0.8])
    assert not trace.diverged


def test_inner_adapt_rejects_zero_steps() -> None:
    with pytest.raises(ContractError):
        inner_adapt(quad_loss, ParamVector(np.array([1.0])), 0.1, None, 0)


def test_inner_adapt_three_steps_quadratic() -> None:
    trace = inner_adapt(quad_loss, ParamVector(np.array([1.0])), 0.1, None, 3)
    assert trace.final.values == pytest.approx([0.512])


def test_inner_adapt_composition_bitwise() -> None:
    f, theta = random_mlp_instance(31)
    whole = inner_adapt(f, theta, 0.05, None, 3)
    p = theta
    for _ in range(3):
        p = inner_adapt(f, p, 0.05, None, 1).final
    assert np.array_equal(whole.final.values, p.values)


def test_inner_adapt_exact_replay_invariant() -> None:
    # The recorded points are exactly the parameters before each step:
    # replaying the descent from theta visits them bit for bit.
    f, theta = random_mlp_instance(32)
    trace = inner_adapt(f, theta, 0.05, None, 4)
    assert len(trace.points) == 4 and trace.rate == 0.05
    p = theta
    for point in trace.points:
        assert np.array_equal(p.values, point.values)
        p = p.minus_scaled(value_and_grad(f, p, None)[1], trace.rate)
    assert np.array_equal(p.values, trace.final.values)


def recording_linearize(monkeypatch, on_call):
    """Patch autodiff.linearize so each call runs on_call(refs) first, refs
    being weak references to every point returned so far."""
    refs: list[weakref.ref] = []
    real = ad.linearize

    def wrapped(f, theta, batch):
        on_call(refs)
        point = real(f, theta, batch)
        refs.append(weakref.ref(point))
        return point

    monkeypatch.setattr(ad, "linearize", wrapped)
    return refs


def mse_kernel_instance():
    rng = SplitMix64(34)
    shape = MlpShape((3, 6, 2))
    x = rng.uniform_array(7 * 3, -1.0, 1.0).reshape(7, 3)
    y = rng.uniform_array(7 * 2, -1.0, 1.0).reshape(7, 2)
    return SkillMseLoss(shape), ParamVector(rng.uniform_array(shape.n_params, -0.8, 0.8)), Pool(x, y, ())


def test_inner_adapt_without_keep_linearizes_nothing(monkeypatch) -> None:
    # Adaptation that is never differentiated steps with value_and_grad,
    # which keeps no activations, bitwise as a trace that keeps its points.
    f, theta, batch = mse_kernel_instance()
    want = inner_adapt(f, theta, 0.05, batch, 4)
    refs = recording_linearize(monkeypatch, lambda refs: None)
    calls = []
    real = ad.value_and_grad
    monkeypatch.setattr(ad, "value_and_grad", lambda *args: calls.append(args) or real(*args))
    got = inner_adapt(f, theta, 0.05, batch, 4, keep=False)
    assert refs == [] and len(calls) == 4
    assert got.final.values.tobytes() == want.final.values.tobytes()
    assert got.losses == want.losses and got.linearized == ()


def test_inner_adapt_with_keep_holds_every_linearization(monkeypatch) -> None:
    f, theta, batch = mse_kernel_instance()
    want = inner_adapt(f, theta, 0.05, batch, 4)
    refs = recording_linearize(monkeypatch, lambda refs: None)
    got = inner_adapt(f, theta, 0.05, batch, 4)
    assert len(refs) == 4 and all(r() is not None for r in refs)
    assert [r() for r in refs] == list(got.linearized)
    g = ParamVector(np.ones(len(theta)))
    assert meta_grad(got, g).values.tobytes() == meta_grad(want, g).values.tobytes()


def test_inner_adapt_flags_divergence() -> None:
    # Gradient ascent in disguise: a huge rate on a quadratic overshoots.
    trace = inner_adapt(quad_loss, ParamVector(np.array([1.0])), 10.0, None, 3)
    assert trace.diverged


def test_inner_adapt_zero_rate_identity() -> None:
    f, theta = random_mlp_instance(33)
    trace = inner_adapt(f, theta, 0.0, None, 2)
    assert np.array_equal(trace.final.values, theta.values)


# ---- meta_grad ----


def test_meta_grad_1d_analytic() -> None:
    theta = ParamVector(np.array([1.0]))
    trace = inner_adapt(quad_loss, theta, 0.1, None, 1)
    g_outer = value_and_grad(quad_loss, trace.final, None)[1]
    assert g_outer.values == pytest.approx([1.6])
    mg = meta_grad(trace, g_outer)
    assert mg.values == pytest.approx([1.28])


def test_meta_grad_first_order_mode() -> None:
    theta = ParamVector(np.array([1.0]))
    trace = inner_adapt(quad_loss, theta, 0.1, None, 1)
    g_outer = value_and_grad(quad_loss, trace.final, None)[1]
    mg = meta_grad(trace, g_outer, mode="first_order")
    assert np.array_equal(mg.values, g_outer.values)


def test_meta_grad_zero_rate_equals_outer_gradient() -> None:
    f, theta = random_mlp_instance(41)
    trace = inner_adapt(f, theta, 0.0, None, 2)
    g_outer = value_and_grad(f, trace.final, None)[1]
    mg = meta_grad(trace, g_outer)
    assert np.array_equal(mg.values, g_outer.values)


@pytest.mark.parametrize("steps", [1, 3])
def test_meta_grad_matches_fd_of_composed_objective(steps: int) -> None:
    rng = SplitMix64(404)
    shape = MlpShape((2, 4, 2))
    theta = ParamVector(rng.uniform_array(shape.n_params, -0.8, 0.8))
    Xin = rng.uniform_array(6, -1.0, 1.0).reshape(3, 2)
    Yin = rng.uniform_array(6, -1.0, 1.0).reshape(3, 2)
    Xout = rng.uniform_array(6, -1.0, 1.0).reshape(3, 2)
    Yout = rng.uniform_array(6, -1.0, 1.0).reshape(3, 2)
    f_in = make_mse_loss(shape, Xin, Yin)
    f_out = make_mse_loss(shape, Xout, Yout)
    alpha = 0.05

    trace = inner_adapt(f_in, theta, alpha, None, steps)
    exact = meta_grad(trace, value_and_grad(f_out, trace.final, None)[1])

    # The composed adapt-then-evaluate map, built only from loss evaluations.
    def composed_value(p, batch):
        t = inner_adapt(f_in, ParamVector(np.asarray(p.value)), alpha, None, steps)
        return ad.constant(f_out.value(t.final.values, None))

    fd = fd_grad(TapeLoss(composed_value), theta, None, h=1e-5)
    assert rel_err(fd, exact.values) <= 1e-4


def test_meta_grad_rejects_length_mismatch() -> None:
    theta = ParamVector(np.array([1.0]))
    trace = inner_adapt(quad_loss, theta, 0.1, None, 1)
    with pytest.raises(ContractError):
        meta_grad(trace, ParamVector(np.array([1.0, 2.0])))


def test_identity_trace_has_no_steps() -> None:
    theta = ParamVector(np.array([1.0, 2.0]))
    t = identity_trace(theta, quad_loss)
    assert t.points == ()
    assert t.final is theta and t.loss is quad_loss
    assert np.array_equal(meta_grad(t, theta).values, theta.values)


# ---- ParamVector contract ----


def test_paramvector_is_readonly_and_finite() -> None:
    pv = ParamVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        pv.values[0] = 5.0
    with pytest.raises(NumericError):
        ParamVector(np.array([1.0, np.nan]))
    # Arithmetic wraps its fresh result without a copy, read-only and checked.
    for result in (pv.minus_scaled(pv, 0.5), ParamVector.zeros(2)):
        with pytest.raises(ValueError):
            result.values[0] = 5.0
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ParamVector(np.array([1e308])).minus_scaled(ParamVector(np.array([-1e308])), 10.0)


def test_paramvector_rejects_length_mismatch() -> None:
    with pytest.raises(ContractError):
        ParamVector(np.array([1.0])).minus_scaled(ParamVector(np.array([1.0, 2.0])), 0.1)


# ---- the tape frees its nodes without the cyclic collector ----


def selector_instance():
    rng = SplitMix64(9)
    shape = MlpShape((3, 5, 3))
    theta = ParamVector(rng.uniform_array(shape.n_params, -0.8, 0.8))
    x = rng.uniform_array(24, -1.0, 1.0).reshape(8, 3)
    onehot = np.eye(3)[[0, 0, 1, 1, 2, 2, 0, 1]]
    return tape_high_loss(shape, 0.3), theta, Pool(x, onehot, ((0, 5), (5, 8)))


def test_tape_selector_loss_leaves_no_reference_cycles() -> None:
    f, theta, batch = selector_instance()
    gc.collect()
    gc.disable()
    try:
        value_and_grad(f, theta, batch)
        hvp(linearize(f, theta, batch), theta)
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed == 0


def test_tape_selector_hvp_matches_fd_of_gradient() -> None:
    f, theta, batch = selector_instance()
    v = ParamVector(SplitMix64(10).uniform_array(len(theta), -1.0, 1.0))
    h = 1e-5
    up = value_and_grad(f, ParamVector(theta.values + h * v.values), batch)[1]
    dn = value_and_grad(f, ParamVector(theta.values - h * v.values), batch)[1]
    fd = (up.values - dn.values) / (2.0 * h)
    assert rel_err(fd, hvp(linearize(f, theta, batch), v).values) <= 1e-6
