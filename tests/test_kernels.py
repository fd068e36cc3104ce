"""The closed-form losses (dmil.kernels) against their tape references: value,
gradient and Hessian-vector product, whole inner-adaptation traces and
meta-gradients, and the finiteness checks on the closed-form path.  Stacked
problems against their slices, bit for bit, and value_and_grad against
linearize, bit for bit and in traced memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmil import autodiff as ad
from dmil.autodiff import ContractError, NumericError, ParamVector, inner_adapt, meta_grad
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
@settings(max_examples=40, deadline=None)
def test_value_and_grad_is_linearize_bitwise(loss, data) -> None:
    # The pass that keeps no activations gives linearize's value and
    # gradient bit for bit, for the closed forms and their tape references.
    kernel, tape, theta, _, batch = data.draw(instances(loss))
    for f in (kernel, tape):
        val, grad = f.value_and_grad(theta.values, batch)
        point = f.linearize(theta.values, batch)
        assert same_bits(val, point.value) and same_bits(grad, point.grad)


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


# ---- stacks: an (m, N, in) batch is m unstacked problems, bit for bit ----


def stack_instance(loss: str, m: int, n: int, out: int, seed: int, contiguous: bool = True):
    """A loss, (m, P) parameters and directions, a stacked Pool and its m
    slices as unstacked Pools.  Selector slices split their N rows into
    trajectories at random, each its own way, with at least one pair when
    N >= 2 (a stack's slices agree on whether they have one).  A
    non-contiguous stack (every other input column of a wider array) has
    non-contiguous slices, on which numpy's matmul leaves BLAS."""
    rng = np.random.default_rng(seed)
    shape = MlpShape((5, 7, 6, out))
    wide = rng.uniform(-1.5, 1.5, size=(m, n, 5 if contiguous else 10))
    x = wide if contiguous else wide[..., ::2]
    thetas = rng.uniform(-1.0, 1.0, size=(m, shape.n_params))
    vs = rng.uniform(-1.0, 1.0, size=(m, shape.n_params))
    if loss == "skill":
        actions = rng.uniform(-1.0, 1.0, size=(m, n, out))
        slices = ((),) * m
        kernel = SkillMseLoss(shape)
    else:
        actions = np.eye(out)[rng.integers(0, out, size=(m, n))]
        slices = []
        for _ in range(m):
            cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, n - 1)), replace=False)) if n > 1 else []
            ends = [*map(int, cuts), n]
            slices.append(tuple(zip([0, *ends[:-1]], ends)))
        slices = tuple(slices)
        kernel = SelectorLoss(shape, 0.1)
    stack = Pool(x, actions, slices)
    return kernel, thetas, vs, stack, [Pool(x[i], actions[i], slices[i]) for i in range(m)]


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes() if np.ndim(a) == 0 else a.tobytes() == b.tobytes()


def assert_stack_is_its_slices(kernel, thetas, vs, stack, pools) -> None:
    """value, value_and_grad, linearize and hvp on the stack, per slice,
    against the unstacked calls, and value_and_grad against linearize;
    thetas is (m, P) or one vector shared by every slice."""
    val = kernel.value(thetas, stack)
    val_g, grad = kernel.value_and_grad(thetas, stack)
    point = kernel.linearize(thetas, stack)
    h = point.hvp(vs)
    assert val.shape == point.value.shape == (len(pools),)
    assert same_bits(val_g, point.value) and same_bits(grad, point.grad)
    for i, p in enumerate(pools):
        theta = thetas if thetas.ndim == 1 else thetas[i]
        one = kernel.linearize(theta, p)
        one_val, one_grad = kernel.value_and_grad(theta, p)
        assert same_bits(val[i], kernel.value(theta, p)) and same_bits(point.value[i], one.value)
        assert same_bits(point.grad[i], one.grad)
        assert same_bits(one_val, one.value) and same_bits(one_grad, one.grad)
        assert same_bits(h[i], one.hvp(vs[i]))


@pytest.mark.parametrize("loss", ["high", "skill"])
@pytest.mark.parametrize(
    "m, n, out, contiguous",
    [(5, 240, 3, True), (3, 37, 2, True), (4, 23, 3, False), (3, 1, 2, True), (2, 30, 1, True), (1, 12, 4, True)],
    ids=["pilot", "odd", "non-contiguous", "one-row", "K=1", "one-slice"],
)
def test_stacked_passes_are_each_slice_bitwise(loss, m, n, out, contiguous) -> None:
    # Every pass and both losses' value, linearize and hvp: an (m, N, in)
    # stack against an (m, P) stack of vectors gives each slice bitwise what
    # the unstacked call on that slice gives, as does one vector shared by
    # every slice.  The selector's slices split their rows differently, so
    # their pair masks differ.
    kernel, thetas, vs, stack, pools = stack_instance(loss, m, n, out, seed=m * 100 + n, contiguous=contiguous)
    if not contiguous:
        assert not stack.states.flags.c_contiguous and not pools[0].states.flags.c_contiguous
    if loss == "high" and n > 1:
        assert len({s for s in stack.slices}) > 1 or m == 1
    assert_stack_is_its_slices(kernel, thetas, vs, stack, pools)
    assert_stack_is_its_slices(kernel, thetas[0], vs, stack, pools)


@pytest.mark.parametrize("loss", ["high", "skill"])
def test_stacked_adaptation_and_meta_grad_are_each_slice_bitwise(loss) -> None:
    # inner_adapt from one start shared by every slice, then meta_grad of a
    # stacked outer gradient: each slice's trace, losses and meta-gradient
    # are the unstacked ones.
    kernel, thetas, vs, stack, pools = stack_instance(loss, 4, 31, 3, seed=7)
    theta = ParamVector(thetas[0])
    trace = inner_adapt(kernel, theta, 0.05, stack, 3)
    g = meta_grad(trace, ParamVector(vs))
    assert trace.final.values.shape == vs.shape and trace.diverged.shape == (4,)
    for i, p in enumerate(pools):
        one = inner_adapt(kernel, theta, 0.05, p, 3)
        assert same_bits(trace.final.values[i], one.final.values)
        assert [same_bits(a[i], b) for a, b in zip(trace.losses, one.losses)] == [True] * 4
        assert bool(trace.diverged[i]) == one.diverged
        assert same_bits(g.values[i], meta_grad(one, ParamVector(vs[i])).values)


def test_a_diverging_slice_flags_only_itself() -> None:
    # One slice's inputs are 30x larger, so the shared rate overshoots on
    # it alone: only its flag is set.
    kernel, thetas, _, stack, _ = stack_instance("skill", 3, 20, 2, seed=11)
    states = stack.states.copy()
    states[1] *= 30.0
    trace = inner_adapt(kernel, ParamVector(thetas[0]), 0.05, Pool(states, stack.actions, stack.slices), 3)
    assert trace.diverged.tolist() == [False, True, False]


def test_a_stack_must_agree_on_whether_it_has_pairs() -> None:
    # The switch term is on for every slice or for none: a slice of
    # one-row trajectories cannot share a stack with one that has pairs.
    kernel, thetas, _, stack, _ = stack_instance("high", 2, 6, 3, seed=13)
    mixed = Pool(stack.states, stack.actions, (((0, 6),), tuple((i, i + 1) for i in range(6))))
    with pytest.raises(ContractError, match="pair"):
        kernel.value(thetas, mixed)
    assert kernel.value(thetas, Pool(stack.states, stack.actions, (((0, 6),), ((0, 2), (2, 6))))).shape == (2,)


def test_a_non_finite_slice_is_named() -> None:
    # The finiteness checks name the first slice that failed.
    kernel, thetas, vs, stack, _ = stack_instance("skill", 3, 10, 2, seed=17)
    states = stack.states.copy()
    states[2, 4, 1] = np.nan
    with pytest.raises(NumericError, match="stack slice 2") as exc:
        ad.linearize(kernel, ParamVector(thetas), Pool(states, stack.actions, stack.slices))
    assert exc.value.slice == 2
    point = ad.linearize(kernel, ParamVector(thetas), stack)
    vs[1, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite hvp") as exc:
        ad.hvp(point, ParamVector._fresh(vs, check=False))
    assert exc.value.slice == 1


@pytest.mark.parametrize("loss", ["high", "skill"])
def test_value_and_grad_frees_each_activation_once_read(loss) -> None:
    # linearize keeps both hidden activations for its HVPs through the
    # backward pass; value_and_grad drops each once backward has read it,
    # so its traced peak is at least one (N, hidden) float64 array lower.
    n, hidden = 4000, 64
    shape = MlpShape((6, hidden, hidden, 3))
    rng = np.random.default_rng(37)
    x = rng.uniform(-1.0, 1.0, size=(n, 6))
    theta = ParamVector(rng.uniform(-0.4, 0.4, size=shape.n_params))
    if loss == "high":
        kernel = SelectorLoss(shape, 0.1)
        batch = Pool(x, np.eye(3)[rng.integers(0, 3, size=n)], tuple((i, i + 40) for i in range(0, n, 40)))
    else:
        kernel, batch = SkillMseLoss(shape), Pool(x, rng.uniform(-1.0, 1.0, size=(n, 3)), ())

    def traced_peak(fn) -> int:
        fn(kernel, theta, batch)  # any one-time allocation happens untraced
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn(kernel, theta, batch)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert traced_peak(ad.value_and_grad) <= traced_peak(ad.linearize) - n * hidden * 8
