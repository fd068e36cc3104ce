import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmil import autodiff as ad
from dmil.autodiff import ContractError, ParamVector
from dmil.policies import (
    HierarchicalParams,
    MlpShape,
    init_hierarchical,
    init_params,
    mlp_forward,
)
from dmil.rng import SplitMix64
from oracle import mlp_logits


def straight_line_forward(theta: np.ndarray, sizes, x: np.ndarray) -> np.ndarray:
    """Independent recomputation with explicit index bookkeeping."""
    h = x.copy()
    pos = 0
    for i in range(len(sizes) - 1):
        nin, nout = sizes[i], sizes[i + 1]
        w = np.empty((nin, nout))
        for r in range(nin):
            for c in range(nout):
                w[r, c] = theta[pos]
                pos += 1
        b = theta[pos : pos + nout]
        pos += nout
        h = h @ w + b
        if i < len(sizes) - 2:
            h = np.where(h > 0, h, 0.0)
    return h


def selector_probs(theta: ParamVector, shape: MlpShape, state) -> np.ndarray:
    """Skill probabilities for one state, as the selector loss forms them:
    exp(log_softmax(logits))."""
    logits = mlp_logits(ad.constant(theta.values), shape, np.asarray(state)[None, :])
    return ad.exp(ad.log_softmax(logits)).value[0]


def test_init_deterministic_in_seed() -> None:
    shape = MlpShape((4, 8, 2))
    a = init_params(shape, 7)
    b = init_params(shape, 7)
    assert np.array_equal(a.values, b.values)


def test_init_differs_across_seeds() -> None:
    shape = MlpShape((4, 8, 2))
    assert not np.array_equal(init_params(shape, 1).values, init_params(shape, 2).values)


def test_param_count_4_8_2() -> None:
    shape = MlpShape((4, 8, 2))
    assert shape.n_params == 4 * 8 + 8 + 8 * 2 + 2 == 58
    assert len(init_params(shape, 0)) == 58


def test_init_biases_zero_and_weights_bounded() -> None:
    shape = MlpShape((3, 5, 2))
    v = init_params(shape, 3).values
    w1, b1 = v[:15], v[15:20]
    w2, b2 = v[20:30], v[30:32]
    assert np.array_equal(b1, np.zeros(5)) and np.array_equal(b2, np.zeros(2))
    assert np.all(np.abs(w1) <= 1 / np.sqrt(3)) and np.all(np.abs(w2) <= 1 / np.sqrt(5))


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=5),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_param_count_formula_property(sizes, seed) -> None:
    shape = MlpShape(tuple(sizes))
    expected = sum(sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1))
    assert len(init_params(shape, seed)) == expected == shape.n_params


def test_shape_validation() -> None:
    with pytest.raises(ContractError):
        MlpShape((4,))
    with pytest.raises(ContractError, match=r"^a layer size must be >= 1, got 0$"):
        MlpShape((4, 0, 2))
    # A size is a JSON integer: no float, boolean or string is truncated or
    # coerced into one.
    with pytest.raises(ContractError, match=r"^a layer size must be an integer, got 8\.9$"):
        MlpShape((4, 8.9, 2))
    with pytest.raises(ContractError, match=r"^a layer size must be an integer, got True$"):
        MlpShape((4, 8, True))
    with pytest.raises(ContractError, match=r"^a layer size must be an integer, got '7'$"):
        MlpShape(("7", 8, 2))
    assert MlpShape([4, 8, 2]).layer_sizes == (4, 8, 2)


def test_high_forward_zero_params_uniform() -> None:
    shape = MlpShape((4, 8, 3))
    theta = ParamVector(np.zeros(shape.n_params))
    p = selector_probs(theta, shape, np.array([0.5, -1.0, 2.0, 0.0]))
    assert p == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_high_forward_k1_always_one() -> None:
    shape = MlpShape((4, 8, 1))
    theta = init_params(shape, 11)
    for s in SplitMix64(1).uniform_array(12, -2, 2).reshape(3, 4):
        assert selector_probs(theta, shape, s) == pytest.approx([1.0])


def test_high_forward_matches_straight_line_oracle() -> None:
    rng = SplitMix64(21)
    shape = MlpShape((4, 6, 3))
    theta = ParamVector(rng.uniform_array(shape.n_params, -1, 1))
    s = rng.uniform_array(4, -1, 1)
    logits = straight_line_forward(theta.values, shape.layer_sizes, s[None, :])[0]
    want = np.exp(logits - logits.max())
    want /= want.sum()
    assert np.max(np.abs(selector_probs(theta, shape, s) - want)) <= 1e-12


def test_high_forward_probabilities_sum_to_one() -> None:
    rng = SplitMix64(22)
    shape = MlpShape((4, 16, 5))
    theta = ParamVector(rng.uniform_array(shape.n_params, -2, 2))
    S = rng.uniform_array(40, -3, 3).reshape(10, 4)
    P = np.vstack([selector_probs(theta, shape, s) for s in S])
    assert np.all(P > 0) and np.all(P < 1)
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-9


def test_softmax_shift_invariance_on_output_biases() -> None:
    rng = SplitMix64(23)
    shape = MlpShape((4, 6, 3))
    theta = rng.uniform_array(shape.n_params, -1, 1)
    shifted = theta.copy()
    shifted[-3:] += 12.345  # all output-layer biases sit at the tail
    s = rng.uniform_array(4, -1, 1)
    a = selector_probs(ParamVector(theta), shape, s)
    b = selector_probs(ParamVector(shifted), shape, s)
    assert np.max(np.abs(a - b)) <= 1e-9


def test_skill_forward_zero_params_zero_action() -> None:
    shape = MlpShape((4, 8, 2))
    theta = ParamVector(np.zeros(shape.n_params))
    assert np.array_equal(mlp_forward(theta, shape, np.array([[1.0, 2, 3, 4]]))[0], np.zeros(2))


def test_skill_forward_hand_set_single_layer_scaling() -> None:
    # One linear layer, weights a * I: reproduces a * s exactly.
    shape = MlpShape((2, 2))
    a = 1.5
    theta = ParamVector(np.array([a, 0.0, 0.0, a, 0.0, 0.0]))
    s = np.array([[2.0, -3.0]])
    assert mlp_forward(theta, shape, s)[0] == pytest.approx([a * 2.0, a * -3.0])


def test_skill_forward_matches_straight_line_oracle() -> None:
    rng = SplitMix64(24)
    shape = MlpShape((4, 6, 2))
    theta = ParamVector(rng.uniform_array(shape.n_params, -1, 1))
    s = rng.uniform_array(4, -1, 1)[None, :]
    want = straight_line_forward(theta.values, shape.layer_sizes, s)[0]
    assert np.max(np.abs(mlp_forward(theta, shape, s)[0] - want)) <= 1e-12


def test_forward_dimension_mismatch_rejected() -> None:
    # One parameter vector takes (N, in) rows or an (m, N, in) stack of
    # them, each slice bitwise its unstacked call; one state is a (1, in)
    # batch, and only a stack of vectors takes an (m, n, 1, in) stack.
    shape = MlpShape((4, 8, 2))
    theta = init_params(shape, 0)
    for x in (np.zeros((3, 5)), np.zeros(4), np.zeros((2, 3, 5)), np.zeros((2, 3, 1, 4))):
        with pytest.raises(ContractError, match=re.escape(f"input shape {x.shape} does not match network input 4")):
            mlp_forward(theta, shape, x)
    for x in (SplitMix64(7).uniform_array(24, -1, 1).reshape(2, 3, 4), np.ones((3, 1, 4))):
        y = mlp_forward(theta, shape, x)
        assert y.shape == x.shape[:2] + (2,)
        for i in range(len(x)):
            assert y[i].tobytes() == mlp_forward(theta, shape, x[i]).tobytes()


def test_stacked_forward_rows_equal_one_row_calls_even_from_a_non_contiguous_stack() -> None:
    # numpy's matmul leaves BLAS for a non-contiguous operand, and at this
    # input width its own loop rounds some rows differently.
    shape = MlpShape((7, 16, 16, 2))
    rng = SplitMix64(31)
    thetas = np.stack([init_params(shape, 40 + i).values for i in range(3)])
    wide = rng.uniform_array(3 * 5 * 14, -2, 2).reshape(3, 5, 1, 14)
    x = wide[..., ::2]
    assert not x.flags.c_contiguous
    y = mlp_forward(thetas, shape, x)
    assert y.shape == (3, 5, 1, 2)
    for i in range(3):
        for j in range(5):
            one = mlp_forward(ParamVector(thetas[i]), shape, x[i, j].copy())
            assert y[i, j].tobytes() == one.tobytes()


def test_stacked_forward_shape_mismatch_rejected() -> None:
    # A stack of two vectors takes an (m, n, 1, in) stack row by row, or an
    # (m, N, in) stack slice by slice, with m = 2 either way.
    shape = MlpShape((4, 8, 2))
    thetas = np.stack([init_params(shape, i).values for i in range(2)])
    for x in (np.zeros((3, 5, 1, 4)), np.zeros((2, 5, 2, 4)), np.zeros((2, 5, 1, 3))):
        with pytest.raises(ContractError, match=re.escape(f"input shape {x.shape} is not an (2, n, 1, 4) stack")):
            mlp_forward(thetas, shape, x)
    for x in (np.zeros((3, 5, 4)), np.zeros((5, 4)), np.zeros((2, 5, 3))):
        with pytest.raises(ContractError, match=re.escape(f"input shape {x.shape} does not match network input 4")):
            mlp_forward(thetas, shape, x)
    with pytest.raises(ContractError, match="parameter length"):
        mlp_forward(thetas[:, 1:], shape, np.zeros((2, 5, 1, 4)))


def test_hierarchical_params_validation() -> None:
    p = init_hierarchical(4, 2, 3, (8,), seed=5)
    assert p.K == 3 and p.high_shape.out_dim == 3
    with pytest.raises(ContractError):
        HierarchicalParams(p.high, p.skills[:2], p.high_shape, p.skill_shape)


def test_hierarchical_init_deterministic() -> None:
    a = init_hierarchical(4, 2, 3, (8, 8), seed=9)
    b = init_hierarchical(4, 2, 3, (8, 8), seed=9)
    assert np.array_equal(a.high.values, b.high.values)
    for x, y in zip(a.skills, b.skills):
        assert np.array_equal(x.values, y.values)
    assert not np.array_equal(a.skills[0].values, a.skills[1].values)
