import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmil.rng import MASK64, SplitMix64, Streams, derive_seed, mix64

VECTORS = json.loads((Path(__file__).parent / "data" / "rng_vectors.json").read_text())


def _reference_next(state: int) -> tuple[int, int]:
    # Straight-line transcription of the published splitmix64 step, kept
    # independent of the library implementation.
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def test_frozen_stream_vectors() -> None:
    for seed_str, expected in VECTORS["streams"].items():
        rng = SplitMix64(int(seed_str))
        got = [hex(rng.next_u64()) for _ in expected]
        assert got == expected


def test_frozen_mix64_vectors() -> None:
    for arg, expected in VECTORS["mix64"].items():
        assert hex(mix64(int(arg))) == expected


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_frozen_float_draws() -> None:
    # Bit for bit: a numpy build or CPU whose SIMD log/cos rounds the
    # Box-Muller normals differently fails here before any run digest moves.
    from dmil.runner import environment

    streams, many = VECTORS["streams_normal_array"], VECTORS["streams_normal_sha256"]
    got = (
        {s: _hex(SplitMix64(int(s)).uniform_array(4)) for s in VECTORS["uniform_array"]},
        {s: _hex(SplitMix64(int(s)).normal_array(4)) for s in VECTORS["normal_array"]},
        [_hex(row) for row in Streams(streams["seeds"]).normal_array(streams["k"])],
        hashlib.sha256(Streams(range(many["n_streams"])).normal_array(many["k"]).tobytes()).hexdigest(),
    )
    want = (VECTORS["uniform_array"], VECTORS["normal_array"], streams["rows"], many["sha256"])
    assert got == want, (
        f"frozen float draws moved under numpy {np.__version__}, SIMD {environment()['numpy_simd']}"
        f" (recorded under {VECTORS['float_environment']})"
    )


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 0xDEADBEEF])
def test_matches_reference_transcription(seed: int) -> None:
    rng = SplitMix64(seed)
    state = seed & MASK64
    for _ in range(50):
        state, ref = _reference_next(state)
        assert rng.next_u64() == ref


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
def test_vectorized_equals_scalar(n: int) -> None:
    a, b = SplitMix64(church := 12345), SplitMix64(church)
    arr = a.next_array(n)
    scalars = [b.next_u64() for _ in range(n)]
    assert [int(x) for x in arr] == scalars
    assert a.state == b.state


SEEDS = [0, 1, MASK64, 2**63, 0xDEADBEEF, derive_seed(3, 4)]


def test_streams_equal_scalar_calls_per_stream() -> None:
    streams, rngs = Streams(SEEDS), [SplitMix64(s) for s in SEEDS]
    box = streams.uniform_array(2, -0.2, 0.2)
    assert box.shape == (len(SEEDS), 2)
    for row, rng in zip(box, rngs):
        assert row.tobytes() == np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)]).tobytes()
    for _ in range(5):
        noise = streams.normal_array(2)
        for row, rng in zip(noise, rngs):
            assert row.tobytes() == rng.normal_array(2).tobytes()
    draws = streams.next_array(3)
    for row, rng in zip(draws, rngs):
        assert [int(x) for x in row] == [rng.next_u64() for _ in range(3)]
    assert [int(x) for x in streams.state] == [rng.state for rng in rngs]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_streams_normal_std_and_width_match_per_stream(k: int) -> None:
    streams, rngs = Streams(SEEDS), [SplitMix64(s) for s in SEEDS]
    z = streams.normal_array(k, std=0.01)
    assert z.shape == (len(SEEDS), k)
    for row, rng in zip(z, rngs):
        assert row.tobytes() == rng.normal_array(k, std=0.01).tobytes()
    assert [int(x) for x in streams.state] == [rng.state for rng in rngs]


@given(
    seeds=st.lists(st.integers(0, MASK64), min_size=1, max_size=6),
    T=st.integers(1, 40),
    k=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_streams_one_wide_normal_draw_equals_a_draw_per_step(seeds, T, k) -> None:
    # The simulator draws an episode's T steps of k-wide noise in one call;
    # row i of it, step by step, is T successive k-wide draws of stream i.
    streams, rngs = Streams(seeds), [SplitMix64(s) for s in seeds]
    noise = streams.normal_array(T * k).reshape(len(seeds), T, k)
    for row, rng in zip(noise, rngs):
        for t in range(T):
            assert row[t].tobytes() == rng.normal_array(k).tobytes()
    assert [int(x) for x in streams.state] == [rng.state for rng in rngs]


def test_uniform_range_and_determinism() -> None:
    u = SplitMix64(3).uniform_array(10_000, -2.0, 5.0)
    assert u.dtype == np.float64
    assert np.all(u >= -2.0) and np.all(u < 5.0)
    assert np.array_equal(u, SplitMix64(3).uniform_array(10_000, -2.0, 5.0))


def test_normal_moments() -> None:
    z = SplitMix64(99).normal_array(200_000)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.std()) - 1.0) < 0.01


def test_permutation_is_a_permutation() -> None:
    p = SplitMix64(5).permutation(100)
    assert sorted(p) == list(range(100))
    assert p != list(range(100))


def test_derive_seed_spreads_branches() -> None:
    seeds = {derive_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 3) == derive_seed(7, 3)
