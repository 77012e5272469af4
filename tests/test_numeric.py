"""The binned exact sums agree with math.fsum to the bit, exceptions included."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from entirefn._numeric import BLOCK, ExactSum, complex_sum, real_sum

LENGTHS = [0, 1, 511, 512, 4000, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def outcome(fn, values):
    """The result's exact bits, or the exception's type and text."""
    try:
        return fn(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_like_fsum(values: np.ndarray) -> None:
    assert outcome(real_sum, values) == outcome(math.fsum, values)


def magnitudes(rng, length: int, low: int, high: int) -> np.ndarray:
    signs = rng.choice([-1.0, 1.0], length)
    return signs * 10.0 ** rng.uniform(low, high, length)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.sampled_from(LENGTHS),
    low=st.integers(min_value=-300, max_value=300),
    span=st.integers(min_value=0, max_value=600),
    cancel=st.booleans(),
)
def test_real_sum_matches_fsum(seed, length, low, span, cancel) -> None:
    rng = np.random.default_rng(seed)
    values = magnitudes(rng, length, low, min(low + span, 300))
    if cancel:
        # x then -x reversed: the exact sum is 0
        values = np.concatenate([values, -values[::-1]])
    assert_like_fsum(values)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.sampled_from(LENGTHS),
)
def test_subnormals_match_fsum(seed, length) -> None:
    rng = np.random.default_rng(seed)
    values = magnitudes(rng, length, -323, -300)
    values[::3] = rng.uniform(-1.0, 1.0, values[::3].size) * 2.0**-1022
    assert_like_fsum(values)


@given(
    specials=st.lists(
        st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 2.0**990, 1.5e308]),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.sampled_from(LENGTHS[2:]),
)
def test_special_values_match_fsum(specials, seed, length) -> None:
    rng = np.random.default_rng(seed)
    values = magnitudes(rng, length, -5, 5)
    positions = rng.integers(0, length, len(specials))
    values[positions] = specials
    assert_like_fsum(values)


def test_edge_inputs() -> None:
    for length in LENGTHS:
        assert_like_fsum(np.full(length, -0.0))
    assert real_sum([]) == 0.0
    assert complex_sum(np.zeros(0, dtype=np.complex128)) == 0j


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.sampled_from(LENGTHS),
)
def test_complex_sum_is_componentwise_fsum(seed, length) -> None:
    rng = np.random.default_rng(seed)
    values = magnitudes(rng, length, -20, 20) + 1j * magnitudes(rng, length, -20, 20)
    total = complex_sum(values)
    assert total.real.hex() == math.fsum(values.real).hex()
    assert total.imag.hex() == math.fsum(values.imag).hex()


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.lists(st.sampled_from(LENGTHS[1:]), min_size=1, max_size=4),
    special=st.sampled_from([None, math.nan, math.inf, 1e300]),
)
def test_streamed_blocks_match_fsum(seed, sizes, special) -> None:
    rng = np.random.default_rng(seed)
    blocks = [magnitudes(rng, size, -30, 30) for size in sizes]
    if special is not None:
        blocks[0][0] = special
    acc = ExactSum()
    for block in blocks:
        acc.add(block)
    expected = math.fsum(np.concatenate(blocks))
    assert acc.total().hex() == expected.hex()
