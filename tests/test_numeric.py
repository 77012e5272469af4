"""The binned exact sums agree with math.fsum to the bit, exceptions included."""

from __future__ import annotations

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from entirefn import _numeric
from entirefn._numeric import BLOCK, ExactSum, complex_sum, exact_power_sums, real_sum
from entirefn._numeric import _conjugate_half

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
    assert acc.totals()[0].hex() == expected.hex()


def test_one_binade_at_full_load() -> None:
    # every entry in the bins of one exponent, each part at its largest
    for exponent in (-1074, -1022, 0, 500, 989):
        if exponent == -1074:
            top = float.fromhex("0x0.fffffffffffffp-1022")  # all-ones subnormal
        else:
            top = math.ldexp(float.fromhex("0x1.fffffffffffffp+0"), exponent)
        for sign in (1.0, -1.0):
            assert_like_fsum(np.full(2 * BLOCK + 3, sign * top))


def test_worst_case_window_is_exact() -> None:
    # One block: a few values with an odd last bit at its lowest exponent,
    # where its first window starts, and the rest with all-ones mantissas
    # (largest low parts) at the window's top exponent.  The top values come
    # back negated in a second block, so the exact total is the small bottom
    # sum: one bit lost in the merged window (it is too wide once
    # _WINDOW > 12) would show in the result.
    bottom = float.fromhex("0x1.0000000000001p+0")
    top = math.ldexp(float.fromhex("0x1.fffffffffffffp+0"), _numeric._WINDOW - 1)
    block = np.full(BLOCK, top)
    block[:5] = bottom
    np.random.default_rng(0).shuffle(block)
    values = np.concatenate([block, np.full(BLOCK - 5, -top)])
    assert_like_fsum(values)
    assert real_sum(values) == 5 * bottom


def test_powers_running_into_subnormals() -> None:
    rng = np.random.default_rng(7)
    # with |base| in [0.14, 0.17] the last sums are themselves subnormal
    for length, smallest, largest in ((700, 0.14, 0.17), (5000, 0.1, 0.95)):
        radii = rng.uniform(smallest, largest, length)
        base = radii * np.exp(1j * rng.uniform(-math.pi, math.pi, length))
        sums = exact_power_sums(base, 400)
        power = base
        for m in range(1, 401):
            if m > 1:
                power = power * base
            assert sums[m - 1].real.hex() == math.fsum(power.real).hex()
            assert sums[m - 1].imag.hex() == math.fsum(power.imag).hex()
        # the smallest powers are subnormal or 0 by the end
        assert np.any((power != 0) & (np.abs(power) < 2.0**-1022))
        assert np.any(power == 0)


def interleave(half: np.ndarray) -> np.ndarray:
    """half[0], conj(half[0]), half[1], conj(half[1]), ..."""
    paired = np.empty(2 * half.size, dtype=np.complex128)
    paired[0::2] = half
    paired[1::2] = np.conj(half)
    return paired


def test_conjugate_half_reads_the_pairing() -> None:
    half = np.array([1 + 2j, -3 - 0.5j, 0.5 + 0j, complex(0.0, 4.0)])
    paired = interleave(half)
    assert np.array_equal(_conjugate_half(paired), half)
    # a real part 0 may meet -0: power sums about a real centre list 1/(+-i tau) so
    zero_sign = paired.copy()
    zero_sign[7] = complex(-0.0, -4.0)
    assert np.array_equal(_conjugate_half(zero_sign), half)
    # an imaginary 0 must meet -0: the kernel's arctan2 reads that sign
    same_zero = paired.copy()
    same_zero[5] = complex(0.5, 0.0)
    for values in (same_zero, paired[:-1], paired[1:-1], np.flip(paired)[1:-1]):
        assert _conjugate_half(values) is None
    for special in (math.nan, math.inf):
        broken = interleave(np.array([1 + 2j, complex(special, 1.0)]))
        assert _conjugate_half(broken) is None


def power_sum_outcome(base: np.ndarray, m_max: int):
    """The exact bits of every power sum, or the exception's type and text."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return [(p.real.hex(), p.imag.hex()) for p in exact_power_sums(base, m_max)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pairs=st.sampled_from([0, 1, 3, 300, 700]),
    layout=st.sampled_from(
        ["paired", "real zeros", "unpaired", "odd", "split", "non-finite", "doubling overflows",
         "powers overflow"]
    ),
    m_max=st.integers(min_value=1, max_value=40),
)
@example(seed=0, pairs=3, layout="doubling overflows", m_max=1)
def test_halved_power_sums_match_the_full_path(seed, pairs, layout, m_max) -> None:
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.05, 1.2, pairs)
    if layout == "doubling overflows":
        radii = 2.0 ** rng.uniform(989.0, 1000.0, pairs)
    elif layout == "powers overflow":
        radii = 2.0 ** rng.uniform(100.0, 600.0, pairs)
    half = radii * np.exp(1j * rng.uniform(-math.pi, math.pi, pairs))
    base = interleave(half)
    if layout == "real zeros":
        base.real[0::4] = 0.0
        base.real[1::4] = -0.0
    elif layout == "unpaired":
        base.real[1::2] *= 1.0 + 1e-15
    elif layout == "odd":
        base = np.append(base, 0.5 - 0.25j)
    elif layout == "split":
        base = base[1:]
    elif layout == "non-finite" and pairs:
        k = 2 * int(rng.integers(pairs))
        base[k : k + 2] = complex(math.inf, 1.0), complex(math.inf, -1.0)
    if layout in ("paired", "real zeros") and pairs:
        assert _conjugate_half(base) is not None
    with patch.object(_numeric, "_conjugate_half", return_value=None):
        full = power_sum_outcome(base, m_max)
    assert power_sum_outcome(base, m_max) == full


def reference_power_sums(base: np.ndarray, m_max: int) -> list[tuple[str, str]]:
    """Every power of the whole base by repeated multiplication, each part summed by math.fsum."""
    out, power = [], base
    for m in range(1, m_max + 1):
        if m > 1:
            power = power * base
        out.append((math.fsum(power.real).hex(), math.fsum(power.imag).hex()))
    return out


def power_sum_bits(base: np.ndarray, m_max: int) -> list[tuple[str, str]]:
    return [(p.real.hex(), p.imag.hex()) for p in exact_power_sums(base, m_max)]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.sampled_from([0, 1, 7, 40, 300, 1100]),
    layout=st.sampled_from(["complex", "paired", "imaginary", "ties", "underflow", "tiny"]),
    m_max=st.integers(min_value=1, max_value=300),
)
@example(seed=3, size=1100, layout="underflow", m_max=300)
@example(seed=1, size=40, layout="tiny", m_max=4)
def test_head_sums_match_fsum_of_every_power(seed, size, layout, m_max) -> None:
    rng = np.random.default_rng(seed)
    # moduli spread over decades, as the reciprocals of growing zeros are
    radii = 10.0 ** rng.uniform(-4.0, 0.1, size)
    if layout == "underflow":  # the last powers span the subnormals, and some are 0
        radii = 10.0 ** (rng.uniform(-330.0, -290.0, size) / m_max)
    elif layout == "tiny":  # normal entries whose squares are subnormal
        radii = 2.0 ** rng.uniform(-530.0, -500.0, size)
    half = radii * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
    if layout == "paired":
        base = interleave(half[: size // 2])
    elif layout == "imaginary":  # 1/(+-i tau) about a real centre: every Re b is +-0
        base = interleave(np.zeros(size // 2) + 1j * radii[: size // 2])
        base.real = np.where(rng.random(base.size) < 0.5, 0.0, -0.0)
    elif layout == "ties":  # each modulus four times, in the rotations by i
        base = np.repeat(half[: size // 4], 4) * np.tile([1, 1j, -1, -1j], size // 4)
    else:
        base = half
    assert power_sum_bits(base, m_max) == reference_power_sums(base, m_max)


def spy_on_heads(tried: list):
    """Patch _numeric._settle_rows to record (head size, settled) per row it tests."""
    original = _numeric._settle_rows

    def spy(block, tails):
        totals, settled = original(block, tails)
        tried.extend((block.shape[1], bool(done)) for done in settled)
        return totals, settled

    return patch.object(_numeric, "_settle_rows", spy)


@pytest.mark.parametrize("crosses", [False, True])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tail_next_to_a_rounding_boundary(crosses, sign) -> None:
    # The head (the _HEAD largest) sums to 1.5 + 2^-53 - 2^-61, 2^-61 short of
    # the midpoint between 1.5 and its successor, so it rounds to 1.5.  The 44 tail
    # entries add 44 * 2^-66 > 2^-61, which crosses the midpoint, or 44 * 2^-68,
    # which does not.
    pairs = (_numeric._HEAD - 2) // 2
    head = [1.5, 2.0**-53 - 2.0**-61] + [2.0**-62, -(2.0**-62)] * pairs
    tail = [2.0 ** (-66 if crosses else -68)] * 44
    base = sign * np.array(head + tail, dtype=np.complex128)
    assert (math.fsum(head) != math.fsum(head + tail)) == crosses
    tried = []
    with spy_on_heads(tried):
        assert power_sum_bits(base, 1) == reference_power_sums(base, 1)
    # settled on the head, or summed in full
    assert tried[0] == (len(head), not crosses)
    assert exact_power_sums(base, 1)[0].real == sign * math.fsum(head + tail)


def test_later_power_extends_the_head() -> None:
    # _HEAD / 2 values x on the real axis and the same on the imaginary one, of
    # few bits, so their power sums are exact: p_1 settles on these, but the
    # squares x^2 and (ix)^2 = -x^2 cancel, so p_2 needs the tail, whose
    # squares the extension computes from the base
    rng = np.random.default_rng(4)
    x = rng.integers(8, 16, _numeric._HEAD // 2) / 8.0
    tail = 1e-20 * np.exp(1j * rng.uniform(-math.pi, math.pi, 1000))
    base = np.concatenate([x + 0j, 1j * x, tail])
    tried = []
    with spy_on_heads(tried):
        bits = power_sum_bits(base, 6)
    assert bits == reference_power_sums(base, 6)
    # both parts of p_1 settle on the head; neither of p_2 does (its head sums are 0)
    head = _numeric._HEAD
    assert tried[:4] == [(head, True), (head, True), (head, False), (head, False)]
    assert (head * _numeric._HEAD_GROWTH, False) in tried


def test_mirrored_imaginary_base_of_1e5_entries() -> None:
    # 1/(+-i k): the halved path, with the odd powers 0 by parity
    k = np.arange(1.0, 50001.0)
    base = interleave(1.0 / (1j * k))
    assert _conjugate_half(base) is not None and not np.count_nonzero(base.real)
    assert power_sum_bits(base, 20) == reference_power_sums(base, 20)


# Row lengths about the cut-offs and the block size
ROW_LENGTHS = [1, 2, 511, 512, 513, BLOCK - 1, BLOCK + 1]


def fsum_outcome(rows: np.ndarray):
    """math.fsum of each row in order, or the first exception's type and text."""
    try:
        return [math.fsum(row).hex() for row in rows.tolist()]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def totals_outcome(rows: np.ndarray):
    try:
        acc = ExactSum(len(rows))
        acc.add(rows)
        return [total.hex() for total in acc.totals().tolist()]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def row_block(rng, count: int, length: int, layout: str) -> np.ndarray:
    """count rows of length entries that put the rounding at one of its edges."""
    rows = magnitudes(rng, count * length, -3, 3).reshape(count, length)
    if layout == "zeros":  # +-0 only: some rows all -0.0
        rows = np.where(rng.random(rows.shape) < 0.5, -0.0, 0.0)
        rows[::2] = -0.0
    elif layout == "subnormal":
        rows = rng.uniform(-1.0, 1.0, rows.shape) * 2.0**-1022
    elif layout == "near 2^990":
        rows = rng.choice([-1.0, 1.0], rows.shape) * 2.0 ** rng.uniform(985.0, 990.0, rows.shape)
    elif layout == "ties":
        # x + half an ulp of x, the rest cancelling in pairs: the exact sum is a
        # tie, or, with +-2^-110 more, just off one, past what a plain sum keeps
        # (x even and odd in its last bit, the tiny term up and down, by row)
        row = np.arange(count)
        rows[:, 0] = 1.0 + (2 * rng.integers(0, 2**19, count) + row // 2 % 2) * 2.0**-52
        rows[:, 1:] = 0.0
        if length > 1:
            rows[:, 1] = 2.0**-53
        if length > 3:
            rows[:, 2], rows[:, 3] = 3.0**-40, -(3.0**-40)
        if length > 4:
            rows[:, 4] = np.where(row % 4 < 2, 0.0, np.where(row % 2, 2.0**-110, -(2.0**-110)))
    elif layout == "power of two":
        # 2 less a little: the exact sum sits where the spacing halves
        rows[:, 0] = 2.0
        rows[:, 1:] = 0.0
        if length > 1:
            rows[:, 1] = -(2.0 ** rng.integers(-60, -52, count))
    elif layout == "cancel":
        half = length // 2
        rows[:, length - half :] = -rows[:, :half][:, ::-1]
    elif layout in ("nan", "inf", "overflow"):
        special = {"nan": math.nan, "inf": math.inf, "overflow": 1.7e308}[layout]
        rows.flat[rng.integers(0, rows.size, 3)] = special
        if layout != "nan":
            rows.flat[rng.integers(0, rows.size)] = -special
    return rows


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.sampled_from(ROW_LENGTHS),
    count=st.sampled_from([1, 3, 4, 17, 64]),
    layout=st.sampled_from(
        ["random", "zeros", "subnormal", "near 2^990", "ties", "power of two", "cancel", "nan", "inf", "overflow"]
    ),
)
@example(seed=1, length=513, count=17, layout="ties")
@example(seed=2, length=512, count=17, layout="power of two")
@example(seed=3, length=513, count=4, layout="zeros")
def test_totals_match_fsum_row_by_row(seed, length, count, layout) -> None:
    count = min(count, 3) if length > BLOCK else count  # long rows stay few
    rows = row_block(np.random.default_rng(seed), count, length, layout)
    assert totals_outcome(rows) == fsum_outcome(rows)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.sampled_from([1, 40, 161, 600]),
    count=st.sampled_from([2, 5, 25, 136]),
    layout=st.sampled_from(["random", "zeros", "ties", "nan", "inf", "overflow"]),
)
def test_complex_totals_raise_what_row_by_row_rounding_raises(seed, length, count, layout) -> None:
    rng = np.random.default_rng(seed)
    real, imag = row_block(rng, count, length, layout), row_block(rng, count, length, "random")
    if rng.random() < 0.5:
        real, imag = imag, real
    accs = ExactSum(count), ExactSum(count)
    for acc, rows in zip(accs, (real, imag)):
        acc.add(rows)
    try:
        expected = [complex(math.fsum(re), math.fsum(im)) for re, im in zip(real.tolist(), imag.tolist())]
    except (ValueError, OverflowError) as exc:
        expected = type(exc), str(exc)
    try:
        got = _numeric.complex_totals(*accs).tolist()
    except (ValueError, OverflowError) as exc:
        got = type(exc), str(exc)
    if isinstance(expected, list):
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in expected]
    else:
        assert got == expected


def test_extraction_settles_the_rows_it_rounds() -> None:
    # 136 rows of 161 log-sized terms, as a ring batch of pair logs: the
    # extraction rounds every row, with no row left to math.fsum
    rows = magnitudes(np.random.default_rng(11), 136 * 161, -6, 1).reshape(136, 161)
    total, bound = _numeric._extract(rows)
    assert np.all(bound < _numeric._half_spacing(total))
    assert total.tolist() == [math.fsum(row) for row in rows.tolist()]


def subnormal_total_row(rng, length: int) -> np.ndarray:
    """Multiples of 2^-1074 below 2^36 units whose exact sum is a few units: a subnormal total."""
    units = rng.integers(-(2**36), 2**36, length)
    units[-1] = -int(units[:-1].sum()) + int(rng.integers(-5, 6))
    return np.ldexp(units.astype(np.float64), -1074)


LONE_LAYOUTS = [
    "random", "zeros", "subnormal", "subnormal total", "near 2^990", "ties", "power of two", "cancel", "nan", "inf",
    "overflow",
]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.sampled_from([1536, 2048, 3071, 3072, 5000, 16383]),
    layouts=st.lists(st.sampled_from(LONE_LAYOUTS), min_size=1, max_size=2),
)
@example(seed=4, length=5000, layouts=["cancel"])
@example(seed=5, length=3072, layouts=["zeros", "zeros"])
@example(seed=6, length=16383, layouts=["subnormal total"])
@example(seed=7, length=2048, layouts=["overflow", "inf"])
def test_lone_rows_round_as_fsum_rounds_them(seed, length, layouts) -> None:
    # one real row, or the two parts of a complex one: from _CERTIFY_LONE terms on, the extraction
    rng = np.random.default_rng(seed)
    rows = np.stack(
        [subnormal_total_row(rng, length) if layout == "subnormal total" else row_block(rng, 1, length, layout)[0]
         for layout in layouts]
    )
    accs = [ExactSum(1) for _ in rows]
    for acc, row in zip(accs, rows):
        acc.add(row)
    with patch.object(_numeric, "_extract", wraps=_numeric._extract) as extract:
        try:
            total = _numeric.complex_totals(*accs)[0]
            got = [total.real.hex(), total.imag.hex()][: len(rows)]
        except (ValueError, OverflowError) as exc:
            got = type(exc), str(exc)
    assert extract.called == (rows.size >= _numeric._CERTIFY_LONE)
    assert got == fsum_outcome(rows)


def test_extraction_settles_a_lone_row_of_pair_logs() -> None:
    # the 5000 pair logs of one point on the 1e4-zero line: no fallback to math.fsum
    rows = magnitudes(np.random.default_rng(12), 5000, -8, 0)[None, :]
    total, bound = _numeric._extract(rows)
    assert bound[0] < _numeric._half_spacing(total)[0]
    assert total[0] == math.fsum(rows[0].tolist())
