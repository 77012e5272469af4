"""Shared numeric helpers: exactly rounded sums and log-log slope fits.

Every reduction in this package that feeds a user-visible value is exactly
rounded: it returns the same double as ``math.fsum``, the correctly rounded
exact sum, so results do not depend on accumulation order and repeated runs
are bit-identical.

The sums are binned, after Neal, "Fast exact summation using small and large
superaccumulators" (arXiv:1505.05571).  Masking the low 27 mantissa bits
splits each double x exactly into a high part of 26 significant bits and a
low rest.  ``np.bincount`` adds each part, block by block, into a bin keyed
by the biased exponent of x and a lane, the entry's index mod 4.  Real data
puts a block in a few exponents, and adds to one bin wait on each other; the
lanes give each exponent four independent chains.  All parts in one bin are
integer multiples of one power of two, below 2**27 of them in size, so a
bin's sum is exact for up to 2**26 entries, far more than a block holds.

``np.add.reduceat`` then merges the bins of each window of W = 11
consecutive exponents, lanes included, counted from the block's lowest
exponent, and this too is exact.  Count a
window's low parts in units of the spacing of doubles at its lowest
exponent, and its high parts in units 2**27 times larger.  Every part is an
integer number of units.  At the top exponent the spacing is at most
2**(W - 1) times larger, so a part there is below 2**(W + 26) units (low)
or 2**(W + 25) units (high).  A block holds at most 2**15 entries, so the
absolute values in a window, and with them every partial sum, stay below
2**(W + 41) units: exact in a double while W <= 12.  One ``math.fsum`` over
the nonzero window sums rounds the exact total once.

Power sums p_m = sum b_i^m stop early (``exact_power_sums``): each part is
summed over a head of the entries of largest modulus, 16, 64, 256, ...
of them, until a rigorous bound D on the rest shows that it cannot move the
correctly rounded sum s: |r| (1 + 2^-52) + D below half the spacing of the
doubles at s, r the rounded rest of the head.  Where every Re b is +-0 the
parts that are +-0 by the parity of m are 0.0 with no sum.

Values that come in conjugate pairs are summed once (``_conjugate_half``,
used by ``exact_power_sums`` and the factor reducer of ``product_engine``).
The exact sum of x and a copy of x is twice the exact sum of x, and doubling
is exact, also for subnormals, whose sums are exact.  So below 2**990 in
size, where no sum can overflow, 2 * fsum(x) has the bits of fsum(x + x).
``math.fsum`` of mirrored imaginary parts, +-y, is +0.0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

# Entries per block streamed through the bins, and per block of the factor
# kernel: a block's temporaries stay in cache and none spans a whole input.
BLOCK = 1 << 15
# Biased exponent of 2**990: a bin of values this large could overflow, and
# non-finite values (exponent 2047) have no exact bin at all.
_EXPONENT_CAP = 1023 + 990
# Keeps the sign, the exponent and the top 25 stored mantissa bits.
_HIGH_MASK = np.int64(-(1 << 27))
# Bins per exponent, and each entry's bin within its exponent.
_LANES = 4
_LANE = np.arange(BLOCK, dtype=np.int64) % _LANES
# Exponents per merged window: exact while at most 12 (module docstring).
_WINDOW = 11
# Blocks shorter than this skip the bins: math.fsum alone is faster there.
_FSUM_BELOW = 512
# Parts below this size sum, and double, without overflow (_doubles_exactly).
_DOUBLING_LIMIT = 2.0**990
# exact_power_sums sums a power over the _HEAD entries of largest modulus,
# then over _HEAD_GROWTH times more, until its tail bound settles the rounding.
_HEAD = 16
_HEAD_GROWTH = 4
# Relative and absolute room of that tail bound (exact_power_sums).
_SLACK = 2.0**-40
_TINY = 2.0**-1060


class ExactSum:
    """Running exact sums of the rows of float64 blocks, kept uncopied and rounded once by ``total``."""

    def __init__(self, rows: int = 1) -> None:
        self._partials: list[list[np.ndarray]] = [[] for _ in range(rows)]  # exact doubles, per row

    def add(self, values: np.ndarray) -> None:
        """Add row j of a float64 array to row j (a 1-d array is one row), block by block."""
        rows = values.reshape(len(self._partials), -1)
        if rows.shape[1] < _FSUM_BELOW:
            for partials, row in zip(self._partials, rows):
                partials.append(row)
            return
        for partials, row in zip(self._partials, rows):
            for start in range(0, row.size, BLOCK):
                block = row[start : start + BLOCK]
                if block.size < _FSUM_BELOW:
                    partials.append(block)
                    continue
                bits = block.view(np.int64)
                # exponent * 4 + lane
                key = bits >> 50
                key &= 0x7FF << 2
                key |= _LANE[: block.size]
                top = int(key.max())
                if top >> 2 >= _EXPONENT_CAP:
                    # math.fsum takes these exactly, with its rules for NaN and inf
                    partials.append(block)
                    continue
                # bins and windows start at the block's lowest exponent
                low = int(key.min()) & -_LANES
                key -= low
                starts = np.arange(0, top - low + 1, _WINDOW * _LANES)
                high = (bits & _HIGH_MASK).view(np.float64)
                for part in (high, block - high):
                    windows = np.add.reduceat(np.bincount(key, part), starts)
                    partials.append(windows[windows != 0])

    def _terms(self, row: int) -> list[float]:
        parts = self._partials[row]
        return np.concatenate(parts).tolist() if len(parts) > 1 else parts[0].tolist() if parts else []

    def total(self, row: int = 0) -> float:
        """Correctly rounded sum of everything added so far to a row."""
        return math.fsum(self._terms(row))

    def rounding(self, row: int = 0) -> tuple[float, float]:
        """The correctly rounded sum s of a row, and r = fsum(row + [-s]), the rounded rest."""
        terms = self._terms(row)
        total = math.fsum(terms)
        terms.append(-total)
        return total, math.fsum(terms)


def real_sum(values) -> float:
    """Exactly rounded sum of real values, bit-identical to ``math.fsum``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)  # a strided 1-d view stays uncopied
    if values.size < _FSUM_BELOW:  # what ExactSum does with them, without its bookkeeping
        return math.fsum(values.tolist())
    acc = ExactSum()
    acc.add(values)
    return acc.total()


def complex_sum(values: np.ndarray) -> complex:
    """Exactly rounded sum of a complex array (component-wise)."""
    arr = np.asarray(values, dtype=np.complex128)
    return complex(real_sum(arr.real), real_sum(arr.imag))


def _mirrored(values: np.ndarray) -> np.ndarray:
    """Along the last axis (even length), whether each odd entry mirrors the one before it.

    Mirrors means: every part is finite, the real parts are equal and the
    imaginary parts each other's exact negation, sign of zero included (a
    real part 0 may meet a -0).
    """
    half, other = values[..., 0::2], values[..., 1::2]
    # finite parts are each other's negation, zeros included, iff their bits differ in the sign bit
    negated = half.imag.view(np.int64) == other.imag.view(np.int64) ^ np.int64(-(2**63))
    return (half.real == other.real) & negated & np.isfinite(half)


def _conjugate_half(values: np.ndarray) -> np.ndarray | None:
    """values[..., 0::2] where, along the last axis, each odd entry mirrors the one before it
    (``_mirrored``); None otherwise."""
    if values.shape[-1] % 2 or not _mirrored(values).all():
        return None
    return values[..., 0::2].copy()


def _doubles_exactly(*parts: np.ndarray) -> bool:
    """True when every entry of the float arrays is finite and below 2**990 in size.

    Then the exact sum of the entries and a copy of them is twice their
    exact sum, rounded by ``math.fsum`` to twice its rounding, with no
    intermediate overflow on either side.
    """
    limit = _DOUBLING_LIMIT
    return all(p.size == 0 or -limit < p.min() <= p.max() < limit for p in parts)


def _settled(values: np.ndarray, bound: float) -> float | None:
    """fsum(values), where no rest of size at most bound can change its rounding; None elsewhere."""
    acc = ExactSum()
    acc.add(values)
    total, rest = acc.rounding()
    if total == 0.0:
        return total if bound == 0.0 else None
    # below a power of two the doubles are twice as dense
    half_ulp = math.ulp(total) / (4.0 if abs(math.frexp(total)[0]) == 0.5 else 2.0)
    return total if abs(rest) * (1.0 + 2.0**-52) + bound < half_ulp else None


class _TailBound:
    """D(k, m), a bound on the sum over i >= k of the computed |b_i^m|, the moduli a_i descending.

    The argument is in the ``exact_power_sums`` docstring.  The tail sums
    of a and a^2 are suffix sums, one reverse cumulative sum each, built
    once: sequential sums of N nonnegative terms are within (N - 1) 2^-53
    of their exact sums, which the factor 1 + N 2^-52 covers.
    """

    def __init__(self, moduli: np.ndarray) -> None:
        self._moduli = moduli
        backward = moduli[::-1]
        with np.errstate(over="ignore"):  # an infinite sum is an infinite bound
            self._first = np.cumsum(backward)[::-1]
            self._second = np.cumsum(backward * backward)[::-1]

    def __call__(self, k: int, m: int) -> float:
        moduli = self._moduli
        count = moduli.size - k
        if count == 0 or moduli[k] == 0.0:
            return 0.0  # no tail, or every tail entry is exactly 0
        grow = 1.0 + moduli.size * 2.0**-52
        first = float(self._first[k]) * grow * (1.0 + 2.0 * _SLACK) + count * _TINY
        second = float(self._second[k]) * grow * (1.0 + 4.0 * _SLACK) + count * 8.0 * _TINY
        if m == 1:
            return first * (1.0 + _SLACK)
        absolute = count * (m - 1) * _TINY
        # g^(m-1) beta^(m-2) (second + absolute) with beta = fraction * 2^exponent, scaled
        fraction, exponent = math.frexp(float(moduli[k]) * (1.0 + _SLACK) + _TINY)
        scale, shift = math.frexp(second + absolute)
        exponent = exponent * (m - 2) + shift
        left = m - 2
        while left:  # fraction >= 1/2, so 1000 factors stay normal
            step = min(left, 1000)
            scale, shift = math.frexp(scale * fraction**step)
            exponent += shift
            left -= step
        scale *= (1.0 + _SLACK) ** (m + (m - 2) // 1000)
        try:
            main = math.ldexp(scale, exponent)
        except OverflowError:
            return math.inf
        return (main + absolute + _TINY) * (1.0 + _SLACK)


def _head_sums(base: np.ndarray, m_max: int, halved: bool) -> list[complex] | None:
    """exact_power_sums over the entries of base (one member of each pair where halved), by heads.

    None where a head's power has a part that fails ``_doubles_exactly``.
    """
    base = np.ascontiguousarray(base)
    moduli = np.abs(base)
    if not np.all(moduli[1:] <= moduli[:-1]):  # far fields and line offsets come sorted
        order = np.argsort(-moduli, kind="stable")
        base, moduli = base[order], moduli[order]
    n = base.size
    sizes, size = [], _HEAD
    while size < n:
        sizes.append(size)
        size *= _HEAD_GROWTH
    sizes.append(n)
    bound = _TailBound(moduli)
    # every Re b is +-0: so is Re b^m at odd m, and Im b^m at even m
    imaginary = not np.count_nonzero(base.real)
    power = base  # the m-th powers of base[: power.size]
    sums = []
    for m in range(1, m_max + 1):
        if m == 2:
            power = power * base[: power.size]
        elif m > 2:  # in place, but for a lone element (see product_engine._horner)
            power = np.multiply(power, base[: power.size], power if power.size > 1 else None)
        wanted = (0,) if halved else (0, 1)
        if imaginary:
            wanted = tuple(part for part in wanted if part != 1 - m % 2)
        whole = bound(0, m)
        checked = whole < _DOUBLING_LIMIT  # every part of every power is below 2^990
        if wanted:  # try heads from the least whose tail is below the last bit the sums allow
            limit, tries = whole * 2.0**-52, sizes
        else:  # nothing to sum: keep the head, if its tail is in range
            limit, tries = _DOUBLING_LIMIT, [size for size in sizes if size >= power.size]
        tails: dict[int, float] = {}

        def fits(j: int) -> bool:
            tails[tries[j]] = tail = bound(tries[j], m)
            return tries[j] == n or tail < limit

        # tails fall as heads grow: the least head that fits, sought from the last power's
        j = min(bisect.bisect_left(tries, power.size), len(tries) - 1)
        if fits(j):
            while j and fits(j - 1):
                j -= 1
        else:
            while not fits(j):
                j += 1
        for k in tries[j:]:
            tail = tails[k] if k in tails else bound(k, m)
            if k > power.size:  # late entries take the same repeated multiplication
                late = extra = base[power.size : k]
                for _ in range(m - 1):
                    late = late * extra
                power = np.concatenate([power, late])
            head = power[:k]
            if not (checked or _doubles_exactly(head.view(np.float64))):
                return None
            parts = (head.real, head.imag)
            if k == n:
                values = [real_sum(parts[part]) for part in wanted]
                break
            values = [_settled(parts[part], tail) for part in wanted]
            if None not in values:
                break
        power = power[:k]
        total = dict(zip(wanted, values))
        if halved:
            sums.append(complex(2.0 * total.get(0, 0.0), 0.0))
        else:
            sums.append(complex(total.get(0, 0.0), total.get(1, 0.0)))
    return sums


def exact_power_sums(base: np.ndarray, m_max: int) -> list[complex]:
    """Exactly rounded sums p_m of base**m for m = 1..m_max, powers by repeated multiplication.

    Each part of p_m has the bits of ``math.fsum`` over every entry's m-th
    power.  Where base lists conjugate pairs (``_conjugate_half``), so do its
    powers, since a rounded complex product commutes with conjugation: p_m is
    then twice the real sum over one member of each pair, and 0.0 for the
    imaginary part, where mirrored parts cancel exactly.

    Head.  The entries are put in descending order of their computed moduli
    a_i (one stable sort), and a part is summed over the first k of them, k =
    _HEAD, _HEAD_GROWTH times more and so on, or all N, until the tail i >= k
    cannot change the rounding.  The tail bounds fall as the head grows, so
    each power seeks the least head whose bound fits from the previous
    power's head, in a step or two.  Only the head's powers are carried to the
    next power; an entry that joins a head late takes its power by the same
    repeated multiplication, so it has the bits the whole array gives it.

    Tail bound.  A rounded complex product is within a relative sqrt(5) 2^-53
    of the exact one, plus at most 2^-1073 where parts underflow, and a_i,
    within an ulp, is within 2^-52 a_i + 2^-1074 of |b_i|.  With
    g = 1 + 2^-40, c = 2^-1060 and
    beta = a_k g + c >= |b_i| for i >= k, induction on m gives
    |b_i^m| <= g^(m-1) |b_i|^m + c (m - 1) max(1, (g beta)^(m-2)), so the
    parts of the T tail powers sum to at most

        D = g^(m-1) beta^(m-2) (sum_{i>=k} |b_i|^2 + T (m-1) c) + T (m-1) c,

    and D = sum_{i>=k} |b_i| at m = 1, where b^1 is exact.  ``_TailBound``
    takes the tail sums of a and a^2 with room for their rounding and for
    that of a, forms beta^(m-2) scaled by powers of two, so that it cannot
    underflow while a tail power is a nonzero subnormal, and rounds D up.  A
    tail of exact zeros has D = 0.

    Settle test.  With s = fsum(head) and r = fsum(head + [-s]), the head's
    exact sum is within |r| (1 + 2^-52) of s (r is the rounded rest, exact
    where subnormal), and the full sum within |r| (1 + 2^-52) + D.  Where
    that is strictly below half the spacing of the doubles at s (a quarter
    where |s| is a power of two, below which the spacing halves), the full
    sum rounds to s.  s = 0 means the head's exact sum is 0: it settles only
    where D = 0.

    Parity.  Where every Re b is +-0 (a purely imaginary base, such as the
    1/(+-i tau) of a line's zeros about its centre), Re b^m at odd m and
    Im b^m at even m are +-0 entry by entry, and ``math.fsum`` of signed
    zeros is +0.0: such a part is 0.0 with no sum.

    Range.  Where D over every entry is below 2^990, no part of a power
    reaches 2^990, so no sum overflows and none depends on order.  Elsewhere
    each head is checked with ``_doubles_exactly``, and one that fails sends
    every power to the full base in its given order through ``complex_sum``,
    where NaN, infinities and overflow meet math.fsum's rules.
    """
    half = _conjugate_half(base)
    sums = _head_sums(base if half is None else half, m_max, half is not None)
    if sums is None:
        sums, power = [], base
        for m in range(1, m_max + 1):
            power = power * base if m > 1 else power
            sums.append(complex_sum(power))
    return sums


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log x, log y) points."""

    slope: float
    intercept: float
    rms_residual: float
    n_points: int


def loglog_fit(x, y) -> SlopeFit:
    """Fit log y = slope * log x + intercept by least squares.

    Inputs must be positive; callers filter zeros/negatives first.
    """
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("log-log fit needs at least 2 points")
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - (slope * lx + intercept)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return SlopeFit(slope=slope, intercept=intercept, rms_residual=rms, n_points=int(lx.size))
