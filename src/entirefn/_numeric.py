"""Shared numeric helpers: exactly rounded sums and log-log slope fits.

Every reduction in this package that feeds a user-visible value is exactly
rounded: it returns the same double as ``math.fsum``, the correctly rounded
exact sum, so results do not depend on accumulation order and repeated runs
are bit-identical.

``ExactSum`` keeps the rows of a batch as exact terms and rounds them all at
once (``totals``).  A row of at least _BIN_FROM entries is binned, after
Neal, "Fast exact summation using small and large superaccumulators"
(arXiv:1505.05571); so is a long row left to ``math.fsum``.  Masking the low
27 mantissa bits splits each double x exactly into a high part of 26
significant bits and a low rest.  One ``np.bincount`` per part adds the
rows, at most BLOCK columns at a time, into bins keyed by the biased
exponent of x and a lane, the column mod 4 (four independent chains per
exponent).  The keys of a row are offset by its lowest exponent and then by
the row times a width common to the rows, a whole number of windows, so
every row keeps its own bins and its own windows.  The parts in one bin are multiples of one
power of two, below 2**27 of them in size: a bin's sum is exact.
``np.add.reduceat`` then merges the bins of each window of W = 11
exponents, exactly too: counted in units of the spacing at the window's
lowest exponent, a part is below 2**(W + 26) units, and a row of a block
holds at most 2**15 entries, so every partial sum stays below 2**(W + 41)
units, exact while W <= 12.  The window sums are the row's terms.  A block
with a value of 2**990 or more, or one that is not finite, keeps its values.

Rounding.  A large enough batch is rounded by one
error-free extraction over all its rows, after Rump, Ogita & Oishi, SIAM J.
Sci. Comput. 26 (2005) and 31 (2008).  Per row of n terms, sigma is a power
of two above 2 n max |x|.  Each q = fl(x + sigma) - sigma is exact and a
multiple of sigma 2^-53, and the q add to at most sigma in size, so
tau = sum q is exact in any order.  Each p = x - q is exact too, with
|p| <= sigma 2^-52, so the plain sum P of the p is within
gamma_(n-1) n sigma 2^-52 < n^2 sigma 2^-104 of theirs.  With
t = fl(tau + P) and TwoSum's exact rest r, the exact row sum is within
|r| + delta of t, delta = n^2 sigma 2^-103 + 2^-1070 (the last term covers
an underflowing product).  Where fl(|r| + delta) is below half the spacing
of the doubles below |t|, so is |r| + delta (rounding is monotone and the
half spacing a double), and the exact sum lies strictly nearer t than any
other double: t is the correctly rounded sum, fsum's.  The extraction is
trusted only where max |x| < 2^978 / n, so no partial sum, its own or
fsum's, reaches 2^990, and no total below 2^-1017 passes (delta is past its
half spacing): every +-0, whose sign fsum decides, and every subnormal
goes to ``math.fsum`` over its terms, as do rows out of range, with inf or
NaN, and every row of a smaller batch, in row order.

Power sums p_m = sum b_i^m stop early (``exact_power_sums``): each part is
summed over a head of the entries of largest modulus, 16, 64, 256, ...
of them, until a rigorous bound D on the rest shows that it cannot move the
correctly rounded sum.  The powers on one head are summed in one
multi-row pass.  Where every Re b is +-0 the parts that are +-0 by the
parity of m are 0.0 with no sum.

Values that come in conjugate pairs are summed once (``_conjugate_half``,
used by ``exact_power_sums`` and the factor reducer of ``product_engine``).
The exact sum of x and a copy of x is twice the exact sum of x, and doubling
is exact, also for subnormals, whose sums are exact.  So below 2**990 in
size, where no sum can overflow, 2 * fsum(x) has the bits of fsum(x + x).
``math.fsum`` of mirrored imaginary parts, +-y, is +0.0.
"""

from __future__ import annotations

import itertools
import math
import operator
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
# Rows this long are binned as they are added; a row left to math.fsum, from
# _FSUM_BELOW entries on.  Batches of fewer terms than _CERTIFY_TERMS, or of
# fewer rows than _CERTIFY_ROWS and terms than _CERTIFY_LONE, go to
# math.fsum row by row, where the extraction would not pay.  Set from
# in-process timings (CHANGES.md).
_BIN_FROM = 1 << 14
_FSUM_BELOW = 768
_CERTIFY_ROWS = 4
_CERTIFY_TERMS = 1024
_CERTIFY_LONE = 3072
# Parts below this size sum, and double, without overflow (_doubles_exactly).
_DOUBLING_LIMIT = 2.0**990
# exact_power_sums sums a power over the _HEAD entries of largest modulus,
# then over _HEAD_GROWTH times more, until its tail bound settles the rounding.
_HEAD = 16
_HEAD_GROWTH = 4
# Relative and absolute room of that tail bound (exact_power_sums).
_SLACK = 2.0**-40
_TINY = 2.0**-1060
# Head entries per multi-row pass of _head_sums: its arrays stay below 128 KiB.
_HEAD_ENTRIES = 15 << 10


class ExactSum:
    """Running exact sums of the rows of float64 blocks, kept as exact terms and rounded by ``totals``."""

    def __init__(self, rows: int = 1) -> None:
        self._rows = rows
        self._parts: list[np.ndarray] = []  # (rows, k) arrays of exact doubles: each row's terms

    def add(self, values: np.ndarray) -> None:
        """Add row j of a float64 array to row j (a 1-d array is one row)."""
        rows = values.reshape(self._rows, -1)
        self._parts.append(rows if rows.shape[1] < _BIN_FROM else _window_sums(rows))

    def _terms(self, rows=None) -> np.ndarray:
        parts = self._parts
        terms = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0] if parts else np.zeros((self._rows, 0))
        return terms if rows is None else terms[rows]

    def totals(self) -> np.ndarray:
        """Correctly rounded sums of every row, with ``math.fsum``'s bits and
        its exceptions, the first in row order (``complex_totals``)."""
        return complex_totals(self).real.copy()


def _window_sums(rows: np.ndarray) -> np.ndarray:
    """The exact window sums of each row of a 2-d array, by blocks of BLOCK columns (``_binned``)."""
    if rows.shape[1] <= BLOCK:
        return _binned(rows)
    return np.concatenate([_binned(rows[:, start : start + BLOCK]) for start in range(0, rows.shape[1], BLOCK)], axis=1)


def _binned(block: np.ndarray) -> np.ndarray:
    """The exact window sums of each row of a 2-d block, its high parts' then
    its low parts' (module docstring), or the block itself where a value
    reaches 2**990 or is not finite."""
    count, width = block.shape
    bits = block.view(np.int64)
    # exponent * 4 + lane
    key = bits >> 50
    key &= 0x7FF << 2
    key |= _LANE[:width]
    top = key.max(axis=1).tolist()
    if max(top) >> 2 >= _EXPONENT_CAP:
        return block  # math.fsum takes these exactly, with its rules for NaN and inf
    low = (key.min(axis=1) & -_LANES).tolist()
    span = _WINDOW * _LANES
    size = -(-(max(map(operator.sub, top, low)) + 1) // span) * span  # bins per row, whole windows
    key -= low[0] if count == 1 else np.subtract(low, np.arange(0, count * size, size))[:, None]
    key, starts = key.ravel(), np.arange(0, count * size, span)
    part = (bits & _HIGH_MASK).view(np.float64)
    high = np.add.reduceat(np.bincount(key, part.ravel(), count * size), starts)
    low = np.add.reduceat(np.bincount(key, np.subtract(block, part, out=part).ravel(), count * size), starts)
    return np.concatenate([high.reshape(count, -1), low.reshape(count, -1)], axis=1)


@np.errstate(over="ignore", invalid="ignore")
def _extract(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a 2-d array of exact terms: t, and fl(|r| + delta) (module
    docstring), inf where max |x| is not below 2^978 / n."""
    width = terms.shape[1]
    largest = np.maximum(terms.max(axis=1), -terms.min(axis=1))
    sigma = np.ldexp(1.0, np.frexp(largest)[1] + (2 * width).bit_length())  # > 2 n max |x|
    high = terms + sigma[:, None]
    high -= sigma[:, None]
    tau = high.sum(axis=1)
    rest_sum = np.subtract(terms, high, out=high).sum(axis=1)
    total = tau + rest_sum
    z = total - tau
    rest = (tau - (total - z)) + (rest_sum - z)
    bound = np.abs(rest) + (sigma * (width * width * 2.0**-103) + 2.0**-1070)
    return total, np.where(largest < 2.0**-12 * _DOUBLING_LIMIT / width, bound, math.inf)


def _half_spacing(total: np.ndarray) -> np.ndarray:
    """Half the spacing of the doubles below each |total|, the smaller of its two; 0 for subnormals."""
    size = np.abs(total)
    return (size - np.nextafter(size, 0.0)) * 0.5


def complex_totals(real: ExactSum, imag: ExactSum | None = None, rows=None) -> np.ndarray:
    """The correctly rounded sums of the rows of real, plus 1j times imag's, of
    every row or of the rows ``rows`` indexes, both parts in one extraction.
    The rows it leaves take ``math.fsum``, each row's real part before its
    imaginary part, in row order: the first exception is the one rounding
    row by row raises, as a row the extraction settles raises none."""
    # an imaginary part with no terms is fsum([]) = 0.0: it joins no extraction
    terms = [real._terms(rows)] if imag is None or not imag._parts else [real._terms(rows), imag._terms(rows)]
    count, width = len(terms[0]), max(terms[0].shape[1], terms[-1].shape[1])
    height = count * len(terms)
    if height * width < _CERTIFY_TERMS or height < _CERTIFY_ROWS and height * width < _CERTIFY_LONE:
        parts = (map(math.fsum, _fsum_rows(values)) for values in terms)
        return np.array(list(map(complex, *parts)), dtype=np.complex128)  # row j's real total, then its imaginary one
    stacked = np.full((height, width), -0.0)  # -0.0 changes no sum, nor its sign
    for first, values in zip((0, count), terms):
        stacked[first : first + count, : values.shape[1]] = values
    total, bound = _extract(stacked)
    left = sorted(np.flatnonzero(~(bound < _half_spacing(total))).tolist(), key=lambda j: (j % count, j))
    if left:
        total = total.tolist()
        for j, row in zip(left, _fsum_rows(stacked[left])):
            total[j] = math.fsum(row)
    out = np.zeros(count, dtype=np.complex128)
    out.real, out.imag = total[:count], total[count:] if len(terms) > 1 else 0.0
    return out


def _fsum_rows(rows: np.ndarray) -> list[list[float]]:
    """Terms for math.fsum of each row of a 2-d array: its window sums where the
    rows are long (one pass for them all), else the row itself."""
    return (_window_sums(rows) if rows.shape[1] >= _FSUM_BELOW and len(rows) else rows).tolist()


def real_sum(values) -> float:
    """Exactly rounded sum of real values, bit-identical to ``math.fsum``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)  # a strided 1-d view stays uncopied
    return math.fsum(values.tolist() if values.size < _FSUM_BELOW else _window_sums(values[None, :])[0].tolist())


def complex_sum(values: np.ndarray) -> complex:
    """Exactly rounded sum of a complex array (component-wise)."""
    arr = np.asarray(values, dtype=np.complex128).reshape(-1)
    if arr.size < _FSUM_BELOW:  # math.fsum straight from the parts
        return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))
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


def _settle_rows(block: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a block of head powers: a sum t, and whether every rest of size
    at most tails[j] leaves t the correctly rounded sum of the row and the rest
    (the settle test of ``exact_power_sums``)."""
    terms = _window_sums(block) if block.shape[1] >= _BIN_FROM else block
    total, bound = _extract(terms)
    bound *= 1.0 + 2.0**-51
    settled = bound + tails < _half_spacing(total)
    # math.fsum for rows out of range, and for the unsettled rows with a tail of exact zeros
    exact = np.flatnonzero((bound == math.inf) | ~settled & (tails == 0.0)).tolist()
    for j, row in zip(exact, _fsum_rows(terms[exact])):
        total[j] = math.fsum(row)
        row.append(-total[j])
        bound[j] = abs(math.fsum(row)) * (1.0 + 2.0**-51)
    if exact:  # an exact head sum (0 included) with a tail of exact zeros settles too
        settled = (bound + tails < _half_spacing(total)) | (bound == 0.0) & (tails == 0.0)
    return total, settled


@np.errstate(over="ignore", invalid="ignore")
def _tail_bounds(moduli: np.ndarray, heads: list[int], m_max: int) -> np.ndarray:
    """D(k, m) of ``exact_power_sums`` for each head k (rows, ascending from 0)
    and m = 1..m_max (columns), the moduli a_i descending.  Any sum of N
    nonnegative terms is within (N - 1) 2^-53 of its exact sum, which the
    factor 1 + N 2^-52 covers."""
    n, k = moduli.size, np.array(heads)
    inner = k[k < n]
    tails = np.zeros((k.size, m_max))
    if not inner.size:
        return tails
    count = (n - inner).astype(np.float64)
    grow = 1.0 + n * 2.0**-52
    first = np.cumsum(np.add.reduceat(moduli, inner)[::-1])[::-1] * grow * (1.0 + 2.0 * _SLACK) + count * _TINY
    second = np.cumsum(np.add.reduceat(moduli * moduli, inner)[::-1])[::-1]
    second = second * grow * (1.0 + 4.0 * _SLACK) + count * 8.0 * _TINY
    beta = moduli[inner] * (1.0 + _SLACK) + _TINY
    bound = _power_bounds(count, second, beta, m_max)
    bound[:, 0] = first * (1.0 + _SLACK)
    bound[moduli[inner] == 0.0] = 0.0  # every tail entry is exactly 0
    smallest = float(beta.min())
    if smallest < 0.5 and smallest ** max(m_max - 2, 0) < 2.0**-960:  # some powers reach the subnormals
        # the same bound on one entry: from a power whose parts it puts below 2^-1022 (_vanishing)
        one = _power_bounds(np.ones(inner.size), beta * beta * (1.0 + 4.0 * _SLACK) + 8.0 * _TINY, beta, m_max)
        one[:, 0] = beta  # b itself
        for row, (size, small) in enumerate(zip(beta.tolist(), one < 2.0**-1022)):
            if size < 0.5 and small.any():
                start = int(np.argmax(small))
                bound[row, _vanishing(size, start + 1, float(one[row, start]), m_max) - 1 :] = 0.0
    tails[: inner.size] = np.where(np.logical_or.accumulate(bound == 0.0, axis=0), 0.0, bound)  # and their tails
    return tails


def _power_bounds(count: np.ndarray, second: np.ndarray, beta: np.ndarray, m_max: int) -> np.ndarray:
    """D of ``_tail_bounds`` per row (count tail entries, the bound second on the
    sum of their squares, beta) and m = 1..m_max, but for m = 1."""
    m = np.arange(1, m_max + 1)
    absolute = count[:, None] * (m - 1) * _TINY
    # log2 of g^(m-1) beta^(m-2) (second + absolute), raised past the rounding of
    # its terms, each below |log| + 2200 in size; exp2 of it cannot underflow early
    log_main = np.log2(second[:, None] + absolute) + np.log2(beta)[:, None] * np.maximum(m - 2, 0)
    log_main += (m - 1) * math.log2(1.0 + _SLACK)
    log_main += (np.abs(log_main) + 4096.0) * 2.0**-40
    return (np.exp2(log_main) + absolute + _TINY) * (1.0 + _SLACK)


def _vanishing(beta: float, first: int, start: float, m_max: int) -> int:
    """The least power m <= m_max whose tail parts are all +-0, from parts of
    power ``first`` at most ``start`` < 2^-1022 and entries at most beta < 1/2
    (``exact_power_sums``); m_max + 1 where there is none."""
    units, grow, m = math.ceil(math.ldexp(start, 1074)), beta * (1.0 + 2.0**-50), first
    while units and m < m_max:
        product = units * grow
        following = max(2 * math.ceil(product) if product >= 0.5 else 0, math.ceil(2.0 * product) if product >= 0.25 else 0)
        if following >= units:
            return m_max + 1
        units, m = following, m + 1
    return m_max + 1 if units else m


def _head_sums(base: np.ndarray, m_max: int, halved: bool) -> list[complex] | None:
    """exact_power_sums over the entries of base (one member of each pair where halved), by heads.

    None where a power's bound over every entry is not below 2^990.
    """
    base = np.ascontiguousarray(base)
    moduli = np.abs(base)
    if not np.all(moduli[1:] <= moduli[:-1]):  # far fields and line offsets come sorted
        order = np.argsort(-moduli, kind="stable")
        base, moduli = base[order], moduli[order]
    n = base.size
    if not n:
        return [0j] * m_max
    sizes = [_HEAD * _HEAD_GROWTH**i for i in range(40) if _HEAD * _HEAD_GROWTH**i < n] + [n]
    bounds = _tail_bounds(moduli, [0, *sizes], m_max)
    del moduli  # the sums' temporaries come next
    whole = bounds[0]
    if not np.all(whole < _DOUBLING_LIMIT):
        return None
    # each power's least head whose tail is below the last bit the sums allow
    fits = (bounds[1:] < whole * 2.0**-58) | (bounds[1:] == 0.0)
    fits[-1] = True
    head = np.argmax(fits, axis=0).tolist()
    # every Re b is +-0: so is Re b^m at odd m, and Im b^m at even m
    imaginary = not np.count_nonzero(base.real)
    rows = {
        (m, part): head[m - 1] for m in range(1, m_max + 1)
        for part in ((0,) if halved else (0, 1)) if not (imaginary and part == 1 - m % 2)
    }
    sums = np.zeros((m_max, 2))
    while rows:  # the rows a head does not settle go to the next head, in one more chain
        rows = _sum_heads(base, rows, sizes, bounds, sums)
    if halved:
        return [complex(2.0 * total, 0.0) for total in sums[:, 0].tolist()]
    return [complex(re, im) for re, im in sums.tolist()]


def _sum_heads(base: np.ndarray, rows: dict, sizes: list[int], bounds: np.ndarray, sums: np.ndarray) -> dict:
    """One chain of repeated multiplications over the entries that the rows'
    heads need, each row (m, part) on its head sizes[rows[m, part]].  Rows go
    in blocks of at most _HEAD_ENTRIES entries, a row shorter than the first
    padded with -0.0, one multi-row pass each; a head of more by itself,
    uncopied.  Returns the rows a head did not settle, on the next head."""
    need = [0] * (max(m for m, _ in rows) + 1)
    for (m, _), j in rows.items():
        need[m] = max(need[m], sizes[j])
    reach = list(itertools.accumulate(need[::-1], max))[::-1]
    left: dict[tuple[int, int], int] = {}
    block, labels, power, factor, length = np.empty((0, 0)), [], base, base, base.size
    for m in range(1, len(need)):
        if reach[m] != length:
            length, power, factor = reach[m], power[: reach[m]], base[: reach[m]]
        if m == 2:
            power = power * factor
        elif m > 2:  # in place, but for a lone element (see product_engine._horner)
            power = np.multiply(power, factor, power if length > 1 else None)
        for part in (0, 1):
            if (m, part) not in rows:
                continue
            k = sizes[rows[m, part]]
            if labels and (k > block.shape[1] or len(labels) == len(block)):
                _sum_block(block[: len(labels)], labels, rows, sizes, bounds, sums, left)
                labels = []
            row = (power.real, power.imag)[part][:k]
            if k > _HEAD_ENTRIES:
                _sum_block(row[None, :], [(m, part)], rows, sizes, bounds, sums, left)
                continue
            if not labels:
                block = np.full((_HEAD_ENTRIES // k, k), -0.0)
            block[len(labels), :k] = row
            labels.append((m, part))
    if labels:
        _sum_block(block[: len(labels)], labels, rows, sizes, bounds, sums, left)
    return left


def _sum_block(block: np.ndarray, labels: list, rows: dict, sizes, bounds, sums, left: dict) -> None:
    """Settle a block of rows, each on its head j: a settled sum, or any sum on
    the last head (every entry; ``_settle_rows`` takes math.fsum where it does
    not settle), goes into sums[m - 1, part], another row into left on j + 1."""
    heads = [rows[label] for label in labels]
    totals, settled = _settle_rows(block, bounds[[j + 1 for j in heads], [m - 1 for m, _ in labels]])
    for (m, part), j, total, done in zip(labels, heads, totals.tolist(), settled.tolist()):
        if done or j == len(sizes) - 1:
            sums[m - 1, part] = total
        else:
            left[m, part] = j + 1


def exact_power_sums(base: np.ndarray, m_max: int) -> list[complex]:
    """Exactly rounded sums p_m of base**m for m = 1..m_max, powers by repeated multiplication.

    Each part of p_m has the bits of ``math.fsum`` over every entry's m-th
    power.  Where base lists conjugate pairs (``_conjugate_half``), so do its
    powers, since a rounded complex product commutes with conjugation: p_m is
    then twice the real sum over one member of each pair, and 0.0 for the
    imaginary part, where mirrored parts cancel exactly.

    Heads.  The entries are sorted by their computed moduli a_i, descending,
    and a part is summed over the first k, k = _HEAD, _HEAD_GROWTH times more
    and so on, or all N, until the tail i >= k cannot change its rounding.
    Each power starts on the least head whose tail bound D(k, m), one table
    for all, is below the last bit its sums allow.  One chain of repeated
    multiplications carries the entries the heads still need, and the
    powers on one head are summed in one multi-row pass.  A part its head
    does not settle goes to the next head, in one more such chain, so every
    entry has the bits the whole array gives it.

    Tail bound.  A rounded complex product is within a relative sqrt(5) 2^-53
    of the exact one, plus at most 2^-1073 where parts underflow, and a_i is
    within 2^-52 a_i + 2^-1074 of |b_i|.  With g = 1 + 2^-40, c = 2^-1060 and
    beta = a_k g + c >= |b_i| for i >= k, induction on m gives
    |b_i^m| <= g^(m-1) |b_i|^m + c (m - 1) max(1, (g beta)^(m-2)), so the
    parts of the T tail powers sum to at most

        D = g^(m-1) beta^(m-2) (sum_{i>=k} |b_i|^2 + T (m-1) c) + T (m-1) c,

    and D = sum_{i>=k} |b_i| at m = 1.  ``_tail_bounds`` forms D in the log
    domain, raised past its rounding (exp2 of it cannot underflow before D
    itself), and adds its absolute terms.  A tail of exact zeros has D = 0.

    Vanishing.  Once the bound with T = 1 puts the parts of a power below
    2^-1022, every rounding lands on multiples of 2^-1074: count the parts
    in those units, at most K.  A part of the next power, x u - y v or
    x v + y u with |x|, |y| <= K and |u|, |v| <= beta, is at most 2 RN(K beta)
    with two roundings (with or without a fused multiply-add) and RN(2 K beta)
    with one, RN(v) being 0 below 1/2 and at most ceil(v).  With beta < 1/2
    the count falls to 0 (``_vanishing``): from that power on D = 0, for k
    and every larger head, and exact head sums settle.

    Settle test.  With a sum t of the head and a bound e on |exact head
    sum - t| (the extraction's, or |fsum(head + [-t])| with room), the full
    sum is within e + D of t: where that is below half the spacing of the
    doubles below |t|, it rounds to t.  e = 0 settles where D = 0.

    Parity.  Where every Re b is +-0 (a purely imaginary base, such as the
    1/(+-i tau) of a line's zeros about its centre), Re b^m at odd m and
    Im b^m at even m are +-0 entry by entry, and ``math.fsum`` of signed
    zeros is +0.0: such a part is 0.0 with no sum.

    Range.  Where D over every entry is below 2^990, no part of a power
    reaches 2^990, so no sum overflows and none depends on order.  Elsewhere
    every power goes to the full base in its given order through
    ``complex_sum``, where NaN, infinities and overflow meet math.fsum's
    rules: the same sums where no part reaches 2^990.
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
