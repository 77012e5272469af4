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

Values that come in conjugate pairs are summed once (``_conjugate_half``,
used by ``exact_power_sums`` and the factor reducer of ``product_engine``).
The exact sum of x and a copy of x is twice the exact sum of x, and doubling
is exact, also for subnormals, whose sums are exact.  So below 2**990 in
size, where no sum can overflow, 2 * fsum(x) has the bits of fsum(x + x).
``math.fsum`` of mirrored imaginary parts, +-y, is +0.0.
"""

from __future__ import annotations

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
# exact_power_sums looks for vanished entries at every this many powers.
_DROP_EVERY = 16
# Parts below this size sum, and double, without overflow (_doubles_exactly).
_DOUBLING_LIMIT = 2.0**990


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

    def total(self, row: int = 0) -> float:
        """Correctly rounded sum of everything added so far to a row."""
        parts = self._partials[row]
        return math.fsum(np.concatenate(parts).tolist() if len(parts) > 1 else parts[0].tolist() if parts else ())


def real_sum(values) -> float:
    """Exactly rounded sum of real values, bit-identical to ``math.fsum``."""
    acc = ExactSum()
    acc.add(np.ravel(np.asarray(values, dtype=np.float64)))
    return acc.total()


def complex_sum(values: np.ndarray) -> complex:
    """Exactly rounded sum of a complex array (component-wise)."""
    arr = np.asarray(values, dtype=np.complex128)
    return complex(real_sum(arr.real), real_sum(arr.imag))


def _conjugate_half(values: np.ndarray) -> np.ndarray | None:
    """values[..., 0::2] where, along the last axis, each odd entry mirrors the one before it.

    Mirrors means: the axis has even length, every part is finite, the real
    parts are equal and the imaginary parts each other's exact negation,
    sign of zero included (a real part 0 may meet a -0).  None otherwise.
    """
    if values.shape[-1] % 2:
        return None
    half, other = values[..., 0::2], values[..., 1::2]
    # finite parts are each other's negation, zeros included, iff their bits differ in the sign bit
    mirrored = not (
        np.count_nonzero(half.real != other.real)
        or np.count_nonzero(half.imag.view(np.int64) != other.imag.view(np.int64) ^ np.int64(-(2**63)))
        or np.count_nonzero(~np.isfinite(half))
    )
    return half.copy() if mirrored else None


def _doubles_exactly(*parts: np.ndarray) -> bool:
    """True when every entry of the float arrays is finite and below 2**990 in size.

    Then the exact sum of the entries and a copy of them is twice their
    exact sum, rounded by ``math.fsum`` to twice its rounding, with no
    intermediate overflow on either side.
    """
    limit = _DOUBLING_LIMIT
    return all(p.size == 0 or -limit < p.min() <= p.max() < limit for p in parts)


def _powers(base: np.ndarray, m_max: int):
    """base**m for m = 1..m_max by repeated multiplication, less vanished entries.

    An entry whose power has become exactly 0 is dropped: every later power
    of it is 0 as well.  The search for such entries costs a pass, more
    than a multiplication, so it runs only at every ``_DROP_EVERY``-th power.
    """
    power = base
    for m in range(1, m_max + 1):
        if m > 1:
            power = power * base
        if m % _DROP_EVERY == 0:
            alive = power != 0
            if not alive.all():
                base, power = base[alive], power[alive]
        yield power


def exact_power_sums(base: np.ndarray, m_max: int) -> list[complex]:
    """Exactly rounded sums of base**m for m = 1..m_max.

    Zeros leave an exact sum unchanged (an empty sum is 0.0, as is
    ``math.fsum`` of zeros), so dropping vanished powers keeps the bits.
    Where base lists conjugate pairs (``_conjugate_half``), so do its
    powers, since a rounded complex product commutes with conjugation: p_m
    is then twice the real sum over one member of each pair, and 0.0 for
    the imaginary part, where mirrored parts cancel exactly.  A power whose
    parts fail ``_doubles_exactly`` sends every sum back to the full base.
    """
    half = _conjugate_half(base)
    if half is not None:
        sums = []
        for power in _powers(half, m_max):
            # every power is a fresh contiguous array, so both parts view as one
            if not _doubles_exactly(power.view(np.float64)):
                break
            sums.append(complex(2.0 * real_sum(power.real), 0.0))
        else:
            return sums
    return [complex_sum(power) for power in _powers(base, m_max)]


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
