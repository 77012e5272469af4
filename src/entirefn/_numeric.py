"""Shared numeric helpers: exactly rounded sums and log-log slope fits.

Every reduction in this package that feeds a user-visible value is exactly
rounded: it returns the same double as ``math.fsum``, the correctly rounded
exact sum, so results do not depend on accumulation order and repeated runs
are bit-identical.

The sums are binned, after Neal, "Fast exact summation using small and large
superaccumulators" (arXiv:1505.05571).  Masking the low 27 mantissa bits
splits each double x exactly into a high part of 26 significant bits and a
low rest, and ``np.bincount`` adds each part, block by block, into a bin
keyed by the biased exponent of x.  All values in one bin are integer
multiples of one power of two, below 2**27 of them in size, so a bin's sum
is exact for up to 2**26 entries, far more than a block holds.  One
``math.fsum`` over the nonzero bin sums rounds the exact total once.
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
# Blocks shorter than this skip the bins: math.fsum alone is faster there.
_FSUM_BELOW = 512


class ExactSum:
    """Running exact sum of float64 blocks, rounded once by ``total``."""

    def __init__(self) -> None:
        # exact doubles whose sum is the total so far
        self._partials: list[float] = []

    def add(self, values: np.ndarray) -> None:
        """Add a 1-d float64 array, block by block."""
        for start in range(0, values.size, BLOCK):
            block = values[start : start + BLOCK]
            if block.size < _FSUM_BELOW:
                self._partials.extend(block.tolist())
                continue
            bits = block.view(np.int64)
            exponent = (bits >> 52) & 0x7FF
            if int(exponent.max()) >= _EXPONENT_CAP:
                # math.fsum takes these exactly, with its rules for NaN and inf
                self._partials.extend(block.tolist())
                continue
            high = (bits & _HIGH_MASK).view(np.float64)
            for part in (high, block - high):
                bins = np.bincount(exponent, part)
                self._partials.extend(bins[bins != 0].tolist())

    def total(self) -> float:
        """Correctly rounded sum of everything added so far."""
        return math.fsum(self._partials)


def real_sum(values) -> float:
    """Exactly rounded sum of real values, bit-identical to ``math.fsum``."""
    acc = ExactSum()
    acc.add(np.ravel(np.asarray(values, dtype=np.float64)))
    return acc.total()


def complex_sum(values: np.ndarray) -> complex:
    """Exactly rounded sum of a complex array (component-wise)."""
    arr = np.asarray(values, dtype=np.complex128)
    return complex(real_sum(arr.real), real_sum(arr.imag))


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
