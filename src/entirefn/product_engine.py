"""Truncated canonical products, recentered products, and log-derivatives.

Evaluation strategy
-------------------
Products are accumulated in the log domain and exponentiated once.  One
vectorised factor kernel, ``_log_factors``, gives log(1 - w) at genus 0 and
the fused log(1 - w) + w at genus 1, for w = s/z_k:

    Im    atan2(-Im w, 1 - Re w), the principal branch
    Re    1/2 log1p(Re w (Re w - 2) + (Im w)^2) where Re w < 1/2 and
          |w| < 1, log hypot(1 - Re w, Im w) elsewhere
    genus 1 with |w| <= 1/2: the tail series -sum_{m>=2} w^m/m, to the
          Horner degree its remainder bound needs in each |w| band

so small factors keep full relative accuracy and factors near a zero full
absolute accuracy.  Zeros go through in blocks of at most 2**15, each block
streamed into an exactly rounded sum (``_numeric.ExactSum``), so no
temporary spans all N zeros and results are independent of accumulation
order and bit-identical across runs.  The declared pairing of the zero
sequence still matters for tail estimates and power sums, where grouped
magnitudes are what converge.

Only |exp(...)| and per-factor phases are contractually meaningful: summed
imaginary parts are not unwound to a continuous branch.  A factor that is
exactly zero (w == 1) makes the value an exact 0 with no logarithm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._numeric import BLOCK, ExactSum, complex_sum
from .core_types import EntireFunctionSpec

__all__ = [
    "TruncatedEvaluation",
    "eval_product",
    "eval_shifted_product",
    "shift_constant_residual",
    "log_derivative",
]

# A point counts as "near" a retained zero within this relative distance.
NEAR_ZERO_COEFF = 1e-9
# Coincidence threshold for hard guards (shift point / pole detection).
COINCIDENT_RELATIVE = 1e-12
# Relative truncation target of the genus-1 tail series.
SERIES_RELATIVE_TOL = 1e-15


def _tail_degrees() -> np.ndarray:
    """Degree M at which -sum_{m=2..M} w^m/m meets SERIES_RELATIVE_TOL, per band.

    Entry k >= 1 serves |w|^2 in [2**-(k+1), 2**-k), the exponent np.frexp
    gives (entry 0 serves w == 0).  For |w| <= r <= 1/2 the remainder after
    w^M/M is at most r^(M+1) / ((M+1)(1-r)) and the series is at least
    r^2/2 - r^3/(3(1-r)); their ratio grows with r, so a band's largest r
    fixes its degree.
    """
    degrees = [2]
    while degrees[-1] > 2 or len(degrees) < 2:
        r = min(2.0 ** (-len(degrees) / 2.0), 0.5)
        smallest = r * r / 2.0 - r**3 / (3.0 * (1.0 - r))
        degree = 2
        while r ** (degree + 1) / ((degree + 1) * (1.0 - r)) > SERIES_RELATIVE_TOL * smallest:
            degree += 1
        degrees.append(degree)
    return np.array(degrees, dtype=np.int8)


_TAIL_DEGREES = _tail_degrees()


def _exp_saturating(z: complex) -> complex:
    """exp(z), overflowing to a phase-correct complex infinity instead of raising."""
    try:
        return cmath.exp(z)
    except OverflowError:
        return cmath.rect(math.inf, z.imag)


def _log_tail(w: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """-sum_{m>=2} w^m/m for |w| <= 1/2 (r2 = |w|^2), each w to its band's degree.

    Sorting by degree, descending, makes the terms still to be added at
    each Horner step a prefix of the array.
    """
    degree = _TAIL_DEGREES[np.minimum(-np.frexp(r2)[1], _TAIL_DEGREES.size - 1)]
    order = np.argsort(-degree, kind="stable")
    ws = w[order]
    acc = (1.0 / degree[order]).astype(np.complex128)
    # above[m]: how many elements have a degree above m
    above = ws.size - np.cumsum(np.bincount(degree))
    for m in range(int(degree.max(initial=2)) - 1, 1, -1):
        active = int(above[m])
        acc[:active] *= ws[:active]
        acc[:active] += 1.0 / m
    tail = np.empty_like(ws)
    tail[order] = -(ws * ws) * acc
    return tail


def _log_factors(w, genus: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of log(1 - w) (genus 0) or log(1 - w) + w (genus 1).

    Elementwise over a 1-d array of w = s/z.  The imaginary part is the
    principal argument of 1 - w (plus Im w at genus 1).  At w == 1 the real
    part is -inf.
    """
    if genus not in (0, 1):
        raise ValueError(f"factor genus must be 0 or 1, got {genus}")
    w = np.asarray(w, dtype=np.complex128)
    a, b = w.real, w.imag
    r2 = a * a + b * b
    # both branches of every switch are evaluated; only the chosen one is kept
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        one_minus = 1.0 - a
        imag = np.arctan2(-b, one_minus)
        real = 0.5 * np.log1p(a * (a - 2.0) + b * b)
        far = np.flatnonzero((a >= 0.5) | (r2 >= 1.0))
        real[far] = np.log(np.hypot(one_minus[far], b[far]))
        if genus == 1:
            real += a
            imag += b
            series = np.flatnonzero(r2 <= 0.25)
            tail = _log_tail(w[series], r2[series])
            real[series] = tail.real
            imag[series] = tail.imag
    return real, imag


def _blocks(values: np.ndarray) -> Iterable[np.ndarray]:
    return (values[start : start + BLOCK] for start in range(0, values.size, BLOCK))


def _sum_log_factors(w_blocks: Iterable[np.ndarray], genus: int) -> complex | None:
    """Exactly rounded sum of the factor logs over blocks of w.

    Returns None when some w == 1, so that the product vanishes exactly.
    """
    real, imag = ExactSum(), ExactSum()
    for w in w_blocks:
        if np.any(w == 1.0):
            return None
        log_real, log_imag = _log_factors(w, genus)
        real.add(log_real)
        imag.add(log_imag)
    return complex(real.total(), imag.total())


@dataclass(frozen=True)
class TruncatedEvaluation:
    """Value of a truncated product with truncation diagnostics.

    ``tail_bound`` estimates the relative modulus error of the omitted
    factors as exp(|s|**(genus+1) * T) - 1, where T combines the measured
    factor-size tail beyond the truncation with a fitted extrapolation past
    the available data.  It is None when the data does not support a
    convergent extrapolation, and it is an estimate, not a certificate.

    ``log_value`` accompanies every nonzero value (exp(log_value) agrees
    with ``value`` to rounding; its imaginary part is not branch-normalized).
    """

    value: complex
    terms_used: int
    tail_bound: float | None
    nearest_zero_distance: float
    near_zero: bool
    log_value: complex | None

    def __post_init__(self) -> None:
        if self.tail_bound is not None and self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative when finite")
        if (self.value == 0) != (self.log_value is None):
            raise ValueError("log_value must be absent exactly when value == 0")


def _retained(spec: EntireFunctionSpec, n_terms: int | None) -> np.ndarray:
    available = spec.n_zeros
    n = available if n_terms is None else int(n_terms)
    if n < 0:
        raise ValueError(f"n_terms must be >= 0, got {n}")
    if n > available:
        raise ValueError(f"insufficient zeros: requested {n}, available {available}")
    return spec.zero_sequence.zeros[:n]


def _guard_coincident(point: complex, zeros: np.ndarray, message: str) -> None:
    """Raise ValueError(message) when point coincides with a retained zero z.

    Coincidence is relative, |point - z| <= 1e-12 * (1 + |z|); the contour
    clearance of ``analysis.verify_multiplicity`` is a separate, absolute test.
    """
    if zeros.size:
        gap = np.abs(point - zeros) / (1.0 + np.abs(zeros))
        if float(np.min(gap)) <= COINCIDENT_RELATIVE:
            raise ValueError(message)


def _tail_bound(spec: EntireFunctionSpec, s: complex, n: int) -> float | None:
    profile = spec.zero_sequence.tail_profile(spec.genus)
    tail = profile.tail_beyond(n)
    if tail is None:
        return None
    exponent = abs(s) ** (spec.genus + 1) * tail
    if exponent > 700.0:
        return math.inf
    return math.expm1(exponent)


def _proximity(s: complex, zeros: np.ndarray) -> tuple[float, bool]:
    if zeros.size == 0:
        return math.inf, False
    dist = float(np.min(np.abs(s - zeros)))
    return dist, dist < NEAR_ZERO_COEFF * (1.0 + abs(s))


def _vanishing(n: int, tail: float | None, nearest: float) -> TruncatedEvaluation:
    """The exact 0 at a retained zero, with no logarithm."""
    return TruncatedEvaluation(
        value=0j, terms_used=n, tail_bound=tail, nearest_zero_distance=nearest,
        near_zero=True, log_value=None,
    )


def eval_product(spec: EntireFunctionSpec, s: complex, n_terms: int | None = None) -> TruncatedEvaluation:
    """Evaluate the truncated product representation at s.

    Genus 0:  value_at_zero * prod_{k<=N} (1 - s/z_k)
    Genus 1:  value_at_zero * exp(q*s) * prod_{k<=N} (1 - s/z_k) exp(s/z_k)

    Raises ValueError when more factors are requested than zeros are
    available.  The value vanishes exactly iff s is a retained zero.
    """
    s = complex(s)
    zeros = _retained(spec, n_terms)
    n = int(zeros.size)
    nearest, near = _proximity(s, zeros)
    tail = _tail_bound(spec, s, n)
    exponent = spec.q_constant * s if spec.genus == 1 else 0j
    if n:
        log_sum = _sum_log_factors((s / z for z in _blocks(zeros)), spec.genus)
        if log_sum is None:
            return _vanishing(n, tail, nearest)
        exponent += log_sum
    value = spec.value_at_zero * _exp_saturating(exponent)
    return TruncatedEvaluation(
        value=value,
        terms_used=n,
        tail_bound=tail,
        nearest_zero_distance=nearest,
        near_zero=near,
        log_value=cmath.log(spec.value_at_zero) + exponent,
    )


def eval_shifted_product(
    spec: EntireFunctionSpec,
    alpha: complex,
    s: complex,
    n_terms: int | None = None,
) -> TruncatedEvaluation:
    """Evaluate the product recentered at a nonzero reference point alpha.

    Genus 0:  S(alpha) * prod (1 - (s-alpha)/(z_k - alpha))
    Genus 1:  S(alpha) * exp(q*(s-alpha))
                       * prod (1 - (s-alpha)/(z_k - alpha)) exp((s-alpha)/z_k)

    S(alpha) is computed internally at the same truncation.  On the same
    finite factor set this is an exact algebraic regrouping of
    ``eval_product``, so the two agree to rounding error.  At s = alpha the
    recentered value is S(alpha) itself.
    """
    s = complex(s)
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("shift point must be nonzero")
    zeros = _retained(spec, n_terms)
    n = int(zeros.size)
    _guard_coincident(alpha, zeros, "shift point coincides with a retained zero")
    base = eval_product(spec, alpha, n)
    nearest, near = _proximity(s, zeros)
    tail = _tail_bound(spec, s, n)
    if s == alpha:
        return TruncatedEvaluation(
            value=base.value,
            terms_used=n,
            tail_bound=tail,
            nearest_zero_distance=nearest,
            near_zero=near,
            log_value=base.log_value,
        )
    u = s - alpha
    exponent = spec.q_constant * u if spec.genus == 1 else 0j
    if n:
        # rounding in u/(z - alpha) must not blur the exact-vanishing contract
        w_blocks = (u / (z - alpha) for z in _blocks(zeros))
        log_sum = None if np.any(zeros == s) else _sum_log_factors(w_blocks, 0)
        if log_sum is None:
            return _vanishing(n, tail, nearest)
        exponent += log_sum
        if spec.genus == 1:
            exponent += complex_sum(u / zeros)
    value = base.value * _exp_saturating(exponent)
    return TruncatedEvaluation(
        value=value,
        terms_used=n,
        tail_bound=tail,
        nearest_zero_distance=nearest,
        near_zero=near,
        log_value=(base.log_value if base.log_value is not None else 0j) + exponent,
    )


def shift_constant_residual(
    spec: EntireFunctionSpec,
    alpha: complex,
    n_terms: int | None = None,
    value_at_alpha: complex | None = None,
) -> float:
    """Symmetrized residual of the recentering constant identity.

    Genus 1 identity:
        S(0) * prod (1 - alpha/z_k)  =  S(alpha) * exp(-q*alpha) * prod exp(-alpha/z_k)
    Genus 0 identity:
        S(0) * prod (1 - alpha/z_k)  =  S(alpha)

    Returns |lhs - rhs| / (|lhs| + |rhs|).  By default S(alpha) is the
    truncated product at the same N (making the identity exact up to
    rounding); pass ``value_at_alpha`` to test against an external value
    such as a closed form.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("shift point must be nonzero")
    zeros = _retained(spec, n_terms)
    n = int(zeros.size)
    _guard_coincident(alpha, zeros, "shift point coincides with a retained zero")
    # the guard above keeps every factor 1 - alpha/z_k away from 0
    log_prod = _sum_log_factors((alpha / z for z in _blocks(zeros)), 0)
    lhs = spec.value_at_zero * cmath.exp(log_prod)
    s_alpha = (
        complex(value_at_alpha)
        if value_at_alpha is not None
        else eval_product(spec, alpha, n).value
    )
    if spec.genus == 1:
        recip_sum = complex_sum(alpha / zeros) if n else 0j
        rhs = s_alpha * cmath.exp(-spec.q_constant * alpha - recip_sum)
    else:
        rhs = s_alpha
    denom = abs(lhs) + abs(rhs)
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def log_derivative(spec: EntireFunctionSpec, s: complex, n_terms: int | None = None) -> complex:
    """Logarithmic derivative S'/S of the truncated representation at s.

    Genus 0:  sum 1/(s - z_k)
    Genus 1:  q + sum [1/(s - z_k) + 1/z_k]     (bracket summed per factor)

    Raises ValueError when s lies within relative distance 1e-12 of a
    retained zero (a pole).
    """
    s = complex(s)
    zeros = _retained(spec, n_terms)
    n = int(zeros.size)
    _guard_coincident(s, zeros, "logarithmic derivative has a pole at a retained zero")
    if spec.genus == 0:
        return complex_sum(1.0 / (s - zeros)) if n else 0j
    total = spec.q_constant
    if n:
        total += complex_sum(1.0 / (s - zeros) + 1.0 / zeros)
    return total
