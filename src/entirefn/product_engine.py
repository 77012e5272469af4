"""Truncated canonical products, recentered products, and log-derivatives.

Evaluation strategy
-------------------
Products are accumulated in the log domain: one principal-branch logarithm
per factor (plus the per-factor exponential term at genus 1), reduced with
exactly rounded summation, then a single exponential.  Because the reduction
is exact, results are independent of accumulation order and bit-identical
across runs; the declared pairing of the zero sequence still matters for
tail estimates and power sums, where grouped magnitudes are what converge.

Only |exp(...)| and per-factor phases are contractually meaningful: summed
imaginary parts are not unwound to a continuous branch.

A factor that is exactly zero short-circuits the evaluation to an exact 0
with no logarithm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._numeric import complex_sum
from .core_types import EntireFunctionSpec
from .primary_factors import _exp_saturating

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
        factors = 1.0 - s / zeros
        if np.any(factors == 0):
            return TruncatedEvaluation(
                value=0j,
                terms_used=n,
                tail_bound=tail,
                nearest_zero_distance=nearest,
                near_zero=True,
                log_value=None,
            )
        exponent += complex_sum(np.log(factors))
        if spec.genus == 1:
            exponent += complex_sum(s / zeros)
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
        factors = 1.0 - u / (zeros - alpha)
        # rounding in u/(z - alpha) must not blur the exact-vanishing contract
        if np.any(factors == 0) or np.any(zeros == s):
            return TruncatedEvaluation(
                value=0j,
                terms_used=n,
                tail_bound=tail,
                nearest_zero_distance=nearest,
                near_zero=True,
                log_value=None,
            )
        exponent += complex_sum(np.log(factors))
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
    log_prod = complex_sum(np.log(1.0 - alpha / zeros)) if n else 0j
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
