"""Growth diagnostics: order, zero-counting exponent, and multiplicities.

The growth order is estimated as the least-squares slope of
log log max|S| against log radius over a geometric radius ladder, using
only radii where the max modulus exceeds e (so the double log is positive).
The zero-counting exponent is the slope of log N(r) against log r, with
N(r) the number of retained zeros of modulus <= r.  For order-one data the
two estimates agree near 1; their consistency is a cheap cross-check.

Multiplicities come from the argument principle: the winding number
(1/2*pi*i) * contour integral of S'/S around a circle, computed with the
trapezoid rule (spectrally accurate on smooth circular contours) and
snapped to the nearest integer within a 0.1 window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import complex_sum, loglog_fit
from .core_types import EntireFunctionSpec, ZeroSequence
from .product_engine import eval_product, log_derivative

__all__ = [
    "OrderEstimate",
    "ExponentEstimate",
    "MultiplicityResult",
    "max_modulus",
    "estimate_order",
    "estimate_exponent",
    "verify_multiplicity",
]

# Winding snap window: the raw integral must sit within 0.1 of an integer.
WINDING_SNAP = 0.1
# Contour guard: no retained zero within this absolute distance of the circle.
CONTOUR_CLEARANCE = 1e-6
# Radii enter the order fit only where log max|S| exceeds this (max|S| > e).
MIN_LOG_GROWTH = 1.0

_EXPONENT_LADDER = 32


@dataclass(frozen=True)
class OrderEstimate:
    """Fitted growth order with the radii and double-log values used."""

    order: float
    radii: tuple[float, ...]
    log_log_max: tuple[float, ...]
    rms_residual: float
    truncation: int


@dataclass(frozen=True)
class ExponentEstimate:
    """Fitted zero-counting exponent with the (r, N(r)) pairs used."""

    exponent: float
    counting_pairs: tuple[tuple[float, int], ...]
    rms_residual: float


@dataclass(frozen=True)
class MultiplicityResult:
    """Integer winding of S'/S around a circle, with the raw integral."""

    center: complex
    radius: float
    winding: int
    raw_integral: complex
    nodes: int

    def __post_init__(self) -> None:
        if abs(self.raw_integral - self.winding) > WINDING_SNAP:
            raise ValueError("raw integral does not snap to an integer winding")


def _max_log_modulus(
    spec: EntireFunctionSpec, radius: float, angular_samples: int, n_terms: int | None
) -> float:
    """max over the angular grid of log |S(radius * e^{i theta})|.

    Works in the log domain so radii with astronomically large values stay
    finite.  Points that hit a zero exactly contribute -inf and never win.
    """
    best = -math.inf
    for j in range(angular_samples):
        theta = 2.0 * math.pi * j / angular_samples
        s = radius * complex(math.cos(theta), math.sin(theta))
        ev = eval_product(spec, s, n_terms)
        if ev.log_value is not None:
            best = max(best, ev.log_value.real)
    return best


def max_modulus(
    spec: EntireFunctionSpec,
    radius: float,
    angular_samples: int = 64,
    n_terms: int | None = None,
) -> float:
    """Max modulus of the truncated product over an angular grid at ``radius``.

    The grid is theta_j = 2*pi*j / angular_samples starting at 0, so doubling
    the sample count refines to a superset grid and the estimate is
    non-decreasing under doubling.  Lower bound of the true circle maximum.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if angular_samples < 4:
        raise ValueError(f"angular_samples must be >= 4, got {angular_samples}")
    best = _max_log_modulus(spec, radius, angular_samples, n_terms)
    if best == -math.inf:
        return 0.0
    try:
        return math.exp(best)
    except OverflowError:
        return math.inf


def estimate_order(
    spec: EntireFunctionSpec,
    v_min: float,
    v_max: float,
    n_radii: int = 16,
    n_terms: int | None = None,
    angular_samples: int = 64,
) -> OrderEstimate:
    """Estimate the growth order from max-modulus scaling.

    Requires finite 1 < v_min < v_max and at least 3 radii with max|S| > e;
    radii follow a geometric ladder from v_min to v_max.
    """
    for name, bound in (("v_min", v_min), ("v_max", v_max)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if v_min <= 1.0:
        raise ValueError(f"v_min must exceed 1, got {v_min}")
    if v_max <= v_min:
        raise ValueError("v_max must exceed v_min")
    if n_radii < 3:
        raise ValueError(f"n_radii must be >= 3, got {n_radii}")
    radii = np.geomspace(v_min, v_max, n_radii)
    kept_r: list[float] = []
    kept_log_max: list[float] = []
    for r in radii:
        log_max = _max_log_modulus(spec, float(r), angular_samples, n_terms)
        if log_max > MIN_LOG_GROWTH:
            kept_r.append(float(r))
            kept_log_max.append(log_max)
    if len(kept_r) < 3:
        raise ValueError("insufficient growth range: fewer than 3 radii with max|S| > e")
    fit = loglog_fit(kept_r, kept_log_max)
    n_used = spec.n_zeros if n_terms is None else int(n_terms)
    return OrderEstimate(
        order=fit.slope,
        radii=tuple(kept_r),
        log_log_max=tuple(math.log(v) for v in kept_log_max),
        rms_residual=fit.rms_residual,
        truncation=n_used,
    )


def estimate_exponent(seq: ZeroSequence, r_min: float, r_max: float) -> ExponentEstimate:
    """Estimate the zero-counting exponent from N(r) scaling on [r_min, r_max].

    Requires at least 10 zeros with modulus inside the range.  N(r) is
    counted on a geometric ladder of radii restricted to points with
    N(r) >= 1.
    """
    if not 0 < r_min < r_max < math.inf:
        raise ValueError(f"need finite 0 < r_min < r_max, got {r_min} and {r_max}")
    moduli = np.sort(seq.moduli)
    in_range = int(np.searchsorted(moduli, r_max, side="right")) - int(
        np.searchsorted(moduli, r_min, side="left")
    )
    if in_range < 10:
        raise ValueError(f"need at least 10 zeros with modulus in range, found {in_range}")
    ladder = np.geomspace(r_min, r_max, _EXPONENT_LADDER)
    counts = np.searchsorted(moduli, ladder, side="right")
    keep = counts >= 1
    fit = loglog_fit(ladder[keep], counts[keep])
    pairs = tuple((float(r), int(c)) for r, c in zip(ladder[keep], counts[keep]))
    return ExponentEstimate(exponent=fit.slope, counting_pairs=pairs, rms_residual=fit.rms_residual)


def verify_multiplicity(
    spec: EntireFunctionSpec,
    center: complex,
    radius: float,
    nodes: int = 512,
    n_terms: int | None = None,
) -> MultiplicityResult:
    """Count zeros (with multiplicity) inside a circle by winding number.

    Integrates S'/S of the truncated representation with the trapezoid rule
    on ``nodes`` equally spaced points.  Raises ValueError when a retained
    zero lies within 1e-6 of the contour, or when the raw integral is not
    within 0.1 of an integer.  To certify the multiplicity of one zero,
    choose the radius below half the distance to the nearest other zero;
    larger circles simply count every enclosed zero.
    """
    center = complex(center)
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if nodes < 16:
        raise ValueError(f"nodes must be >= 16, got {nodes}")
    zeros = spec.zero_sequence.zeros[: spec.n_zeros if n_terms is None else int(n_terms)]
    if zeros.size:
        clearance = float(np.min(np.abs(np.abs(zeros - center) - radius)))
        if clearance < CONTOUR_CLEARANCE:
            raise ValueError("a retained zero lies on or within 1e-6 of the contour")
    values = np.empty(nodes, dtype=np.complex128)
    for j in range(nodes):
        theta = 2.0 * math.pi * j / nodes
        unit = complex(math.cos(theta), math.sin(theta))
        values[j] = log_derivative(spec, center + radius * unit, n_terms) * unit
    raw = (radius / nodes) * complex_sum(values)
    winding = round(raw.real)
    if abs(raw - winding) > WINDING_SNAP:
        raise ValueError(
            f"winding quadrature unresolved: raw integral {raw!r} not within 0.1 of an integer"
        )
    return MultiplicityResult(
        center=center, radius=radius, winding=int(winding), raw_integral=raw, nodes=nodes
    )
