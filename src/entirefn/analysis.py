"""Growth diagnostics: order, zero-counting exponent, and multiplicities.

The growth order is estimated as the least-squares slope of
log log max|S| against log radius over a geometric radius ladder, using
only radii where max|S| exceeds e (so the double log is positive) and its
log stays in the double range.  The M nodes of a ring pair node j with node
M - j, its exact conjugate (``_units``).  Where Im q = 0 and the retained
zeros are mirrored pairs (``_numeric._conjugate_half``), log|S(conj s)| has
the bits of log|S(s)| (Schwarz reflection, to the bit): a rounded quotient
or product commutes with conjugation, so the factor logs at conj s are
those at s with each pair's members swapped; the factor kernel's real part
is even in Im w, the far power sums are real, and an exact sum does not
depend on the order of its terms.  A ring then evaluates nodes 0..M/2
only, and its maximum is the full ring's; a complex q, a lone real zero or
a truncation that splits the pairs' layout takes every node.

The zero-counting exponent is the slope of log N(r) against log r, with
N(r) the number of retained zeros of modulus <= r.  For order-one data the
two estimates agree near 1; their consistency is a cheap cross-check.

Multiplicities come from the argument principle: the winding number
(1/2*pi*i) * contour integral of S'/S around a circle, computed with the
trapezoid rule (spectrally accurate on smooth circular contours) and
snapped to the nearest integer within a 0.1 window.  On N nodes of the
circle |s - c| = rho a zero z at r = |z - c| moves the raw integral off its
count by a^N/(1 - a^N) inside, a = (z - c)/rho, or -b^N/(1 - b^N) outside,
b = rho/(z - c): at most q^N/(1 - q^N), q = min(r, rho)/max(r, rho).  The
constant part of S'/S integrates to 0, so |raw - winding| <= A(N) =
sum_k q_k^N/(1 - q_k^N) over the retained zeros (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56 (2014)).  The
audits of T8/T9 take the least N in 16, 32, ..., 512 with
A(N) <= TRAPEZOID_TOLERANCE (``_trapezoid_nodes``), and 512 where none has it;
T8 evaluates each contour with the far field of its line profile
(``_winding``, far radius max(profile radius, |c| + rho)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._numeric import BLOCK, _conjugate_half, complex_sum, loglog_fit
from .core_types import EntireFunctionSpec, ZeroSequence
from .product_engine import _log_derivatives, _log_sums, _retained, _value_from_log

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
# Trapezoid aliasing bound A(N) a winding audit's node count must meet: far
# inside WINDING_SNAP, so the rounded raw integral is the exact zero count.
TRAPEZOID_TOLERANCE = 1e-6
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


def _units(nodes: int) -> np.ndarray:
    """e^{i theta_j}, theta_j = 2*pi*j / nodes: the nodes of every ring and contour.

    Node nodes - j is the exact conjugate of node j, and nodes 0 and nodes/2
    are real (1 and -1).
    """
    half = nodes // 2
    thetas = (2.0 * math.pi * j / nodes for j in range(half + 1))
    upper = [complex(math.cos(theta), math.sin(theta)) for theta in thetas]
    if not nodes % 2:
        upper[half] = complex(-1.0, 0.0)
    units = np.empty(nodes, dtype=np.complex128)
    units[: half + 1] = upper
    units[half + 1 :] = np.conj(units[1 : nodes - half][::-1])
    return units


def _max_log_moduli(spec: EntireFunctionSpec, radii, angular_samples: int, n: int) -> list[float]:
    """max over the angular grid of log |S(r e^{i theta})| for each r of ``radii``.

    Groups of at most BLOCK points, all at the far radius max(radii) (far
    zeros those beyond 4 max(radii)), take the products' logs alone: each
    ring keeps the largest real part of its exponents, and log |v0| is added
    once (rounding is monotone, so that is the largest log |S|).  Mirrored
    rings take nodes 0..M/2 only (module docstring).  Works in the log domain
    so radii with astronomically large values stay finite.  Points that hit
    a zero exactly contribute -inf and never win.
    """
    seq, genus, q = spec.zero_sequence, spec.genus, spec.q_constant
    radii, units = np.asarray(radii, dtype=float), _units(angular_samples)
    if not q.imag and _conjugate_half(seq.zeros[:n]) is not None:
        units = units[: angular_samples // 2 + 1]
    far_radius = float(np.max(radii))
    log_moduli = np.full(radii.size, -math.inf)
    first_bad, total = None, radii.size * units.size
    for start in range(0, total, BLOCK):
        ring, node = np.divmod(np.arange(start, min(start + BLOCK, total)), units.size)
        exponents, _ = _log_sums(seq, genus, q, radii[ring] * units[node], n, far_radius)
        bad = (exponents.real != -math.inf) & (np.isnan(exponents.real) | ~np.isfinite(exponents.imag))
        if first_bad is None and np.count_nonzero(bad):
            first_bad = complex(exponents[np.argmax(bad)])
        if first_bad is None:  # past a NaN no maximum is kept: the call raises
            np.maximum.at(log_moduli, ring, exponents.real)
    if first_bad is not None:  # a log with no phase has no value: the value rule's error
        _value_from_log(first_bad)
    return (cmath.log(spec.value_at_zero).real + log_moduli).tolist()


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
    n = int(_retained(spec, n_terms).size)
    (best,) = _max_log_moduli(spec, [radius], angular_samples, n)
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
    radii follow a geometric ladder from v_min to v_max, evaluated in groups
    of at most BLOCK points at one far radius.
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
    n = int(_retained(spec, n_terms).size)
    radii = np.geomspace(v_min, v_max, n_radii)
    kept_r: list[float] = []
    kept_log_max: list[float] = []
    for r, log_max in zip(radii.tolist(), _max_log_moduli(spec, radii, angular_samples, n)):
        if MIN_LOG_GROWTH < log_max < math.inf:
            kept_r.append(r)
            kept_log_max.append(log_max)
    if len(kept_r) < 3:
        raise ValueError("insufficient growth range: fewer than 3 radii with max|S| > e")
    fit = loglog_fit(kept_r, kept_log_max)
    return OrderEstimate(
        order=fit.slope,
        radii=tuple(kept_r),
        log_log_max=tuple(math.log(v) for v in kept_log_max),
        rms_residual=fit.rms_residual,
        truncation=n,
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


@np.errstate(divide="ignore")  # q = 1, a zero on the circle: A(N) = inf
def _trapezoid_nodes(zeros: np.ndarray, center: complex, radius: float) -> int:
    """The least N in 16, 32, ..., 512 whose aliasing bound A(N) is at most
    TRAPEZOID_TOLERANCE on the circle |s - center| = radius; 512 where none is.

    A(N) = sum_k q_k^N/(1 - q_k^N), q_k = min(r_k, radius)/max(r_k, radius)
    and r_k = |z_k - center|, bounds |raw - winding| of an N-node winding
    integral (module docstring).  q^N comes by repeated squaring; where it
    underflows to 0 that is the bound.
    """
    distances = np.abs(zeros - center)
    power = np.minimum(distances, radius) / np.maximum(distances, radius)
    for _ in range(4):
        power = power * power
    nodes = 16
    while nodes < 512 and not float(np.sum(power / (1.0 - power))) <= TRAPEZOID_TOLERANCE:
        power = power * power
        nodes *= 2
    return nodes


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
    return _winding(spec, _retained(spec, n_terms), center, radius, nodes, abs(center) + radius)


def _winding(
    spec: EntireFunctionSpec, zeros: np.ndarray, center: complex, radius: float, nodes: int,
    far_radius: float,
) -> MultiplicityResult:
    """``verify_multiplicity`` over the retained ``zeros``, the contour's S'/S taking
    the zeros beyond 4 * far_radius (far_radius >= |center| + radius) from
    their power sums."""
    if zeros.size:
        clearance = float(np.min(np.abs(np.abs(zeros - center) - radius)))
        if clearance < CONTOUR_CLEARANCE:
            raise ValueError("a retained zero lies on or within 1e-6 of the contour")
    units = _units(nodes)
    derivs = _log_derivatives(spec, center + radius * units, int(zeros.size), far_radius)
    terms = [d * u for d, u in zip(derivs.tolist(), units.tolist())]
    raw = (radius / nodes) * complex_sum(np.array(terms))
    if not cmath.isfinite(raw):
        raise ValueError(f"winding quadrature unresolved: raw integral {raw!r} is not finite")
    winding = round(raw.real)
    if abs(raw - winding) > WINDING_SNAP:
        raise ValueError(
            f"winding quadrature unresolved: raw integral {raw!r} not within 0.1 of an integer"
        )
    return MultiplicityResult(
        center=center, radius=radius, winding=int(winding), raw_integral=raw, nodes=nodes
    )
