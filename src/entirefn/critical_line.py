"""Restriction of symmetric-class functions to their zero-carrying line.

For a symmetric-class spec with zeros xi + i*tau_k, the map
V(x) = S(xi + i x) carries all the zero structure: V vanishes exactly at
the retained tau_k, and for a sign-symmetric Y_tilde spec V is real on real
x and collapses to the even product V(0) * prod (1 - x^2 / tau_hat^2) over
the positive offset magnitudes.  That product, and the literal one
V(0) * prod (1 - x / tau_k) of the line-form checks, take the offsets as the
zeros i tau on the line 0 at i x, through the one factor reducer of
``product_engine``.  Derivatives rotate: V^(k)(0) = i^k S^(k)(xi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core_types import ClassTag, EntireFunctionSpec, Ordering, ZeroSequence
from .product_engine import _eval_batch, _log_sums, _nearest, _reciprocal_sum, _retained, _values_from_logs, eval_product
from .series_engine import TaylorExpansion, _require_sign_symmetric

__all__ = [
    "CriticalLineProfile",
    "RealZeroEstimate",
    "RealZeroSet",
    "RotatedDerivatives",
    "critical_line_profile",
    "scan_real_zeros",
    "even_product_form",
    "rotated_derivatives",
]

# Reality gate: scanning for real zeros is refused when the largest
# imaginary part exceeds this fraction of the largest profile magnitude.
REALITY_GATE = 1e-6
# Bisection stops when the bracket width is below 1e-12 * (1 + |x|).
BISECTION_WIDTH_COEFF = 1e-12
# Accepted zeros: |V(tau_hat)| <= 1e-9 (1 + local scale) + max |Re V| at the bracket's ends.
RESIDUAL_GATE_COEFF = 1e-9
# Grid density of a profile whose sample count is not given, per unit of x.
DEFAULT_SAMPLES_PER_UNIT = 64


@dataclass(frozen=True, eq=False)
class CriticalLineProfile:
    """Sampled line restriction V(x_j) = S(xi + i x_j) at one truncation."""

    xi: float
    grid: np.ndarray
    values: np.ndarray
    v0: complex
    imag_max: float
    truncation: int

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=np.complex128)
        if grid.size < 2 or values.size != grid.size:
            raise ValueError("profile needs matching grids of at least 2 samples")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("profile grid must be strictly ascending")
        if self.v0 == 0:
            raise ValueError("line center value V(0) must be nonzero")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class RealZeroEstimate:
    tau: float
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class RealZeroSet:
    """Recovered real line zeros, ascending, with refinement diagnostics."""

    estimates: tuple[RealZeroEstimate, ...]
    truncation: int

    @property
    def taus(self) -> tuple[float, ...]:
        return tuple(e.tau for e in self.estimates)


@dataclass(frozen=True)
class RotatedDerivatives:
    """Line derivatives V^(k)(0) = i^k * k! * c_k from an expansion at xi."""

    orders: tuple[int, ...]
    values: tuple[complex, ...]
    truncation: int


def critical_line_profile(
    spec: EntireFunctionSpec,
    x_min: float,
    x_max: float,
    samples: int | None,
    n_terms: int | None = None,
) -> CriticalLineProfile:
    """Sample V(x) = S(xi + i x) on a uniform ascending grid.

    Requires a symmetric-class spec, a finite window with x_min < x_max and
    at least 2 samples; ``samples=None`` takes 64 per unit length of the
    window, and at least 2.
    """
    if not spec.class_tag.symmetric:
        raise ValueError("critical-line profile requires a Y_tilde or L_bar spec")
    n = int(_retained(spec, n_terms).size)
    x_min, x_max = float(x_min), float(x_max)
    for name, bound in (("x_min", x_min), ("x_max", x_max)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if not x_min < x_max:
        raise ValueError("x_min must be strictly below x_max")
    if samples is None:
        samples = max(2, math.ceil(DEFAULT_SAMPLES_PER_UNIT * (x_max - x_min)))
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    assert spec.center_xi is not None
    xi = spec.center_xi
    grid = np.linspace(x_min, x_max, samples)
    # V(0) rides in the same batch, as the last point; |xi + i x| peaks at an end
    points = np.empty(samples + 1, dtype=np.complex128)
    points.real = xi
    points.imag[:-1] = grid
    points.imag[-1] = 0.0
    line, _ = _eval_batch(spec, points, n, _line_radius(xi, grid))
    values, v0 = line[:-1], complex(line[-1])
    imag_max = float(np.max(np.abs(values.imag)))
    return CriticalLineProfile(
        xi=xi, grid=grid, values=values, v0=v0, imag_max=imag_max, truncation=n
    )


def _line_radius(xi: float, grid: np.ndarray) -> float:
    """max |xi + i x| over the grid, the far radius of a profile: it peaks at an end."""
    ends = np.empty(2, dtype=np.complex128)
    ends.real, ends.imag = xi, grid[[0, -1]]
    return float(np.max(np.abs(ends)))


def scan_real_zeros(profile: CriticalLineProfile, spec: EntireFunctionSpec) -> RealZeroSet:
    """Locate real zeros of V by sign changes of Re V plus bisection.

    Refuses to scan when the profile is measurably non-real (imag_max above
    1e-6 of the largest sampled magnitude).  Each sign change of Re V over a
    grid cell is refined to a bracket of width 1e-12 * (1 + |x|), whose midpoint
    is accepted where |V| <= 1e-9 * (1 + local |V| scale) plus, where ``spec``'s
    values at the bracket's ends differ in sign, the larger |Re V| there,
    which bounds |V'| times half the width; an end the bisection never moved
    is read again from ``spec``, so a profile not of ``spec`` cannot lend it a sign.
    A 0 off the retained tau (an underflow) or a value that is not finite is
    a ValueError naming its cell.  Zeros of even multiplicity are not found.
    """
    scale_all = float(np.max(np.abs(profile.values)))
    if scale_all > 0 and profile.imag_max > REALITY_GATE * scale_all:
        raise ValueError("profile is not real on the line; zero scan undefined")
    xi = profile.xi
    n = profile.truncation
    zeros = spec.zero_sequence.zeros[:n]

    def re_v(x: float, value: complex, cell: tuple[float, float]) -> float:
        if np.isfinite(value) and (value.real or _nearest(complex(xi, x), zeros) == 0.0):
            return value.real
        raise ValueError(f"profile leaves the double range on the cell [{cell[0]!r}, {cell[1]!r}]")

    estimates: list[RealZeroEstimate] = []
    for j in range(profile.grid.size - 1):
        a, b = float(profile.grid[j]), float(profile.grid[j + 1])
        cell = (a, b)
        fa, fb = (re_v(x, complex(v), cell) for x, v in zip(cell, profile.values[j : j + 2]))
        gate = RESIDUAL_GATE_COEFF * (1.0 + max(abs(profile.values[j]), abs(profile.values[j + 1])))
        if fa == 0.0 or (j == profile.grid.size - 2 and fb == 0.0):
            root = a if fa == 0.0 else b
            estimates.append(_accept(spec, xi, n, root, (root, root), gate))
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(200):
            if b - a <= BISECTION_WIDTH_COEFF * (1.0 + abs(0.5 * (a + b))):
                break
            mid = 0.5 * (a + b)
            fm = re_v(mid, eval_product(spec, complex(xi, mid), n).value, cell)
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0.0) == (fa > 0.0):
                a, fa = mid, fm
            else:
                b, fb = mid, fm
        fa, fb = (re_v(x, eval_product(spec, complex(xi, x), n).value, cell) if x in cell else f
                  for x, f in ((a, fa), (b, fb)))
        ends = max(abs(fa), abs(fb)) if fa * fb < 0.0 else 0.0
        estimates.append(_accept(spec, xi, n, 0.5 * (a + b), (a, b), gate + ends))
    return RealZeroSet(estimates=tuple(estimates), truncation=n)


def _accept(
    spec: EntireFunctionSpec,
    xi: float,
    n: int,
    root: float,
    bracket: tuple[float, float],
    gate: float,
) -> RealZeroEstimate:
    residual = abs(eval_product(spec, complex(xi, root), n).value)
    if residual > gate:
        raise ValueError(
            f"refined zero near x={root!r} has residual {residual:.3e} above gate {gate:.3e}"
        )
    return RealZeroEstimate(tau=root, residual=residual, bracket=bracket)


def even_product_form(spec: EntireFunctionSpec, x: float, n_terms: int | None = None) -> complex:
    """Evaluate V(x) as the even product V(0) * prod (1 - x^2 / tau_hat^2).

    Requires a Y_tilde spec whose retained tau offsets are sign-symmetric;
    tau_hat runs over the positive offsets (with multiplicity).  On the same
    finite factor set this equals the direct profile value up to rounding.
    """
    return _even_product_values(spec, [float(x)], n_terms)[0]


def _even_product_values(spec: EntireFunctionSpec, xs, n_terms: int | None) -> list[complex]:
    """``even_product_form`` at each x, checking the spec and computing V(0) once."""
    if spec.class_tag is not ClassTag.Y_TILDE:
        raise ValueError("even product form requires a Y_tilde spec")
    taus = _retained(spec, n_terms).imag
    _require_sign_symmetric(taus)
    tau_hat = taus[taus > 0.0]
    assert spec.center_xi is not None
    center = eval_product(spec, complex(spec.center_xi), taus.size)
    exponents, real = _offset_logs(np.concatenate([tau_hat, -tau_hat]), xs)
    return _values_from_logs(exponents, real, center.value, center.log_value)


def _literal_values(spec: EntireFunctionSpec, n: int, grid: np.ndarray, v0: complex) -> np.ndarray:
    """The literal line product V(0) prod (1 - x / tau_k) over the first n zeros at each x of
    the grid, times exp(i x (q + R)) at genus 1, with the far offsets beyond the grid from
    power sums.  R = sum 1/z_k is split at the profile's radius (``_reciprocal_sum``)."""
    exponents, real = _offset_logs(spec.zero_sequence.zeros[:n].imag, grid, float(np.max(np.abs(grid))))
    if spec.genus == 1:
        assert spec.center_xi is not None
        recip = _reciprocal_sum(spec.zero_sequence, n, _line_radius(spec.center_xi, grid))
        exponents += 1j * grid * spec.q_constant + 1j * grid * recip
        real[:] = False
    return np.array(_values_from_logs(exponents, real, v0, cmath.log(v0)), dtype=np.complex128)


def _offset_logs(taus: np.ndarray, xs, radius: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Logs of prod (1 - x / tau) at each x, and which products are real.

    The offsets are the genus-0 zeros i tau on the line 0 and x the point
    i x, so each factor is 1 - s/z.  A sign-symmetric set, repeated offsets
    included, is laid out as ascending mirrored pairs: ``_log_sums`` takes
    one real log of 1 - x^2/tau^2 per pair and halves the far power sums.
    """
    upper = np.sort(taus[taus > 0.0])
    if np.array_equal(upper, np.sort(-taus[taus < 0.0])):
        taus = np.column_stack([upper, -upper]).ravel()
    zeros = np.zeros(taus.size, dtype=np.complex128)
    zeros.imag = taus
    seq = ZeroSequence(zeros, ordering=Ordering.AS_GIVEN)
    object.__setattr__(seq, "_line", 0.0)
    points = np.zeros(np.size(xs), dtype=np.complex128)
    points.imag = xs
    return _log_sums(seq, 0, 0j, points, len(seq), radius)


def rotated_derivatives(expansion: TaylorExpansion, orders: Sequence[int]) -> RotatedDerivatives:
    """Line derivatives at x = 0 from a Taylor expansion about the center.

    The expansion must be centered at the line center xi; order k requires
    coefficient c_k, so every requested order must be <= expansion.k_max.
    """
    orders = tuple(int(k) for k in orders)
    for k in orders:
        if k < 0 or k > expansion.k_max:
            raise ValueError(f"order {k} outside expansion range 0..{expansion.k_max}")
    values = tuple(_rotated(k, expansion.coefficients[k]) for k in orders)
    return RotatedDerivatives(orders=orders, values=values, truncation=expansion.terms_used)


def _rotated(k: int, c: complex) -> complex:
    """i^k k! c, part by part: each part of k! c is the part times k! as a double
    up to k = 170, and the exactly rounded product past it, where k! passes the
    double range (+-inf past the double range); i^k permutes the parts, so an
    infinite part never meets a 0 and no part is NaN where c has none."""
    parts = []
    for x in (c.real, c.imag):
        if k <= 170:
            parts.append(x * float(math.factorial(k)))
            continue
        try:
            parts.append(float(Fraction(x) * math.factorial(k)) if x and math.isfinite(x) else x)
        except OverflowError:
            parts.append(math.copysign(math.inf, x))
    x, y = parts
    return (complex(x, y), complex(-y, x), complex(-x, -y), complex(y, -x))[k % 4]
