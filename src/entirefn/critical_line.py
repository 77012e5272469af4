"""Restriction of symmetric-class functions to their zero-carrying line.

For a symmetric-class spec with zeros xi + i*tau_k, the map
V(x) = S(xi + i x) carries all the zero structure: V vanishes exactly at
the retained tau_k, and for a sign-symmetric Y_tilde spec V is real on real
x and collapses to the even product V(0) * prod (1 - x^2 / tau_hat^2) over
the positive offset magnitudes.  Derivatives rotate: V^(k)(0) = i^k S^(k)(xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numeric import real_sum
from .core_types import ClassTag, EntireFunctionSpec
from .product_engine import _retained, eval_product
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
# Accepted zeros must satisfy |V(tau_hat)| <= 1e-9 * (1 + local scale).
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
    n = spec.n_zeros if n_terms is None else int(n_terms)
    grid = np.linspace(x_min, x_max, samples)
    values = np.empty(samples, dtype=np.complex128)
    for j, x in enumerate(grid):
        values[j] = eval_product(spec, complex(xi, x), n).value
    v0 = eval_product(spec, complex(xi), n).value
    imag_max = float(np.max(np.abs(values.imag)))
    return CriticalLineProfile(
        xi=xi, grid=grid, values=values, v0=v0, imag_max=imag_max, truncation=n
    )


def scan_real_zeros(profile: CriticalLineProfile, spec: EntireFunctionSpec) -> RealZeroSet:
    """Locate real zeros of V by sign changes of Re V plus bisection.

    Refuses to scan when the profile is measurably non-real (imag_max above
    1e-6 of the largest sampled magnitude).  Each sign change of Re V over a
    grid cell is refined to a bracket of width 1e-12 * (1 + |x|); the
    accepted root must satisfy |V(root)| <= 1e-9 * (1 + local |V| scale).
    Zeros of even multiplicity do not change sign and are not found.
    """
    scale_all = float(np.max(np.abs(profile.values)))
    if scale_all > 0 and profile.imag_max > REALITY_GATE * scale_all:
        raise ValueError("profile is not real on the line; zero scan undefined")
    xi = profile.xi
    n = profile.truncation

    def re_v(x: float) -> float:
        return eval_product(spec, complex(xi, x), n).value.real

    estimates: list[RealZeroEstimate] = []
    re_grid = profile.values.real
    for j in range(profile.grid.size - 1):
        a, b = float(profile.grid[j]), float(profile.grid[j + 1])
        fa, fb = float(re_grid[j]), float(re_grid[j + 1])
        local_scale = max(abs(profile.values[j]), abs(profile.values[j + 1]))
        if fa == 0.0:
            estimates.append(_accept(spec, xi, n, a, (a, a), local_scale))
            continue
        if j == profile.grid.size - 2 and fb == 0.0:
            estimates.append(_accept(spec, xi, n, b, (b, b), local_scale))
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(200):
            if b - a <= BISECTION_WIDTH_COEFF * (1.0 + abs(0.5 * (a + b))):
                break
            mid = 0.5 * (a + b)
            fm = re_v(mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0.0) == (fa > 0.0):
                a, fa = mid, fm
            else:
                b = mid
        estimates.append(_accept(spec, xi, n, 0.5 * (a + b), (a, b), local_scale))
    return RealZeroSet(estimates=tuple(estimates), truncation=n)


def _accept(
    spec: EntireFunctionSpec,
    xi: float,
    n: int,
    root: float,
    bracket: tuple[float, float],
    local_scale: float,
) -> RealZeroEstimate:
    residual = abs(eval_product(spec, complex(xi, root), n).value)
    gate = RESIDUAL_GATE_COEFF * (1.0 + local_scale)
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
    if spec.class_tag is not ClassTag.Y_TILDE:
        raise ValueError("even product form requires a Y_tilde spec")
    x = float(x)
    zeros = _retained(spec, n_terms)
    n = int(zeros.size)
    taus = zeros.imag
    _require_sign_symmetric(taus)
    tau_hat = np.sort(taus[taus > 0.0])
    assert spec.center_xi is not None
    v0 = eval_product(spec, complex(spec.center_xi), n).value
    if tau_hat.size == 0:
        return v0
    factors = 1.0 - (x * x) / (tau_hat * tau_hat)
    if np.any(factors == 0.0):
        return 0j
    sign = -1.0 if int(np.count_nonzero(factors < 0.0)) % 2 else 1.0
    magnitude = math.exp(real_sum(np.log(np.abs(factors))))
    return v0 * sign * magnitude


def rotated_derivatives(expansion: TaylorExpansion, orders: Sequence[int]) -> RotatedDerivatives:
    """Line derivatives at x = 0 from a Taylor expansion about the center.

    The expansion must be centered at the line center xi; order k requires
    coefficient c_k, so every requested order must be <= expansion.k_max.
    """
    values: list[complex] = []
    out_orders: list[int] = []
    for k in orders:
        k = int(k)
        if k < 0 or k > expansion.k_max:
            raise ValueError(f"order {k} outside expansion range 0..{expansion.k_max}")
        values.append((1j) ** k * math.factorial(k) * expansion.coefficients[k])
        out_orders.append(k)
    return RotatedDerivatives(
        orders=tuple(out_orders),
        values=tuple(values),
        truncation=expansion.terms_used,
    )
