"""Identity checks T1-T9: the structure a spec's zeros promise, measured.

Each check runs the library on one spec and returns its measured residuals
with a pass flag gated by ``tolerance``:

    T1-T4  recentered product equals the direct product at seeded random
           points and the recentering constant identity holds (T1 genus 1,
           T2 genus 0; T3 L_bar and T4 Y_tilde anchored at the center xi)
    T5     odd coefficients of the center-line expansion vanish (Y_tilde)
    T6/T7  the line restriction equals the literal offset product (L_bar /
           Y_tilde); T7 also checks profile reality and the even product form
    T8/T9  every line zero in the window has winding number 1: scanned ones
           (Y_tilde) or retained ones (L_bar), at most 8 per run, each on
           the node count its trapezoid aliasing bound certifies
           (``analysis._trapezoid_nodes``)

T1-T4 draw from ``numpy.random.default_rng(seed)``, the evaluation points
before the shift points, so a seed fixes every draw.  Each stage of their
batch is one reduction over the draws that takes the zeros beyond 4R, R the
largest |p| over the draws, from power sums; the shifted products about the
alphas take them as G(s) - G(alpha) (``product_engine._log_sums``).  T6/T7
take the zeros beyond 4 times the profile's radius from the profile's power
sums, as G(xi + i x) - G(xi), and V(0) from the profile.  So T1-T4 measure
the recentring over the near zeros, S(alpha), q and sum u/z, and T6/T7 the
near offsets; for the far zeros the identity holds by the series identity
itself, not tested.  ``even_product_form`` alone still sums every zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _trapezoid_nodes, _winding
from .core_types import EntireFunctionSpec
from .critical_line import _line_forms, _line_radius, critical_line_profile
from .critical_line import scan_real_zeros
from .product_engine import _nearest, _retained, _shift_measures
from .series_engine import even_series

__all__ = [
    "IDENTITY_TAGS",
    "IdentityResult",
    "compare_shift",
    "verify_identity",
]

IDENTITY_TAGS = tuple(f"T{i}" for i in range(1, 10))
DEFAULT_SEED = 20240801
# Cap on per-zero winding audits in T8/T9.
MAX_AUDITED_ZEROS = 8

# The spec each check requires, as its error names it: a genus or a class
# tag.  T5 has no entry: even_series rejects what it cannot expand.
_REQUIREMENTS = {
    "T1": "a genus-1",
    "T2": "a genus-0",
    **dict.fromkeys(("T3", "T6", "T9"), "an L_bar"),
    **dict.fromkeys(("T4", "T7", "T8"), "a Y_tilde"),
}


@dataclass(frozen=True)
class IdentityResult:
    """Outcome of one identity check.

    ``quantities`` holds the measured residuals (and, for T8/T9, the audit
    count and winding numbers) as (name, value) pairs in report order.
    """

    quantities: tuple[tuple[str, object], ...]
    passed: bool


def compare_shift(
    spec: EntireFunctionSpec, alpha: complex, s: complex, n_terms: int | None = None
) -> tuple[complex, complex, float, float]:
    """The product at s recentered at alpha and direct, compared.

    Returns (shifted, direct, disagreement, constant residual): disagreement
    is |shifted - direct| / (1 + |direct|), and the constant residual is
    :func:`shift_constant_residual` at alpha.  Where a value saturates and
    that ratio is not finite, the disagreement is its limit |e^d - 1|, with
    d the difference of the two logs (-inf for an exact 0).
    """
    return _shift_measures(spec, [complex(s)], [complex(alpha)], n_terms)[0]


def verify_identity(
    spec: EntireFunctionSpec,
    theorem: str,
    n_terms: int | None = None,
    tolerance: float = 1e-6,
    *,
    seed: int = DEFAULT_SEED,
    draws: int = 20,
    x_min: float = -3.0,
    x_max: float = 3.0,
    samples: int | None = None,
    k_max: int = 15,
) -> IdentityResult:
    """Run identity check ``theorem`` (one of T1..T9) on ``spec``.

    ``seed`` and ``draws`` set the random points of T1-T4; ``x_min``,
    ``x_max`` and ``samples`` the line window of T6-T9 (``samples=None``
    takes the profile's default density); ``k_max`` the expansion order of
    T5.  Raises ValueError when the spec is not of the class the check needs,
    when T1-T4 have no draw or T5 no odd coefficient to measure, and when
    ``tolerance`` is NaN, infinite or negative.
    """
    if theorem not in IDENTITY_TAGS:
        raise ValueError(f"unknown identity check {theorem!r}")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    option, value = ("k_max", k_max) if theorem == "T5" else ("draws", draws)
    if theorem in ("T1", "T2", "T3", "T4", "T5") and value < 1:
        raise ValueError(f"{theorem} needs {option} >= 1, got {value}")
    needed = _REQUIREMENTS.get(theorem)
    if needed and needed.split()[1] not in (f"genus-{spec.genus}", spec.class_tag.value):
        raise ValueError(f"{theorem} requires {needed} spec")
    if theorem in ("T1", "T2", "T3", "T4"):
        at_center = theorem in ("T3", "T4")
        quantities, passed = _shift_identity(spec, at_center, seed, draws, n_terms, tolerance)
    elif theorem == "T5":
        # even_series raises when an odd coefficient is not negligible
        expansion = even_series(spec, k_max, n_terms)
        worst = max(expansion.odd_residuals)
        scale = max(abs(c) for c in expansion.coefficients[0::2])
        quantities, passed = [("odd_residual_max", worst), ("even_magnitude_max", scale)], True
    elif theorem in ("T6", "T7"):
        quantities, passed = _line_form_identity(
            spec, theorem == "T7", x_min, x_max, samples, n_terms, tolerance
        )
    else:
        quantities, passed = _simplicity_identity(
            spec, theorem == "T8", x_min, x_max, samples, n_terms
        )
    return IdentityResult(quantities=tuple(quantities), passed=bool(passed))


def _draw_points(rng: np.random.Generator, spec, count: int, avoid_origin: bool) -> list[complex]:
    """Deterministic points in the |Re|,|Im| <= 2 box, clear of zeros.

    A draw has |p| <= 2 sqrt 2, so a zero with |z| >= 3 lies beyond 0.17 of
    it: only the zeros with |z| < 3 can come within 1e-2.
    """
    seq = spec.zero_sequence
    zeros = seq.zeros[seq.moduli < 3.0]
    points: list[complex] = []
    while len(points) < count:
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if avoid_origin and abs(z) < 1e-2:
            continue
        if _nearest(z, zeros) < 1e-2:
            continue
        points.append(z)
    return points


def _shift_identity(spec, at_center: bool, seed: int, draws: int, n_terms, tolerance):
    rng = np.random.default_rng(seed)
    s_points = _draw_points(rng, spec, draws, avoid_origin=False)
    if at_center:
        alphas = [complex(spec.center_xi)] * draws
    else:
        alphas = _draw_points(rng, spec, draws, avoid_origin=True)
    # R = max |p| over the batch, and over each draw where the batch fails as a
    # whole: draw by draw, the first draw to fail raises
    radius = max(map(abs, s_points + alphas))
    try:
        measures = _shift_measures(spec, s_points, alphas, n_terms, radius)
    except (ValueError, ArithmeticError):
        measures = [_shift_measures(spec, [s], [a], n_terms, max(abs(s), abs(a)))[0] for s, a in zip(s_points, alphas)]
    disagreement = max([0.0, *(m[2] for m in measures)])
    residual = max([0.0, *(m[3] for m in measures)])
    quantities = [("disagreement_max", disagreement), ("constant_residual_max", residual)]
    return quantities, disagreement <= tolerance and residual <= tolerance


def _line_form_identity(spec, with_even_form: bool, x_min, x_max, samples, n_terms, tolerance):
    profile = critical_line_profile(spec, x_min, x_max, samples, n_terms)
    direct = profile.values
    if not (np.all(np.isfinite(direct)) and cmath.isfinite(profile.v0)):
        raise ValueError(f"line values pass the double range on [{x_min!r}, {x_max!r}]")
    literal, even = _line_forms(spec, profile.truncation, profile.grid, profile.v0, with_even_form)
    scale = 1.0 + np.abs(direct)
    residual = float(np.max(np.abs(literal - direct) / scale))
    quantities = [("line_form_residual_max", residual)]
    passed = residual <= tolerance
    if even is not None:
        even_residual = float(np.max(np.abs(even - direct) / scale))
        reality = profile.imag_max / max(float(np.max(np.abs(direct))), 1e-300)
        quantities.append(("reality_ratio", reality))
        quantities.append(("even_form_residual_max", even_residual))
        passed = passed and reality <= tolerance and even_residual <= tolerance
    return quantities, passed


def _simplicity_identity(spec, scan: bool, x_min: float, x_max: float, samples, n_terms):
    zeros = _retained(spec, n_terms)
    n = int(zeros.size)
    far_radius = 0.0
    if scan:
        profile = critical_line_profile(spec, x_min, x_max, samples, n)
        found = scan_real_zeros(profile, spec)
        centers = [complex(profile.xi, est.tau) for est in found.estimates]
        far_radius = _line_radius(profile.xi, profile.grid)  # the profile's far field
    else:
        centers = []
        for z in zeros[(x_min <= zeros.imag) & (zeros.imag <= x_max)].tolist():
            if len(centers) == MAX_AUDITED_ZEROS:
                break
            if all(abs(z - c) > 1e-9 for c in centers):
                centers.append(z)
    centers = centers[:MAX_AUDITED_ZEROS]
    quantities: list[tuple[str, object]] = [("audited_zeros", len(centers))]
    passed = len(centers) > 0
    radii = [0.4 * min(_nearest(c, zeros[np.abs(zeros - c) > 1e-9]), 1.0) for c in centers]
    # one far field a run: the profile's (T8) and every contour's |c| + r
    far_radius = max([far_radius, *(abs(c) + r for c, r in zip(centers, radii))])
    for j, (center, radius) in enumerate(zip(centers, radii)):
        nodes = _trapezoid_nodes(zeros, center, radius)
        result = _winding(spec, zeros, center, radius, nodes, far_radius)
        quantities.append((f"winding[{j}]", result.winding))
        passed = passed and result.winding == 1
    return quantities, passed
