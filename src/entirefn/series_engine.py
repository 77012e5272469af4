"""Power sums over zeros and Taylor recentering of the product form.

Writing u = s - center and p_m = sum_k (z_k - center)^-m, the log of the
truncated product is an explicit power series in u:

    log S(center + u) - log S(center) = sum_{m>=1} g_m u^m
    g_m = -p_m / m                      (m >= 2, any genus)
    g_1 = -p_1                          (genus 0)
    g_1 = q + sum_k [1/z_k - 1/(z_k - center)]   (genus 1, bracket per factor)

The genus-1 bracket is summed factor-wise because its two halves are only
conditionally convergent separately; at center = 0 every bracket is exactly
zero and g_1 reduces to q exactly.  Taylor coefficients follow from the
exponential-of-series recurrence

    n * (c_n / c_0) = sum_{m=1..n} m * g_m * (c_{n-m} / c_0),

with c_0 the truncated product value at the center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import complex_sum
from .core_types import ClassTag, EntireFunctionSpec
from .product_engine import _guard_coincident, _retained, eval_product

__all__ = [
    "PowerSums",
    "TaylorExpansion",
    "power_sums",
    "taylor_coefficients",
    "eval_series",
    "even_series",
]

# Odd coefficients are forced to zero only when their pre-forcing magnitude
# is at most this fraction of the largest even coefficient magnitude.
ODD_RESIDUAL_COEFF = 1e-8


@dataclass(frozen=True)
class PowerSums:
    """Inverse power sums p_m = sum_k (z_k - center)^-m for m = 1..m_max.

    ``m1_conditional`` flags that the m = 1 sum of a genus-1 zero set is
    only conditionally convergent; the reported value is the exactly
    reduced sum over the retained, pairing-ordered data.
    """

    center: complex
    values: tuple[complex, ...]
    terms_used: int
    m1_conditional: bool


@dataclass(frozen=True)
class TaylorExpansion:
    """Taylor coefficients c_0..c_K of the truncated representation.

    ``odd_residuals`` is populated only by :func:`even_series`: the measured
    pre-forcing magnitudes of the odd-index coefficients, in index order
    (1, 3, 5, ...).
    """

    center: complex
    coefficients: tuple[complex, ...]
    terms_used: int
    genus: int
    odd_residuals: tuple[float, ...] | None = None

    @property
    def k_max(self) -> int:
        return len(self.coefficients) - 1


def power_sums(
    spec: EntireFunctionSpec,
    center: complex,
    m_max: int,
    n_terms: int | None = None,
) -> PowerSums:
    """Compute p_1..p_m_max about a center that is not a retained zero.

    Powers are built by repeated multiplication, which preserves conjugate
    symmetry exactly: for sign-symmetric data about a real center the odd
    sums cancel to exactly zero under the exact reduction.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    center = complex(center)
    zeros = _retained(spec, n_terms)
    _guard_coincident(center, zeros, "expansion center coincides with a retained zero")
    values: list[complex] = []
    if zeros.size:
        recip = 1.0 / (zeros - center)
        current = recip.copy()
        values.append(complex_sum(current))
        for _ in range(2, m_max + 1):
            current = current * recip
            values.append(complex_sum(current))
    else:
        values = [0j] * m_max
    return PowerSums(
        center=center,
        values=tuple(values),
        terms_used=int(zeros.size),
        m1_conditional=(spec.genus == 1),
    )


def taylor_coefficients(
    spec: EntireFunctionSpec,
    center: complex,
    k_max: int,
    n_terms: int | None = None,
) -> TaylorExpansion:
    """Taylor coefficients of the truncated product about ``center``.

    c_0 is the truncated product value at the center (must be nonzero, i.e.
    the center must not be a retained zero); higher coefficients come from
    the exponential-of-series recurrence in the module docstring.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    center = complex(center)
    zeros = _retained(spec, n_terms)
    n = int(zeros.size)
    _guard_coincident(center, zeros, "expansion center coincides with a retained zero")
    c0 = eval_product(spec, center, n).value
    if c0 == 0:
        raise ValueError("expansion center is a zero of the truncated product")
    if k_max == 0:
        return TaylorExpansion(center=center, coefficients=(c0,), terms_used=n, genus=spec.genus)

    g = np.zeros(k_max + 1, dtype=np.complex128)
    sums = power_sums(spec, center, k_max, n)
    for m in range(2, k_max + 1):
        g[m] = -sums.values[m - 1] / m
    if spec.genus == 1:
        g[1] = spec.q_constant
        if n:
            g[1] += complex_sum(1.0 / zeros - 1.0 / (zeros - center))
    else:
        g[1] = -sums.values[0]

    ratios = np.zeros(k_max + 1, dtype=np.complex128)
    ratios[0] = 1.0
    for k in range(1, k_max + 1):
        acc = 0j
        for m in range(1, k + 1):
            acc += m * g[m] * ratios[k - m]
        ratios[k] = acc / k
    coeffs = tuple(complex(c0 * r) for r in ratios)
    return TaylorExpansion(center=center, coefficients=coeffs, terms_used=n, genus=spec.genus)


def eval_series(expansion: TaylorExpansion, s: complex) -> complex:
    """Horner evaluation of the expansion at s."""
    u = complex(s) - expansion.center
    total = 0j
    for c in reversed(expansion.coefficients):
        total = total * u + c
    return total


def even_series(
    spec: EntireFunctionSpec,
    k_max: int,
    n_terms: int | None = None,
) -> TaylorExpansion:
    """Expansion about the center line with odd coefficients forced to zero.

    Requires a Y_tilde spec whose retained tau offsets are sign-symmetric.
    Odd-index coefficients are measured first; if any pre-forcing magnitude
    exceeds 1e-8 times the largest even magnitude the symmetry hypothesis is
    rejected with an error.  The measured odd magnitudes are returned in
    ``odd_residuals``.
    """
    if spec.class_tag is not ClassTag.Y_TILDE:
        raise ValueError("even series requires a Y_tilde spec")
    zeros = _retained(spec, n_terms)
    _require_sign_symmetric(zeros.imag)
    assert spec.center_xi is not None
    expansion = taylor_coefficients(spec, complex(spec.center_xi), k_max, int(zeros.size))
    coeffs = list(expansion.coefficients)
    even_mags = [abs(c) for c in coeffs[0::2]]
    odd_mags = [abs(c) for c in coeffs[1::2]]
    threshold = ODD_RESIDUAL_COEFF * max(even_mags)
    if any(m > threshold for m in odd_mags):
        worst = max(odd_mags)
        raise ValueError(
            f"odd-coefficient residual {worst:.3e} exceeds {threshold:.3e}: symmetry hypothesis violated"
        )
    for k in range(1, len(coeffs), 2):
        coeffs[k] = 0j
    return TaylorExpansion(
        center=expansion.center,
        coefficients=tuple(coeffs),
        terms_used=expansion.terms_used,
        genus=expansion.genus,
        odd_residuals=tuple(odd_mags),
    )


def _require_sign_symmetric(taus: np.ndarray) -> None:
    pos = np.sort(taus[taus > 0])
    neg = np.sort(-taus[taus < 0])
    scale = float(np.max(np.abs(taus), initial=0.0))
    if pos.size != neg.size or (
        pos.size and float(np.max(np.abs(pos - neg))) > 1e-12 * max(scale, 1.0)
    ):
        raise ValueError("tau offsets are not sign-symmetric: symmetry hypothesis violated")
