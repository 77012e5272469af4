"""Numerics for genus-0 and genus-1 entire functions of order one.

The package evaluates such functions from their zero sequences via
truncated canonical products, expands them in Taylor and even series,
restricts them to a symmetry line, and estimates growth order, the
zero-counting exponent, and zero multiplicities.
"""

from __future__ import annotations

from .analysis import (
    ExponentEstimate,
    MultiplicityResult,
    OrderEstimate,
    estimate_exponent,
    estimate_order,
    max_modulus,
    verify_multiplicity,
)
from .core_types import (
    ClassTag,
    EntireFunctionSpec,
    Ordering,
    Pairing,
    TailProfile,
    ValidationCheck,
    ValidationReport,
    Verdict,
    ZeroSequence,
    make_symmetric_spec,
    modulus_sort_indices,
    validate_zero_sequence,
)
from .critical_line import (
    CriticalLineProfile,
    RealZeroEstimate,
    RealZeroSet,
    RotatedDerivatives,
    critical_line_profile,
    even_product_form,
    rotated_derivatives,
    scan_real_zeros,
)
from .product_engine import (
    TruncatedEvaluation,
    eval_product,
    eval_shifted_product,
    log_derivative,
    shift_constant_residual,
)
from .series_engine import (
    PowerSums,
    TaylorExpansion,
    eval_series,
    even_series,
    power_sums,
    taylor_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ClassTag",
    "Ordering",
    "Pairing",
    "Verdict",
    "ZeroSequence",
    "TailProfile",
    "ValidationCheck",
    "ValidationReport",
    "EntireFunctionSpec",
    "modulus_sort_indices",
    "validate_zero_sequence",
    "make_symmetric_spec",
    "TruncatedEvaluation",
    "eval_product",
    "eval_shifted_product",
    "shift_constant_residual",
    "log_derivative",
    "PowerSums",
    "TaylorExpansion",
    "power_sums",
    "taylor_coefficients",
    "eval_series",
    "even_series",
    "CriticalLineProfile",
    "RealZeroEstimate",
    "RealZeroSet",
    "RotatedDerivatives",
    "critical_line_profile",
    "scan_real_zeros",
    "even_product_form",
    "rotated_derivatives",
    "OrderEstimate",
    "ExponentEstimate",
    "MultiplicityResult",
    "max_modulus",
    "estimate_order",
    "estimate_exponent",
    "verify_multiplicity",
]
