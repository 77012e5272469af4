from __future__ import annotations

import math

import numpy as np
import pytest

from entirefn import (
    ClassTag,
    EntireFunctionSpec,
    MultiplicityResult,
    Ordering,
    ZeroSequence,
    estimate_exponent,
    estimate_order,
    max_modulus,
    verify_multiplicity,
)


def bare_spec(zeros, genus=0, q=0j, s0=1.0 + 0j) -> EntireFunctionSpec:
    seq = ZeroSequence(zeros=np.asarray(zeros, dtype=np.complex128), ordering=Ordering.AS_GIVEN)
    tag = ClassTag.L if genus == 1 else ClassTag.Y
    return EntireFunctionSpec(class_tag=tag, value_at_zero=s0, zero_sequence=seq, q_constant=q)


@pytest.fixture(scope="module")
def pure_exponential_spec() -> EntireFunctionSpec:
    return bare_spec([], genus=1, q=1.0 + 0j)


@pytest.fixture(scope="module")
def constant_spec() -> EntireFunctionSpec:
    return bare_spec([], genus=0, s0=2.0 + 0j)


class TestMaxModulus:
    def test_pure_exponential_circle(self, pure_exponential_spec) -> None:
        assert max_modulus(pure_exponential_spec, 2.0) == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_small_radius_approaches_origin_value(self, constant_spec) -> None:
        assert max_modulus(constant_spec, 1e-12) == pytest.approx(2.0, rel=1e-9)

    def test_doubling_refines_upward(self, sinh_genus1_spec) -> None:
        coarse = max_modulus(sinh_genus1_spec, 3.0, angular_samples=64)
        fine = max_modulus(sinh_genus1_spec, 3.0, angular_samples=128)
        assert fine >= coarse

    def test_zero_on_grid_is_skipped(self, poly_spec) -> None:
        # theta = 0 lands exactly on the zero at 2; other nodes still count
        assert max_modulus(poly_spec, 2.0) > 0.0

    def test_argument_validation(self, constant_spec) -> None:
        for radius in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="radius"):
                max_modulus(constant_spec, radius)
        with pytest.raises(ValueError, match="angular_samples"):
            max_modulus(constant_spec, 1.0, angular_samples=3)


class TestEstimateOrder:
    def test_line_fixture_is_order_one(self, sinh_genus1_spec) -> None:
        estimate = estimate_order(sinh_genus1_spec, 10.0, 200.0)
        assert 0.9 <= estimate.order <= 1.1
        assert estimate.truncation == 4000
        assert len(estimate.radii) >= 3

    def test_pure_exponential_is_exactly_order_one(self, pure_exponential_spec) -> None:
        estimate = estimate_order(pure_exponential_spec, 2.0, 100.0)
        assert estimate.order == pytest.approx(1.0, abs=1e-12)
        assert estimate.rms_residual <= 1e-12

    def test_bounded_spec_rejected(self, constant_spec) -> None:
        with pytest.raises(ValueError, match="insufficient growth"):
            estimate_order(constant_spec, 2.0, 100.0)

    def test_argument_validation(self, pure_exponential_spec) -> None:
        with pytest.raises(ValueError, match="v_min"):
            estimate_order(pure_exponential_spec, 1.0, 10.0)
        with pytest.raises(ValueError, match="v_max"):
            estimate_order(pure_exponential_spec, 5.0, 5.0)
        with pytest.raises(ValueError, match="n_radii"):
            estimate_order(pure_exponential_spec, 2.0, 10.0, n_radii=2)


class TestEstimateExponent:
    def test_linear_counting(self, sinh_genus1_spec) -> None:
        estimate = estimate_exponent(sinh_genus1_spec.zero_sequence, 5.0, 500.0)
        assert 0.9 <= estimate.exponent <= 1.1
        assert estimate.counting_pairs[0][1] >= 1
        assert estimate.counting_pairs[-1][1] == 1000

    def test_sparse_zeros_give_small_exponent(self) -> None:
        seq = ZeroSequence(
            zeros=np.exp2(np.arange(1, 13)).astype(np.complex128),
            ordering=Ordering.BY_MODULUS,
        )
        estimate = estimate_exponent(seq, 1.5, 5000.0)
        assert estimate.exponent <= 0.3

    def test_too_few_zeros_in_range(self, sinh_genus1_spec) -> None:
        with pytest.raises(ValueError, match="at least 10"):
            estimate_exponent(sinh_genus1_spec.zero_sequence, 0.5, 3.0)

    def test_argument_validation(self, sinh_genus1_spec) -> None:
        with pytest.raises(ValueError, match="r_min"):
            estimate_exponent(sinh_genus1_spec.zero_sequence, 0.0, 5.0)
        with pytest.raises(ValueError, match="r_min"):
            estimate_exponent(sinh_genus1_spec.zero_sequence, 5.0, 5.0)


class TestVerifyMultiplicity:
    def test_simple_zero(self, sinh_line_spec) -> None:
        result = verify_multiplicity(sinh_line_spec, 1.0 + 1.0j, 0.3, n_terms=2000)
        assert result.winding == 1
        assert abs(result.raw_integral - 1.0) <= 0.1
        assert result.nodes == 512

    def test_empty_disc(self, sinh_line_spec) -> None:
        result = verify_multiplicity(sinh_line_spec, 1.0 + 0.5j, 0.2, n_terms=2000)
        assert result.winding == 0

    def test_double_zero(self, duplicated_zero_spec) -> None:
        result = verify_multiplicity(duplicated_zero_spec, 1.0 + 1.0j, 0.3)
        assert result.winding == 2

    def test_counting_is_additive(self) -> None:
        spec = bare_spec([2.0 + 0j, 3.0 + 0j, 4.0 + 0j])
        assert verify_multiplicity(spec, 3.0 + 0j, 1.5).winding == 3
        assert verify_multiplicity(spec, 3.0 + 0j, 0.5).winding == 1
        assert verify_multiplicity(spec, 3.5 + 2.0j, 0.3).winding == 0

    def test_genus1_symmetric_zero(self, lbar_spec) -> None:
        result = verify_multiplicity(lbar_spec, 1.0 + 2.0j, 0.4)
        assert result.winding == 1

    def test_zero_on_contour_rejected(self) -> None:
        spec = bare_spec([2.0 + 0j, 3.0 + 0j, 4.0 + 0j])
        with pytest.raises(ValueError, match="contour"):
            verify_multiplicity(spec, 3.0 + 0j, 1.0)

    def test_argument_validation(self, poly_spec) -> None:
        with pytest.raises(ValueError, match="radius"):
            verify_multiplicity(poly_spec, 0j, -0.5)
        with pytest.raises(ValueError, match="nodes"):
            verify_multiplicity(poly_spec, 0j, 0.5, nodes=8)

    def test_unsnapped_integral_rejected(self) -> None:
        with pytest.raises(ValueError, match="snap"):
            MultiplicityResult(
                center=0j, radius=1.0, winding=1, raw_integral=1.3 + 0j, nodes=64
            )
