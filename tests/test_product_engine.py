from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from _oracles import (
    FROZEN_SINH_LOG_DERIV_AT_HALF,
    FROZEN_SINH_RATIO_AT_1,
    FROZEN_SINH_RATIO_AT_HALF,
    direct_product,
    direct_shifted_product,
    sinh_ratio,
)

from entirefn import (
    ClassTag,
    EntireFunctionSpec,
    Ordering,
    Pairing,
    ZeroSequence,
    eval_product,
    eval_shifted_product,
    log_derivative,
    shift_constant_residual,
)


def small_spec(zeros, genus=0, q=0j, s0=1.0 + 0j) -> EntireFunctionSpec:
    seq = ZeroSequence(zeros=np.asarray(zeros, dtype=np.complex128), ordering=Ordering.AS_GIVEN)
    tag = ClassTag.L if genus == 1 else ClassTag.Y
    return EntireFunctionSpec(class_tag=tag, value_at_zero=s0, zero_sequence=seq, q_constant=q)


class TestEvalProduct:
    def test_empty_product_returns_origin_value(self) -> None:
        spec = small_spec([], s0=2.5 - 1j)
        result = eval_product(spec, 3 + 4j)
        assert result.value == 2.5 - 1j
        assert result.terms_used == 0
        assert result.tail_bound == 0.0
        assert result.nearest_zero_distance == math.inf
        assert not result.near_zero

    def test_genus1_fixture_matches_closed_form(self, sinh_genus1_spec) -> None:
        result = eval_product(sinh_genus1_spec, 1.0 + 0j)
        assert abs(result.value - FROZEN_SINH_RATIO_AT_1) <= 1e-3 * FROZEN_SINH_RATIO_AT_1
        assert result.terms_used == 4000

    def test_exact_zero_short_circuits(self, sinh_genus1_spec) -> None:
        result = eval_product(sinh_genus1_spec, 1j)
        assert result.value == 0j
        assert result.log_value is None
        assert result.near_zero
        assert result.nearest_zero_distance == 0.0

    def test_near_zero_flag(self, sinh_genus1_spec) -> None:
        result = eval_product(sinh_genus1_spec, 1j * (1.0 + 1e-12))
        assert result.near_zero
        assert result.value != 0

    def test_matches_direct_multiplication_genus0(self) -> None:
        rng = np.random.default_rng(7)
        zeros = rng.normal(size=10) + 1j * rng.normal(size=10)
        spec = small_spec(zeros, s0=1.5 + 0.5j)
        for s in (0.3 + 0.1j, -2.0 + 1j, 5.0 - 3j):
            expected = direct_product(1.5 + 0.5j, zeros, s, genus=0)
            assert eval_product(spec, s).value == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_multiplication_genus1(self) -> None:
        rng = np.random.default_rng(11)
        zeros = rng.normal(size=8) + 1j * rng.normal(size=8)
        q = 0.2 - 0.7j
        spec = small_spec(zeros, genus=1, q=q)
        for s in (0.25j, 1.0 - 1.0j):
            expected = direct_product(1.0, zeros, s, genus=1, q=q)
            assert eval_product(spec, s).value == pytest.approx(expected, rel=1e-12)

    def test_truncation_monotone_on_line_fixture(self, sinh_line_spec) -> None:
        s = 1.0 + 1.3
        exact = sinh_ratio(1.3)
        errors = []
        for n in (100, 1000, 10_000):
            value = eval_product(sinh_line_spec, s, n).value
            errors.append(abs(value - exact) / abs(exact))
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] <= 1e-3

    def test_error_within_tail_bound(self, sinh_line_spec) -> None:
        s = 1.0 + 0.8j + 0.6
        exact = sinh_ratio(s - 1.0)
        result = eval_product(sinh_line_spec, s, 2000)
        assert result.tail_bound is not None
        assert abs(result.value - exact) / abs(exact) <= 2.0 * result.tail_bound

    def test_insufficient_zeros(self, poly_spec) -> None:
        with pytest.raises(ValueError, match="insufficient zeros"):
            eval_product(poly_spec, 0.5, 2)
        with pytest.raises(ValueError, match="n_terms"):
            eval_product(poly_spec, 0.5, -1)

    def test_indeterminate_tail_reported_as_none(self) -> None:
        zeros = 1j * np.arange(1, 201, dtype=float)
        spec = small_spec(zeros)
        result = eval_product(spec, 0.5)
        assert result.tail_bound is None

    def test_exp_log_consistency(self, lbar_spec) -> None:
        result = eval_product(lbar_spec, 0.4 + 0.2j)
        assert result.log_value is not None
        assert cmath.exp(result.log_value) == pytest.approx(result.value, rel=1e-12)

    def test_matches_120_bit_product_on_line_fixture(self, sinh_line_spec) -> None:
        mpmath = pytest.importorskip("mpmath")
        s = 1.3 + 2.45j  # at least 0.3 from every zero 1 +- ik
        with mpmath.workprec(120):
            s_mp = mpmath.mpc(s)
            reference = mpmath.mpc(sinh_line_spec.value_at_zero)
            for z in sinh_line_spec.zero_sequence.zeros:
                reference *= 1 - s_mp / mpmath.mpc(z)
            value = eval_product(sinh_line_spec, s).value
            assert float(abs(mpmath.mpc(value) - reference) / abs(reference)) <= 1e-15


class TestShiftedProduct:
    def test_at_alpha_returns_base_value(self, sinh_line_spec) -> None:
        alpha = 0.3 + 0.1j
        base = eval_product(sinh_line_spec, alpha, 2000)
        shifted = eval_shifted_product(sinh_line_spec, alpha, alpha, 2000)
        assert shifted.value == base.value

    def test_recenters_exactly_for_small_data(self) -> None:
        rng = np.random.default_rng(3)
        zeros = rng.normal(size=12) + 1j * rng.normal(size=12)
        q = 0.1 + 0.4j
        spec = small_spec(zeros, genus=1, q=q)
        alpha, s = 0.7 - 0.2j, -1.1 + 0.9j
        value_at_alpha = eval_product(spec, alpha).value
        expected = direct_shifted_product(value_at_alpha, zeros, alpha, s, genus=1, q=q)
        shifted = eval_shifted_product(spec, alpha, s)
        assert shifted.value == pytest.approx(expected, rel=1e-12)
        assert shifted.value == pytest.approx(eval_product(spec, s).value, rel=1e-12)

    def test_agrees_with_unshifted_on_fixture(self, sinh_line_spec) -> None:
        rng = np.random.default_rng(20)
        for _ in range(10):
            s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            alpha = complex(rng.uniform(0.1, 2), rng.uniform(0.1, 2))
            shifted = eval_shifted_product(sinh_line_spec, alpha, s).value
            direct = eval_product(sinh_line_spec, s).value
            assert abs(shifted - direct) <= 1e-6 * (1.0 + abs(direct))

    def test_vanishes_exactly_at_retained_zeros(self, sinh_line_spec) -> None:
        zero = sinh_line_spec.zero_sequence.zeros[4]
        shifted = eval_shifted_product(sinh_line_spec, 0.5 + 0j, zero)
        assert shifted.value == 0j
        assert shifted.near_zero

    def test_center_line_shift_matches_offset_product(self, sinh_line_spec) -> None:
        # recentering at xi turns each factor into 1 - (s-xi)/(i*tau_k)
        s = 1.0 + 0.5j + 0.2
        n = 400
        zeros = sinh_line_spec.zero_sequence.zeros[:n]
        base = eval_product(sinh_line_spec, 1.0 + 0j, n).value
        expected = base * np.prod(1.0 - (s - 1.0) / (zeros - 1.0))
        shifted = eval_shifted_product(sinh_line_spec, 1.0 + 0j, s, n)
        assert shifted.value == pytest.approx(expected, rel=1e-12)

    def test_alpha_errors(self, sinh_line_spec) -> None:
        with pytest.raises(ValueError, match="nonzero"):
            eval_shifted_product(sinh_line_spec, 0j, 1.0)
        with pytest.raises(ValueError, match="coincides"):
            eval_shifted_product(sinh_line_spec, 1 + 1j, 0.5)


class TestShiftConstantResidual:
    def test_same_data_residual_is_rounding_level(self, sinh_genus1_spec) -> None:
        rng = np.random.default_rng(5)
        for _ in range(10):
            alpha = complex(rng.uniform(0.05, 2), rng.uniform(0.05, 2))
            assert shift_constant_residual(sinh_genus1_spec, alpha) <= 1e-10

    def test_genus0_form(self, sinh_line_spec) -> None:
        assert shift_constant_residual(sinh_line_spec, 0.4 + 0.4j, 2000) <= 1e-10

    def test_external_value_residual_decreases_with_truncation(self, sinh_genus1_spec) -> None:
        closed_form = complex(FROZEN_SINH_RATIO_AT_HALF)
        res_small = shift_constant_residual(
            sinh_genus1_spec, 0.5, 100, value_at_alpha=closed_form
        )
        res_large = shift_constant_residual(
            sinh_genus1_spec, 0.5, 1000, value_at_alpha=closed_form
        )
        assert res_large < res_small

    def test_alpha_at_zero_rejected(self, sinh_genus1_spec) -> None:
        with pytest.raises(ValueError, match="coincides"):
            shift_constant_residual(sinh_genus1_spec, 1j)


class TestLogDerivative:
    def test_symmetric_cancellation_returns_q(self, sinh_genus1_spec, lbar_spec) -> None:
        assert log_derivative(sinh_genus1_spec, 0j) == 0j
        assert log_derivative(lbar_spec, 0j) == 0.3 + 0j

    def test_matches_closed_form_on_fixture(self, sinh_genus1_spec) -> None:
        value = log_derivative(sinh_genus1_spec, 0.5)
        assert value.real == pytest.approx(FROZEN_SINH_LOG_DERIV_AT_HALF, rel=1e-3)
        assert abs(value.imag) < 1e-12

    def test_single_zero(self) -> None:
        spec = small_spec([2.0 + 0j])
        assert log_derivative(spec, 1.0) == -1.0 + 0j

    def test_pole_rejected(self, sinh_genus1_spec) -> None:
        with pytest.raises(ValueError, match="pole"):
            log_derivative(sinh_genus1_spec, 1j)

    def test_matches_difference_quotient_of_log(self, sinh_line_spec) -> None:
        s = 1.0 + 0.4 + 0.3j
        h = 1e-6
        f = lambda z: eval_product(sinh_line_spec, z, 2000).log_value
        numeric = (f(s + h) - f(s - h)) / (2 * h)
        assert log_derivative(sinh_line_spec, s, 2000) == pytest.approx(numeric, rel=1e-8)
