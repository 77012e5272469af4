from __future__ import annotations

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
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
    critical_line_profile,
    estimate_order,
    eval_product,
    eval_shifted_product,
    log_derivative,
    make_symmetric_spec,
    shift_constant_residual,
    verify_multiplicity,
)
from entirefn import identities, product_engine
from entirefn.identities import compare_shift, verify_identity


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

    def test_infinite_tail_bound_vanishes_at_origin(self) -> None:
        # terms e^708 j^-1.1 over the fitted half: the extrapolated tail is inf
        j = np.arange(1, 17, dtype=float)
        inv_sq = np.where(j >= 9, np.exp(708.0 - 1.1 * np.log(j)), 1e300)
        spec = small_spec(1.0 / np.sqrt(inv_sq), genus=1)
        assert eval_product(spec, 0.3).tail_bound == math.inf
        # every factor is 1 at s = 0, so 0 * inf must not give nan
        assert eval_product(spec, 0.0).tail_bound == 0.0

    def test_tail_bound_where_s_squared_passes_the_range(self, sinh_genus1_spec) -> None:
        # |s|^2 = 1e400 at genus 1: the finite tail times it reads inf
        result = eval_product(sinh_genus1_spec, 1e200, 1000)
        assert sinh_genus1_spec.zero_sequence.tail_profile(1).tail_beyond(1000) > 0.0
        assert result.tail_bound == math.inf

    def test_tail_bound_is_built_on_first_read(self, monkeypatch) -> None:
        builds = []
        original = ZeroSequence.tail_profile

        def spy(seq, genus):
            builds.append(genus)
            return original(seq, genus)

        monkeypatch.setattr(ZeroSequence, "tail_profile", spy)
        spec = make_symmetric_spec(1.0, [1.0, -1.0, 2.0, -2.0], 1.0)
        result = eval_product(spec, 0.4 + 0.2j)
        assert builds == []
        # read twice, built once; a short list counts as complete
        assert result.tail_bound == result.tail_bound == 0.0
        assert builds == [0]

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

    def test_exponent_past_the_range_is_an_error(self) -> None:
        # q (s - alpha) = -1e310 is past the range, as q s is: not an exact 0
        spec = small_spec(np.array([1j, -1j]), genus=1, q=1e300)
        with pytest.raises(ValueError, match="passes the double range"):
            eval_product(spec, -1e10)
        with pytest.raises(ValueError, match=re.escape("q*(s - alpha) = (-inf+0j) passes the double range")):
            eval_shifted_product(spec, 1, -1e10)

    def test_shift_point_whose_quotient_overflows(self) -> None:
        # alpha / z = 1e310 passes the double range: the factor log at alpha
        # comes from z - alpha, so S(alpha) and every recentred value are finite
        mpmath = pytest.importorskip("mpmath")
        spec = small_spec(np.array([1e-10 + 0j]))
        at_alpha = eval_product(spec, 1e300)
        with mpmath.workprec(120):
            expected = complex(mpmath.log(1 - mpmath.mpf(1e300) / mpmath.mpf(1e-10)))
        assert expected == pytest.approx(713.8 + math.pi * 1j, abs=0.05)
        assert abs(at_alpha.log_value - expected) <= 1e-15 * abs(expected)
        shifted = eval_shifted_product(spec, 1e300, 1)
        direct = eval_product(spec, 1).value
        assert direct == pytest.approx(1 - 1e10, rel=1e-14)
        assert abs(shifted.value - direct) <= 1e-13 * abs(direct)

    def test_genus1_shift_point_whose_log_passes_the_range(self) -> None:
        # at genus 1 the factor log at alpha is log(1 - alpha/z) + alpha/z, about
        # 1e310: both shift functions refuse alpha by name
        spec = small_spec(np.array([1e-10 + 0j]), genus=1)
        assert eval_product(spec, 1e300).log_value.real == math.inf
        message = r"log S\(alpha\) at alpha = \(1e\+300\+0j\) passes the double range"
        with pytest.raises(ValueError, match=message):
            eval_shifted_product(spec, 1e300, 1)
        with pytest.raises(ValueError, match=message):
            shift_constant_residual(spec, 1e300)
        # a closed-form S(alpha) takes no product log at alpha, so no refusal
        assert math.isfinite(shift_constant_residual(spec, 1e300, value_at_alpha=1.0))

    def test_compare_shift_is_the_public_functions(self, lbar_spec) -> None:
        for alpha, s in ((0.6 + 0.4j, 1.3 + 0.2j), (1.0, 0.3 - 0.7j), (-0.5, 2.0)):
            expected = (
                eval_shifted_product(lbar_spec, alpha, s, 300).value,
                eval_product(lbar_spec, s, 300).value,
            )
            shifted, direct, disagreement, residual = compare_shift(lbar_spec, alpha, s, 300)
            assert (shifted, direct) == expected
            assert disagreement == abs(shifted - direct) / (1.0 + abs(direct))
            assert residual == shift_constant_residual(lbar_spec, alpha, 300)

    @pytest.mark.parametrize("theorem", ["T1", "T3"])
    def test_one_evaluation_per_shift_point(self, lbar_spec, monkeypatch, theorem) -> None:
        batches = []
        original = product_engine._eval_batch

        def spy(spec, points, n, radius):
            batches.append([complex(s) for s in points])
            return original(spec, points, n, radius)

        # the product evaluations are S(alpha), then the direct values
        monkeypatch.setattr(product_engine, "_eval_batch", spy)
        spec = lbar_spec if theorem == "T3" else small_spec(lbar_spec.zero_sequence.zeros, 1, 0.3)
        verify_identity(spec, theorem, draws=6)
        # T3 draws alpha = xi every time; T1 draws six distinct alphas, in one batch
        points, direct = batches
        assert len(points) == (1 if theorem == "T3" else 6)
        assert len(set(points)) == len(points)
        assert len(direct) == 6


    def test_first_failing_draw_names_the_error(self) -> None:
        # q*s, q*(s - alpha) and the logs pass the double range at most draws, each its own way;
        # zeros at 40 and 60 lie beyond 4R for every batch of the box
        for far in ([], [40j, -40j, 60j, -60j]):
            spec = small_spec([1 + 1j, 1 - 1j, *far], 1, 1e308)
            rng = np.random.default_rng(0)
            s_points = identities._draw_points(rng, spec, 9, avoid_origin=False)
            alphas = identities._draw_points(rng, spec, 9, avoid_origin=True)
            errors = []
            for s, alpha in zip(s_points, alphas):
                try:
                    product_engine._shift_measures(spec, [s], [alpha], None, max(abs(s), abs(alpha)))
                except ValueError as error:
                    errors.append(str(error))
            assert len(set(errors)) > 2
            # the batched draws fail as a whole; the error is the first draw's, as if alone
            with pytest.raises(ValueError) as info:
                verify_identity(spec, "T1", seed=0, draws=9)
            assert str(info.value) == errors[0]


class _ScriptedRng:
    """A generator whose uniform draws are the given values, in order."""

    def __init__(self, values) -> None:
        self.values = iter(values)

    def uniform(self, low: float, high: float) -> float:
        return next(self.values)


@pytest.mark.parametrize("avoid_origin, point", [(True, 0.5 - 0.5j), (False, 0.001 + 0.002j)])
def test_draws_skip_points_near_a_zero_and_the_origin(avoid_origin, point) -> None:
    # candidates 1.005 + i (within 1e-2 of the zero 1 + i), 0.001 + 0.002i, 0.5 - 0.5i
    rng = _ScriptedRng([1.005, 1.0, 0.001, 0.002, 0.5, -0.5])
    spec = small_spec([1 + 1j, 1 - 1j])
    assert identities._draw_points(rng, spec, 1, avoid_origin) == [point]


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

    def test_alpha_zero_rejected_with_an_external_value(self, sinh_genus1_spec) -> None:
        with pytest.raises(ValueError, match="shift point must be nonzero"):
            shift_constant_residual(sinh_genus1_spec, 0, value_at_alpha=1)

    @pytest.mark.parametrize("alpha", [0.4 + 0.4j, 1.0, 2.5 - 7.25j, 30.0 + 0.5j])
    def test_genus0_sums_the_factor_logs_at_alpha_once(
        self, sinh_line_spec, monkeypatch, alpha
    ) -> None:
        zeros, (at_alpha,) = product_engine._at_shift_points(sinh_line_spec, [alpha], 2000)
        (recomputed,) = product_engine._constant_residuals(
            sinh_line_spec, [alpha], zeros, [at_alpha.value], [at_alpha.log_value]
        )
        sums_at_alpha = []
        original = product_engine._log_sum

        def spy(s, zeros, genus, center=0j):
            if s == alpha and center == 0:
                sums_at_alpha.append(genus)
            return original(s, zeros, genus, center)

        monkeypatch.setattr(product_engine, "_log_sum", spy)
        *_, residual = compare_shift(sinh_line_spec, alpha, 0.3 + 0.1j, 2000)
        # at genus 0 the internal S(alpha) is the left side itself: the residual
        # is 0 with no second sum, and a second sum has the same bits
        assert sums_at_alpha == [0]
        assert residual == recomputed == shift_constant_residual(sinh_line_spec, alpha, 2000) == 0.0


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


_CONSUMERS = {
    "critical_line_profile": lambda spec, n: critical_line_profile(spec, 0.5, 2.5, 8, n),
    "estimate_order": lambda spec, n: estimate_order(spec, 2.0, 50.0, 3, n, angular_samples=8),
    "verify_multiplicity": lambda spec, n: verify_multiplicity(spec, 1.0 + 1.0j, 0.4, 16, n),
    # a window with no line zero: nothing to audit, but N is still checked
    "T9": lambda spec, n: verify_identity(spec, "T9", n, x_min=10.0, x_max=11.0),
}


@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
@pytest.mark.parametrize(
    "n_terms, message",
    [
        (-1, "n_terms must be >= 0"),
        (7, "insufficient zeros"),
        (3, r"N = 3 splits a \+-tau pair: use N = 2 or N = 4"),
    ],
)
def test_one_truncation_rule_in_every_consumer(consumer, n_terms, message) -> None:
    # six zeros: N = 7 asks for one more than the spec has
    spec = make_symmetric_spec(
        xi=1.0,
        taus=[1.0, -1.0, 2.0, -2.0, 3.0, -3.0],
        value_at_center=1.0 + 0j,
        class_tag=ClassTag.L_BAR,
        q_constant=0.3 + 0j,
    )
    with pytest.raises(ValueError, match=message):
        _CONSUMERS[consumer](spec, n_terms)


@given(
    taus=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5, unique=True),
    reals=st.lists(st.sampled_from([0.5, -2.0, 3.0, 7.0]), max_size=3),
    line=st.booleans(),
)
def test_every_truncation_that_splits_a_pair_is_refused(taus, reals, line) -> None:
    # conjugate pairs 1 +- i tau, plus (off the line) unpaired real zeros
    taus = np.array(taus, dtype=float)
    if line:
        spec = make_symmetric_spec(1.0, np.concatenate([taus, -taus]), 1.0 + 0j)
    else:
        zeros = np.concatenate([1.0 + 1j * taus, 1.0 - 1j * taus, np.array(reals, dtype=complex)])
        seq = ZeroSequence(zeros=zeros, pairing=Pairing.CONJUGATE_PAIRS).sorted_by_modulus()
        spec = EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=seq)
    zeros = spec.zero_sequence.zeros
    bounds = set(spec.zero_sequence.group_starts.tolist()) | {len(zeros)}
    for n in range(len(zeros) + 1):
        if n in bounds:
            assert eval_product(spec, 0.25 + 0.5j, n).terms_used == n
            continue
        # zero n - 1 and zero n are one pair; the error names the truncations around it
        assert zeros[n] == np.conj(zeros[n - 1])
        pair = "\\+-tau" if line else "conjugate"
        with pytest.raises(ValueError, match=rf"N = {n} splits a {pair} pair: use N = {n - 1} or N = {n + 1}$"):
            eval_product(spec, 0.25 + 0.5j, n)
