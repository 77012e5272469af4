from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import (
    FROZEN_DOUBLED_BASEL_1000,
    FROZEN_EVEN_COEFFS,
    FROZEN_SINH_RATIO_AT_HALF,
)

from entirefn import (
    ClassTag,
    EntireFunctionSpec,
    Ordering,
    Pairing,
    ZeroSequence,
    eval_product,
    eval_series,
    even_series,
    log_derivative,
    make_symmetric_spec,
    power_sums,
    taylor_coefficients,
)
from entirefn import series_engine


def imaginary_pair_spec(k_max: int) -> EntireFunctionSpec:
    taus = np.empty(2 * k_max)
    taus[0::2] = np.arange(1, k_max + 1)
    taus[1::2] = -np.arange(1, k_max + 1)
    seq = ZeroSequence(
        zeros=1j * taus,
        ordering=Ordering.BY_MODULUS,
        pairing=Pairing.CONJUGATE_PAIRS,
    )
    return EntireFunctionSpec(class_tag=ClassTag.L, value_at_zero=1.0 + 0j, zero_sequence=seq)


def zero_free_spec(q: complex, s0: complex) -> EntireFunctionSpec:
    seq = ZeroSequence(zeros=np.array([], dtype=np.complex128), ordering=Ordering.AS_GIVEN)
    return EntireFunctionSpec(class_tag=ClassTag.L, value_at_zero=s0, zero_sequence=seq, q_constant=q)


class TestPowerSums:
    def test_second_sum_matches_partial_basel(self) -> None:
        sums = power_sums(imaginary_pair_spec(1000), 0j, 2)
        assert sums.values[1] == pytest.approx(-FROZEN_DOUBLED_BASEL_1000, rel=1e-12)
        assert abs(sums.values[1] + math.pi**2 / 3.0) <= 2.1e-3
        assert sums.terms_used == 2000
        assert sums.m1_conditional

    def test_odd_sums_cancel_exactly(self) -> None:
        sums = power_sums(imaginary_pair_spec(500), 0j, 7)
        for m in (1, 3, 5, 7):
            assert sums.values[m - 1] == 0j

    def test_single_zero_cube(self, poly_spec) -> None:
        sums = power_sums(poly_spec, 0j, 3)
        assert sums.values == (0.5 + 0j, 0.25 + 0j, 0.125 + 0j)
        assert not sums.m1_conditional

    def test_center_on_zero_rejected(self, sinh_genus1_spec) -> None:
        with pytest.raises(ValueError, match="coincides"):
            power_sums(sinh_genus1_spec, 1j, 2)

    def test_bad_m_max(self, poly_spec) -> None:
        with pytest.raises(ValueError, match="m_max"):
            power_sums(poly_spec, 0j, 0)

    @settings(max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        count=st.integers(min_value=1, max_value=511),
    )
    def test_matches_plain_loop_as_every_power_underflows(self, seed, count) -> None:
        # fewer than 512 zeros: the sums go straight to math.fsum, zeros and all
        rng = np.random.default_rng(seed)
        center = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        offsets = 10.0 ** rng.uniform(0.5, 3.0, count) * np.exp(1j * rng.uniform(-3.2, 3.2, count))
        seq = ZeroSequence(zeros=center + offsets, ordering=Ordering.AS_GIVEN)
        spec = EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=1.0 + 0j, zero_sequence=seq)
        sums = power_sums(spec, center, 700).values
        recip = 1.0 / (seq.zeros - center)
        power = recip
        for m in range(1, 701):
            if m > 1:
                power = power * recip
            assert sums[m - 1].real.hex() == math.fsum(power.real).hex()
            assert sums[m - 1].imag.hex() == math.fsum(power.imag).hex()
        # |z - center| > 3.1, so 3.1**-700 and every smaller power is 0
        assert not np.any(power)


class TestTaylorCoefficients:
    def test_symmetric_center_coefficients(self, sinh_genus1_spec) -> None:
        exp = taylor_coefficients(sinh_genus1_spec, 0j, 5)
        c = exp.coefficients
        assert c[0] == 1.0 + 0j
        assert c[1] == 0j
        assert c[3] == 0j
        assert c[2].real == pytest.approx(FROZEN_EVEN_COEFFS[1], rel=1e-3)
        assert c[4].real == pytest.approx(FROZEN_EVEN_COEFFS[2], rel=2e-3)
        assert exp.genus == 1
        assert exp.k_max == 5

    def test_order_zero_is_the_value(self, sinh_genus1_spec) -> None:
        exp = taylor_coefficients(sinh_genus1_spec, 0.5, 0)
        assert exp.coefficients == (eval_product(sinh_genus1_spec, 0.5).value,)
        assert exp.k_max == 0 and exp.terms_used == len(sinh_genus1_spec.zero_sequence)

    def test_recurrence_past_the_double_range_is_refused(self) -> None:
        # r_2 = q^2 / 2 = 5e399
        with pytest.raises(ValueError, match="Taylor recurrence passes the double range by order 3"):
            taylor_coefficients(zero_free_spec(1e200, 1.0), 0j, 3)

    def test_zero_free_exponential(self) -> None:
        q, s0 = 0.3 + 0.2j, 2.0 + 0j
        exp = taylor_coefficients(zero_free_spec(q, s0), 0j, 12)
        assert exp.coefficients[0] == s0
        for k in range(1, 13):
            expected = s0 * q**k / math.factorial(k)
            assert exp.coefficients[k] == pytest.approx(expected, rel=1e-13)

    def test_linear_polynomial_terminates(self, poly_spec) -> None:
        exp = taylor_coefficients(poly_spec, 0j, 4)
        assert exp.coefficients[0] == 1.0 + 0j
        assert exp.coefficients[1] == -0.5 + 0j
        assert exp.coefficients[2] == 0j
        assert exp.coefficients[3] == 0j
        assert exp.coefficients[4] == 0j

    def test_first_coefficient_is_log_derivative(self, sinh_genus1_spec) -> None:
        center = 0.5 + 0.2j
        exp = taylor_coefficients(sinh_genus1_spec, center, 1)
        expected = log_derivative(sinh_genus1_spec, center) * exp.coefficients[0]
        assert exp.coefficients[1] == pytest.approx(expected, rel=1e-12)

    def test_first_coefficient_matches_difference_quotient(self, lbar_spec) -> None:
        center, h = 0.4 + 0j, 1e-5
        exp = taylor_coefficients(lbar_spec, center, 1)
        numeric = (
            eval_product(lbar_spec, center + h).value - eval_product(lbar_spec, center - h).value
        ) / (2 * h)
        assert exp.coefficients[1] == pytest.approx(numeric, rel=1e-5)

    def test_center_on_zero_rejected(self, poly_spec) -> None:
        with pytest.raises(ValueError, match="coincides"):
            taylor_coefficients(poly_spec, 2.0 + 0j, 3)

    def test_bad_k_max(self, poly_spec) -> None:
        with pytest.raises(ValueError, match="k_max"):
            taylor_coefficients(poly_spec, 0j, -1)


class TestEvalSeries:
    def test_value_at_center_is_c0(self, lbar_spec) -> None:
        exp = taylor_coefficients(lbar_spec, 0.3 + 0j, 6)
        assert eval_series(exp, 0.3 + 0j) == exp.coefficients[0]

    def test_exact_root_of_linear_expansion(self, poly_spec) -> None:
        exp = taylor_coefficients(poly_spec, 0j, 4)
        assert eval_series(exp, 2.0 + 0j) == 0j

    def test_recentred_series_tracks_product(self, sinh_line_spec) -> None:
        exp = taylor_coefficients(sinh_line_spec, 1.0 + 0j, 20)
        s = 1.5 + 0j
        series_value = eval_series(exp, s)
        product_value = eval_product(sinh_line_spec, s).value
        assert abs(series_value - product_value) <= 1e-6 * (1.0 + abs(product_value))
        assert series_value.real == pytest.approx(FROZEN_SINH_RATIO_AT_HALF, rel=1e-4)

    def test_series_tracks_product_off_axis(self, sinh_genus1_spec) -> None:
        exp = taylor_coefficients(sinh_genus1_spec, 0j, 20)
        for s in (0.5 + 0.3j, -0.7 + 0.1j, 0.9j * 0.5):
            series_value = eval_series(exp, s)
            product_value = eval_product(sinh_genus1_spec, s).value
            assert abs(series_value - product_value) <= 1e-6 * (1.0 + abs(product_value))


class TestEvenSeries:
    def test_forces_odd_coefficients(self, sinh_line_spec) -> None:
        exp = even_series(sinh_line_spec, 8)
        assert exp.center == 1.0 + 0j
        assert exp.coefficients[1] == 0j
        assert exp.coefficients[3] == 0j
        assert exp.odd_residuals is not None
        assert len(exp.odd_residuals) == 4
        scale = max(abs(c) for c in exp.coefficients[0::2])
        assert all(r <= 1e-8 * scale for r in exp.odd_residuals)
        for k in range(1, 5):
            ratio = (exp.coefficients[2 * k] / exp.coefficients[0]).real
            # truncation error compounds with k: err(c_2k) ~ c_{2k-2} / K
            tol = 1e-3 if k <= 3 else 2e-3
            assert ratio == pytest.approx(FROZEN_EVEN_COEFFS[k], rel=tol)

    def test_single_pair_quadratic(self) -> None:
        spec = make_symmetric_spec(xi=1.0, taus=[1.0, -1.0], value_at_center=1.0 + 0j)
        exp = even_series(spec, 2)
        assert exp.coefficients[1] == 0j
        # (1 + u^2) form: quadratic over constant term equals one
        assert (exp.coefficients[2] / exp.coefficients[0]).real == pytest.approx(1.0, rel=1e-12)

    def test_asymmetric_offsets_rejected(self) -> None:
        spec = make_symmetric_spec(xi=1.0, taus=[1.0, -1.0, 2.0], value_at_center=1.0 + 0j)
        with pytest.raises(ValueError, match="symmetry hypothesis"):
            even_series(spec, 4)

    def test_wrong_class_rejected(self, sinh_genus1_spec) -> None:
        with pytest.raises(ValueError, match="Y_tilde"):
            even_series(sinh_genus1_spec, 4)

    def test_odd_residual_refused(self) -> None:
        # offsets 1 and -(1 + 5e-7) pass the sign-symmetry test at the scale
        # 1e6, but c_1 is 5e-7 against c_0 = 1
        spec = make_symmetric_spec(1.0, [1.0, -(1.0 + 5e-7), 1e6, -1e6], 1.0)
        with pytest.raises(ValueError, match=r"odd-coefficient residual 5\.000e-07 exceeds 1\.000e-08"):
            even_series(spec, 6)

    def test_near_symmetric_offsets_tolerated(self) -> None:
        taus = [1.0, -(1.0 + 5e-13), 2.0, -2.0]
        spec = make_symmetric_spec(xi=1.0, taus=taus, value_at_center=1.0 + 0j)
        exp = even_series(spec, 4)
        assert exp.coefficients[1] == 0j
        assert exp.odd_residuals is not None
        assert max(exp.odd_residuals) <= 1e-8 * abs(exp.coefficients[0])


@pytest.mark.parametrize(
    "taus, symmetric",
    [
        ([1.0, -1.0, 2.0, -2.0], True),  # modulus order: both signs ascending
        ([2.0, -1.0, 1.0, -2.0], True),  # not ascending: the sorts run
        ([-2.0, 2.0 + 1e-12, 1.0, -1.0], True),  # within 1e-12 times the scale 2
        ([-2.0, 2.0 + 5e-12, 1.0, -1.0], False),
        ([1.0, -1.0, 2.0], False),
    ],
)
def test_sign_symmetry_in_any_order(taus, symmetric) -> None:
    if symmetric:
        series_engine._require_sign_symmetric(np.array(taus))
    else:
        with pytest.raises(ValueError, match="not sign-symmetric"):
            series_engine._require_sign_symmetric(np.array(taus))


def test_power_sums_take_a_measured_distance(sinh_line_spec) -> None:
    center = 1.0 + 0.25j
    measured = eval_product(sinh_line_spec, center, 200).nearest_zero_distance
    given_distance = power_sums(sinh_line_spec, center, 6, 200, nearest=measured)
    assert given_distance == power_sums(sinh_line_spec, center, 6, 200)
    # the guard reads the distance it is given
    with pytest.raises(ValueError, match="coincides"):
        power_sums(sinh_line_spec, center, 6, 200, nearest=0.0)


def numpy_scalar_ratios(g: np.ndarray) -> np.ndarray:
    """The exponential-of-series recurrence as it ran on numpy scalars, kept as the reference."""
    k_max = g.size - 1
    ratios = np.zeros(k_max + 1, dtype=np.complex128)
    ratios[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            acc = 0j
            for m in range(1, k + 1):
                acc += m * g[m] * ratios[k - m]
            ratios[k] = acc / k
    if not np.all(np.isfinite(ratios)):
        raise ValueError(f"Taylor recurrence passes the double range by order {k_max}")
    return ratios


def ratio_outcome(recurrence, g: np.ndarray):
    """The bits of each part of r_0..r_K, signs of zero included, or the error's text."""
    try:
        ratios = np.array(recurrence(g), dtype=np.complex128)
    except ValueError as exc:
        return str(exc)
    return ratios.view(np.int64).tolist()


# parts of g: exact zeros of both signs, subnormals, and ordinary sizes; the
# scale of g brings its products down to the subnormals or past the double range
G_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
    st.floats(min_value=-3.0, max_value=3.0),
)


@given(
    parts=st.integers(min_value=1, max_value=200).flatmap(
        lambda k: st.lists(st.tuples(G_PARTS, G_PARTS), min_size=k, max_size=k)
    ),
    scale=st.sampled_from([1.0, 0.25, 1e-160, 1e-300, 1e160]),
)
@settings(max_examples=40)
def test_native_recurrence_has_the_numpy_scalar_bits(parts, scale) -> None:
    g = np.array([0j] + [complex(re, im) for re, im in parts], dtype=np.complex128) * scale
    assert ratio_outcome(series_engine._exp_ratios, g) == ratio_outcome(numpy_scalar_ratios, g)


def test_recurrence_keeps_the_sign_of_an_underflowed_part() -> None:
    # k = 2: acc = g_1^2 + 2 g_2 = -2^-1074 - 2i, whose real part times 1/2 rounds
    # to -0.0; a full complex product by 1/2 would add -(-2 * 0.0) and read +0.0
    g = np.array([0j, complex(3.85e-162, 0.0), complex(-1e-323, -1.0)])
    ratios = series_engine._exp_ratios(g)
    assert math.copysign(1.0, ratios[2].real) == -1.0
    assert ratio_outcome(series_engine._exp_ratios, g) == ratio_outcome(numpy_scalar_ratios, g)


@pytest.mark.parametrize("k_max", [1, 2, 200])
def test_recurrence_refusal_names_the_order(k_max) -> None:
    g = np.zeros(k_max + 1, dtype=np.complex128)
    g[-1] = complex(1e200, -0.0) * 1e200  # inf: r_K passes the double range
    with pytest.raises(ValueError, match=f"passes the double range by order {k_max}$"):
        series_engine._exp_ratios(g)
    assert ratio_outcome(numpy_scalar_ratios, g) == f"Taylor recurrence passes the double range by order {k_max}"


def test_recurrence_matches_on_the_line_fixture(sinh_line_spec) -> None:
    # the g of taylor_coefficients at the benchmark's centre, 200 orders
    center = 1.3 + 0.2j
    sums = power_sums(sinh_line_spec, center, 200)
    g = np.zeros(201, dtype=np.complex128)
    g[1] = -sums.values[0]
    for m in range(2, 201):
        g[m] = -sums.values[m - 1] / m
    assert ratio_outcome(series_engine._exp_ratios, g) == ratio_outcome(numpy_scalar_ratios, g)
