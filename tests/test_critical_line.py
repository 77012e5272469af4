from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from _oracles import FROZEN_SINC_AT_HALF, sinc_ratio

from entirefn import (
    CriticalLineProfile,
    _numeric,
    critical_line,
    product_engine,
    critical_line_profile,
    eval_product,
    even_product_form,
    make_symmetric_spec,
    rotated_derivatives,
    scan_real_zeros,
    taylor_coefficients,
)
from entirefn.identities import verify_identity
from entirefn.series_engine import TaylorExpansion, even_series


class TestProfile:
    def test_matches_closed_form(self, sinh_line_spec) -> None:
        profile = critical_line_profile(sinh_line_spec, 0.25, 0.75, 3)
        v_half = profile.values[1]
        assert v_half.real == pytest.approx(FROZEN_SINC_AT_HALF, rel=1e-4)
        assert profile.truncation == 10_000

    def test_grid_origin_matches_v0(self, sinh_line_spec) -> None:
        profile = critical_line_profile(sinh_line_spec, -0.5, 0.5, 3, 400)
        assert profile.grid[1] == 0.0
        assert profile.values[1] == profile.v0

    def test_real_on_line_for_paired_data(self, sinh_line_spec) -> None:
        profile = critical_line_profile(sinh_line_spec, -10.0, 10.0, 321, 2000)
        scale = float(np.max(np.abs(profile.values)))
        assert profile.imag_max <= 1e-9 * scale

    def test_tracks_sinc_on_window(self, sinh_line_spec) -> None:
        profile = critical_line_profile(sinh_line_spec, 0.1, 0.9, 9, 4000)
        for x, v in zip(profile.grid, profile.values):
            assert v.real == pytest.approx(sinc_ratio(float(x)), rel=1e-3)

    def test_requires_symmetric_class(self, sinh_genus1_spec) -> None:
        with pytest.raises(ValueError, match="Y_tilde or L_bar"):
            critical_line_profile(sinh_genus1_spec, -1.0, 1.0, 8)

    def test_argument_validation(self, sinh_line_spec) -> None:
        with pytest.raises(ValueError, match="samples"):
            critical_line_profile(sinh_line_spec, -1.0, 1.0, 1)
        with pytest.raises(ValueError, match="strictly below"):
            critical_line_profile(sinh_line_spec, 1.0, 1.0, 8)

    def test_direct_construction_validation(self) -> None:
        grid = np.array([0.0, 1.0])
        values = np.array([1.0 + 0j, 2.0 + 0j])
        with pytest.raises(ValueError, match="nonzero"):
            CriticalLineProfile(
                xi=1.0, grid=grid, values=values, v0=0j, imag_max=0.0, truncation=2
            )
        with pytest.raises(ValueError, match="ascending"):
            CriticalLineProfile(
                xi=1.0,
                grid=grid[::-1].copy(),
                values=values,
                v0=1.0 + 0j,
                imag_max=0.0,
                truncation=2,
            )
        with pytest.raises(ValueError, match="at least 2"):
            CriticalLineProfile(
                xi=1.0,
                grid=np.array([0.0]),
                values=np.array([1.0 + 0j]),
                v0=1.0 + 0j,
                imag_max=0.0,
                truncation=1,
            )


class TestScan:
    def test_recovers_integer_offsets(self, sinh_line_spec) -> None:
        profile = critical_line_profile(sinh_line_spec, 0.5, 3.5, 512)
        found = scan_real_zeros(profile, sinh_line_spec)
        assert len(found.taus) == 3
        for tau, target in zip(found.taus, (1.0, 2.0, 3.0)):
            assert abs(tau - target) <= 1e-9
        for estimate in found.estimates:
            assert estimate.bracket[0] <= estimate.tau <= estimate.bracket[1]

    def test_zero_free_window_is_empty(self, sinh_line_spec) -> None:
        profile = critical_line_profile(sinh_line_spec, 0.1, 0.9, 64)
        assert scan_real_zeros(profile, sinh_line_spec).estimates == ()

    def test_single_pair_symmetric_roots(self) -> None:
        spec = make_symmetric_spec(xi=1.0, taus=[1.0, -1.0], value_at_center=1.0 + 0j)
        profile = critical_line_profile(spec, -1.5, 1.5, 64)
        found = scan_real_zeros(profile, spec)
        assert len(found.taus) == 2
        assert abs(found.taus[0] + 1.0) <= 1e-9
        assert abs(found.taus[1] - 1.0) <= 1e-9

    def test_even_multiplicity_not_detected(self, duplicated_zero_spec) -> None:
        # (1 - x^2)^2 never changes sign, so the sign-change scan misses +-1
        profile = critical_line_profile(duplicated_zero_spec, -1.5, 1.5, 128)
        assert scan_real_zeros(profile, duplicated_zero_spec).estimates == ()

    def test_gate_accepts_roots_between_doubles(self) -> None:
        # offsets 0.3712345 k fall between the doubles a bisection can reach, so
        # |V| at the refined midpoint is |V'| times up to half the stop width:
        # the first residual, 5.1e-7, is above 1e-9 (1 + local |V|) = 1.8e-7
        k = 0.3712345 * np.arange(1.0, 5001.0)
        spec = make_symmetric_spec(1.0, np.column_stack([k, -k]).ravel(), 1.0)
        found = scan_real_zeros(critical_line_profile(spec, 100.1, 150.3, None), spec)
        assert len(found.taus) == 135
        assert found.estimates[0].residual > 5e-7
        for tau in found.taus:
            assert np.min(np.abs(k - tau)) <= critical_line.BISECTION_WIDTH_COEFF * (1.0 + tau)
        assert verify_identity(spec, "T8", x_min=77.5, x_max=78.5).passed

    def test_tiny_end_without_a_root_is_refused(self) -> None:
        # the profile changes sign on [0.4, 0.6] and the spec's V (1e6 at 0, no
        # root below 1) does not: the bracket closes on the tiny end, where |V|
        # is larger, so |V| at the midpoint exceeds |V| at both ends
        k = np.arange(1.0, 6.0)
        spec = make_symmetric_spec(1.0, np.concatenate([k, -k]), 1e6)
        profile = CriticalLineProfile(
            xi=1.0, grid=np.array([0.4, 0.6]), values=np.array([-1e-30, 1e-30], dtype=np.complex128),
            v0=1e6 + 0j, imag_max=0.0, truncation=10,
        )
        with pytest.raises(ValueError, match=r"refined zero near x=0\.4000.* above gate"):
            scan_real_zeros(profile, spec)

    def test_unmoved_end_is_read_from_the_spec(self) -> None:
        # as above with V(0) = 1: |V| is about 0.78 at both ends and at the
        # midpoint, so the profile's -1e-30 at the end bisection never moves
        # must not lend the bracket a sign change or its end term
        k = np.arange(1.0, 6.0)
        spec = make_symmetric_spec(1.0, np.concatenate([k, -k]), 1.0)
        profile = CriticalLineProfile(
            xi=1.0, grid=np.array([0.4, 0.6]), values=np.array([-1e-30, 1e-30], dtype=np.complex128),
            v0=1.0 + 0j, imag_max=0.0, truncation=10,
        )
        message = r"refined zero near x=0\.40000000000036384 has residual 7\.791e-01 above gate 1\.000e-09"
        with pytest.raises(ValueError, match=message):
            scan_real_zeros(profile, spec)

    def test_nonreal_profile_rejected(self, lbar_spec) -> None:
        profile = critical_line_profile(lbar_spec, -1.5, 1.5, 32)
        scale = float(np.max(np.abs(profile.values)))
        assert profile.imag_max > 1e-6 * scale
        with pytest.raises(ValueError, match="not real"):
            scan_real_zeros(profile, lbar_spec)


class TestEvenProductForm:
    def test_origin_value(self, sinh_line_spec) -> None:
        v0 = eval_product(sinh_line_spec, 1.0 + 0j).value
        assert even_product_form(sinh_line_spec, 0.0) == v0

    def test_exact_zero_at_offset(self, sinh_line_spec) -> None:
        assert even_product_form(sinh_line_spec, 3.0) == 0j

    def test_matches_profile_pointwise(self, sinh_line_spec) -> None:
        profile = critical_line_profile(sinh_line_spec, 0.3, 2.7, 7, 2000)
        for x, direct in zip(profile.grid, profile.values):
            even = even_product_form(sinh_line_spec, float(x), 2000)
            assert abs(even - direct) <= 1e-10 * (1.0 + abs(direct))

    def test_negative_region_sign(self) -> None:
        spec = make_symmetric_spec(
            xi=1.0, taus=[1.0, -1.0, 2.0, -2.0], value_at_center=1.0 + 0j
        )
        value = even_product_form(spec, 1.5)
        direct = eval_product(spec, 1.0 + 1.5j).value
        assert value.real < 0
        assert value == pytest.approx(direct, rel=1e-12)

    def test_offsets_whose_squares_overflow(self) -> None:
        # tau^2 and, at the second point, x^2 pass the double range
        spec = make_symmetric_spec(xi=1.0, taus=[1.5e154, -1.5e154], value_at_center=1.0 + 0j)
        for x in (1e154, 3e154):
            expected = 1.0 - (x / 1.5e154) ** 2
            assert even_product_form(spec, x) == pytest.approx(expected, rel=1e-14)
            assert eval_product(spec, complex(1.0, x)).value == pytest.approx(expected, rel=1e-14)

    def test_repeated_offsets_give_real_values(self, duplicated_zero_spec) -> None:
        # V(x) = (1 - x^2)^2 with V(0) = 1: the repeated +-1 still pair up
        for x in (0.5, 1.5, -2.5):
            value = even_product_form(duplicated_zero_spec, x)
            assert value.imag == 0.0
            assert value.real == pytest.approx((1.0 - x * x) ** 2, rel=1e-14)
        assert even_product_form(duplicated_zero_spec, 1.0) == 0j

    def test_asymmetric_offsets_rejected(self) -> None:
        spec = make_symmetric_spec(xi=1.0, taus=[1.0, -1.0, 2.0], value_at_center=1.0 + 0j)
        with pytest.raises(ValueError, match="symmetry"):
            even_product_form(spec, 0.5)

    def test_wrong_class_rejected(self, lbar_spec) -> None:
        with pytest.raises(ValueError, match="Y_tilde"):
            even_product_form(lbar_spec, 0.5)

    def test_line_form_check_prepares_once(self, sinh_line_spec, monkeypatch) -> None:
        # V(0) and the symmetry check are computed once per T7 check, not per sample
        calls = {"eval_product": 0, "_require_sign_symmetric": 0}
        for name in calls:
            original = getattr(critical_line, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(critical_line, name, counted)
        result = verify_identity(sinh_line_spec, "T7", x_min=0.3, x_max=2.7, samples=24)
        assert result.passed
        assert calls == {"eval_product": 1, "_require_sign_symmetric": 1}
        grid = np.linspace(0.3, 2.7, 24)
        monkeypatch.undo()
        even = critical_line._even_product_values(sinh_line_spec, grid, None)
        assert even == [even_product_form(sinh_line_spec, float(x)) for x in grid]

    @pytest.mark.parametrize("x", [31.0 + 1e-11, 100.0 - 1e-9, 2.0 - 1e-11])
    def test_even_and_literal_products_match_200_bit_next_to_roots(self, sinh_line_spec, x) -> None:
        mpmath = pytest.importorskip("mpmath")
        zeros = sinh_line_spec.zero_sequence.zeros
        v0 = eval_product(sinh_line_spec, 1.0).value
        # the literal product of T7, with the far offsets beyond x from their power sums
        (literal,) = critical_line._literal_values(sinh_line_spec, zeros.size, np.array([x]), v0)
        with mpmath.workprec(200):
            s = mpmath.mpc(1.0, x)
            reference = mpmath.mpc(sinh_line_spec.value_at_zero)
            for z in zeros:
                reference *= 1 - s / mpmath.mpc(z)
            for value in (even_product_form(sinh_line_spec, x), literal):
                assert value.imag == 0.0
                assert float(abs(mpmath.mpc(value) - reference) / abs(reference)) <= 1e-13

    def test_line_form_far_powers_take_the_halved_sums(self, sinh_line_spec, monkeypatch) -> None:
        # the far offsets +-i tau are conjugate pairs: exact_power_sums sums one member of each
        full = []
        original = _numeric.complex_sum
        monkeypatch.setattr(_numeric, "complex_sum", lambda values: full.append(1) or original(values))
        zeros = sinh_line_spec.zero_sequence.zeros
        literal = critical_line._literal_values(sinh_line_spec, zeros.size, np.linspace(13.8, 15.3, 48), 1.0)
        assert np.all(literal.imag == 0.0)
        assert verify_identity(sinh_line_spec, "T7", x_min=13.8, x_max=15.3, samples=48).passed
        assert full == []

    @pytest.mark.parametrize("theorem", ["T6", "T7"])
    def test_line_form_quantities_are_python_floats(self, theorem, request) -> None:
        spec = request.getfixturevalue("lbar_spec" if theorem == "T6" else "sinh_line_spec")
        result = verify_identity(spec, theorem, x_min=0.3, x_max=2.7, samples=24)
        assert all(type(value) is float for _, value in result.quantities)


class TestLinePairKernel:
    """Line points xi + i x of a genus-0 line sequence: one real log per +-tau pair."""

    @pytest.mark.parametrize(
        "x", [0.3, 2.0 - 1e-11, 2.0 + 1e-11, 7.0 - 1e-11, 31.0 + 1e-11, 17.3, -45.7, 1000.3]
    )
    def test_matches_120_bit_product_next_to_roots(self, sinh_line_spec, x) -> None:
        mpmath = pytest.importorskip("mpmath")
        value = eval_product(sinh_line_spec, complex(1.0, x)).value
        assert value.imag == 0.0
        with mpmath.workprec(120):
            s = mpmath.mpc(1.0, x)
            reference = mpmath.mpc(sinh_line_spec.value_at_zero)
            for z in sinh_line_spec.zero_sequence.zeros:
                reference *= 1 - s / mpmath.mpc(z)
            assert float(abs(mpmath.mpc(value) - reference) / abs(reference)) <= 1e-13

    @pytest.mark.parametrize("k_max", [5000, 200])  # one point per block, and many
    def test_line_point_keeps_its_bits_in_a_mixed_batch(self, sinh_line_spec, k_max) -> None:
        spec = sinh_line_spec if k_max == 5000 else make_symmetric_spec(
            1.0, np.arange(1.0, k_max + 1.0).repeat(2) * np.tile([1.0, -1.0], k_max), 1.0
        )
        line = [complex(1.0, x) for x in (0.3, 2.0 - 1e-11, 17.3, -45.7, 3.0, *np.linspace(-9, 9, 24))]
        off = [1.3 + 0.2j, 1.0 + 0j, 0.7 + 17.3j]
        batch = [off[0], line[0], off[1], line[1], off[2], *line[2:]]
        values, logs = product_engine._eval_batch(spec, batch, 2 * k_max, None)
        for s in line:
            alone = eval_product(spec, s)
            j = batch.index(s)
            assert complex(values[j]) == alone.value
            assert alone.log_value is None or complex(logs[j]) == alone.log_value
        exponents, real = product_engine._log_sums(spec.zero_sequence, 0, 0j, batch, 2 * k_max)
        assert real.tolist() == [s in line for s in batch]
        assert exponents[batch.index(3j + 1.0)].real == -math.inf
        # off the line the complex kernel's bits
        expected = product_engine._log_sum(off, spec.zero_sequence.zeros, 0)
        assert exponents[[batch.index(s) for s in off]].tolist() == expected.tolist()

    @pytest.mark.parametrize("center_value", [1.0, 2.5 - 0.5j, 1e-3])
    def test_center_point_keeps_the_complex_kernel(self, center_value) -> None:
        spec = make_symmetric_spec(1.0, np.arange(1.0, 201.0).repeat(2) * np.tile([1, -1], 200), center_value)
        # the inversion at s = xi round-trips, and s = xi never builds the pair data
        assert eval_product(spec, 1.0).value == center_value
        assert spec.zero_sequence._pair_cache is None
        eval_product(spec, 1.0 + 0.5j)
        assert spec.zero_sequence._pair_cache is not None

    def test_exact_zero_only_at_a_retained_tau(self, sinh_line_spec) -> None:
        at = eval_product(sinh_line_spec, 1.0 + 3.0j)
        assert at.value == 0j and at.log_value is None
        beside = eval_product(sinh_line_spec, complex(1.0, math.nextafter(3.0, 4.0)))
        assert beside.value != 0 and beside.log_value is not None
        assert beside.nearest_zero_distance == math.nextafter(3.0, 4.0) - 3.0

    def test_y_tilde_profile_is_real(self, sinh_line_spec) -> None:
        for n in (None, 2000):
            profile = critical_line_profile(sinh_line_spec, -10.0, 10.0, 321, n)
            assert profile.imag_max == 0.0

    def test_repeated_offsets_pair_across_signs(self, duplicated_zero_spec) -> None:
        # modulus order lists +1, +1, -1, -1: each +tau of the run pairs with a -tau
        spec = duplicated_zero_spec
        assert critical_line_profile(spec, -1.5, 1.5, 128).imag_max == 0.0
        result = verify_identity(spec, "T7", x_min=0.3, x_max=1.4, samples=24)
        assert dict(result.quantities)["reality_ratio"] == 0.0
        for x in (0.5, 1.5, -2.5):
            value = eval_product(spec, complex(1.0, x)).value
            assert value.imag == 0.0
            assert value.real == pytest.approx((1.0 - x * x) ** 2, rel=1e-14)
        assert eval_product(spec, 1.0 - 1.0j).value == 0j
        # the first two zeros, +1 and +1, are no set of pairs: the complex kernel
        _, real = product_engine._log_sums(spec.zero_sequence, 0, 0j, [1.0 + 0.5j], 2)
        assert not real.any()

    @pytest.mark.parametrize("case", ["genus 1", "unpaired", "odd truncation"])
    def test_other_specs_keep_the_complex_kernel(self, case, lbar_spec) -> None:
        spec, s, n = {
            "genus 1": (lbar_spec, 1.0 + 2.5j, 400),
            "unpaired": (make_symmetric_spec(1.0, [1.0, -1.0, 2.0], 1.0), 1.0 + 1.5j, 3),
            "odd truncation": (make_symmetric_spec(1.0, [1.0, -1.0, 2.0, -2.0], 1.0), 1.0 + 1.5j, 3),
        }[case]
        seq = spec.zero_sequence
        exponents, real = product_engine._log_sums(seq, spec.genus, spec.q_constant, [s], n)
        assert not real.any()
        log_sum = product_engine._log_sum([s], seq.zeros[:n], spec.genus)[0]
        assert exponents[0] == log_sum + (spec.q_constant * s if spec.genus else 0)

    @pytest.mark.parametrize(
        "taus, x, sign",
        [([1.0, -1.0], 1e80, -1.0), ([1.0, -1.0, 2.0, -2.0], -1e80, 1.0), ([1e30, -1e30], 1e110, -1.0)],
        ids=["one pair", "two pairs", "pair at 1e30"],
    )
    def test_points_past_the_pair_range_are_real(self, taus, x, sign) -> None:
        # |x| past 2^255 times the least tau: the complex kernel's log |V|, the sign (-1)^#{tau < |x|}
        spec = make_symmetric_spec(1.0, taus, 1e-200)
        s = complex(1.0, x)
        exponents, real = product_engine._log_sums(spec.zero_sequence, 0, 0j, [s], len(taus))
        assert real.all()
        log_abs = product_engine._log_sum([s], spec.zero_sequence.zeros, 0)[0].real
        assert exponents[0].real == log_abs
        for value in (eval_product(spec, s).value, even_product_form(spec, x)):
            assert value.imag == 0.0 and math.copysign(1.0, value.real) == sign
            assert abs(value) == pytest.approx(math.exp(math.log(abs(spec.value_at_zero)) + log_abs), rel=1e-14)
        pair = make_symmetric_spec(1.0, [1e30, -1e30], 1.0)
        assert eval_product(pair, 1.0 + 1e110j).value == -1.0000000000000063e160

    def test_nearest_on_the_line_reads_the_same_double(self, sinh_line_spec) -> None:
        zeros = sinh_line_spec.zero_sequence.zeros
        for x in (0.3, 2.0 - 1e-11, 17.3, -45.7, 3.0, 6000.25):
            s = complex(1.0, x)
            assert product_engine._nearest(s, zeros, sinh_line_spec.zero_sequence) == product_engine._nearest(s, zeros)


    @pytest.mark.parametrize(
        "taus, n",
        [
            ([1.0, -1.0, 2.5, -2.5, 4.0, -4.0], None),
            ([1.0, -1.0, 1.0, -1.0, 3.0, -3.0, 3.0, -3.0], None),  # repeated offsets
            ([1.0, -1.0, 2.5, -2.5, 4.0, -4.0, 7.0, -7.0], 4),  # truncated below N
        ],
        ids=["pairs", "repeated", "truncated"],
    )
    def test_line_point_distance_is_the_least_over_the_zeros(self, taus, n) -> None:
        spec = make_symmetric_spec(1.5, taus, 1.0)
        seq = spec.zero_sequence
        zeros = seq.zeros[: len(taus) if n is None else n]
        assert eval_product(spec, complex(1.5, 0.3), n).value != 0  # builds the pair table
        assert seq._pair_cache is not None and seq._pair_cache.closed[zeros.size]
        # on a tau, between taus, past the last, x = 0 (both signs) and negative x
        for x in (1.0, 2.5, 1.75, 1.0 + 1e-13, 3.9999999999, 4.0, 9.5, 1e300, 0.0, -0.0, -2.5, -1.2, -40.0):
            s = complex(1.5, x)
            expected = float(np.abs(s - zeros).min())
            assert product_engine._nearest(s, zeros, seq) == expected
            assert eval_product(spec, s, n).nearest_zero_distance == expected



@given(
    taus=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=30),
    xs=st.lists(st.floats(min_value=-2e6, max_value=2e6), min_size=1, max_size=8),
    keep=st.floats(min_value=0.0, max_value=1.0),
)
def test_line_point_distance_matches_a_scan_of_the_zeros(taus, xs, keep) -> None:
    spec = make_symmetric_spec(0.75, [t for tau in taus for t in (tau, -tau)], 1.0)
    seq = spec.zero_sequence
    product_engine._line_pairs(seq)
    n = 2 * round(keep * len(taus))  # where the first n zeros close pairs, the taus are bisected
    for x in xs + [t * sign for t in taus[:3] for sign in (1.0, -1.0)]:
        s = complex(0.75, x)
        expected = float(np.abs(s - seq.zeros[:n]).min()) if n else math.inf
        assert product_engine._nearest(s, seq.zeros[:n], seq) == expected


class TestRotatedDerivatives:
    def test_against_finite_differences(self, sinh_line_spec) -> None:
        expansion = taylor_coefficients(sinh_line_spec, 1.0 + 0j, 6)
        derivs = rotated_derivatives(expansion, (0, 1, 2, 3))
        assert derivs.orders == (0, 1, 2, 3)
        assert derivs.truncation == 10_000

        def v(x: float) -> complex:
            return eval_product(sinh_line_spec, complex(1.0, x)).value

        h = 1e-3
        fd = (
            v(0.0),
            (v(h) - v(-h)) / (2 * h),
            (v(h) - 2 * v(0.0) + v(-h)) / (h * h),
            (v(2 * h) - 2 * v(h) + 2 * v(-h) - v(-2 * h)) / (2 * h**3),
        )
        for got, expected in zip(derivs.values, fd):
            assert abs(got - expected) <= 1e-5 * (1.0 + abs(expected))

    def test_second_derivative_closed_form(self, sinh_line_spec) -> None:
        # V(x) -> sin(pi x)/(pi x), so V''(0) = -pi^2 / 3
        expansion = taylor_coefficients(sinh_line_spec, 1.0 + 0j, 2)
        derivs = rotated_derivatives(expansion, (2,))
        assert derivs.values[0].real == pytest.approx(-math.pi**2 / 3.0, rel=1e-3)
        assert abs(derivs.values[0].imag) <= 1e-12

    def test_orders_past_the_factorial_range(self) -> None:
        # k! passes the double range at k = 171; k! c_k is each part exactly
        # rounded, +-inf past the range, against mpmath at 2000 bits
        mpmath = pytest.importorskip("mpmath")
        coefficients = [0j] * 175
        coefficients[171] = complex(1e-300, -3.7e-305)
        coefficients[172] = complex(2.0, 1e-310)
        coefficients[174] = complex(-1e-290, 5.0)
        expansion = TaylorExpansion(center=1.0 + 0j, coefficients=tuple(coefficients), terms_used=0, genus=0)
        orders = (170, 171, 172, 173, 174)
        values = rotated_derivatives(expansion, orders).values
        with mpmath.workprec(2000):
            for k, value in zip(orders, values):
                exact = mpmath.mpc(0, 1) ** k * mpmath.factorial(k) * mpmath.mpc(coefficients[k])
                assert value == complex(float(exact.real), float(exact.imag))
        assert math.isinf(values[2].real) and math.isinf(values[4].imag) and math.isfinite(values[1].imag)
        # the odd orders of an even series are 0 past the range too
        spec = make_symmetric_spec(1.0, [1.0, -1.0, 2.0, -2.0], 1.0)
        assert rotated_derivatives(even_series(spec, 180), [171]).values == (0j,)

    @pytest.mark.parametrize("k", [1, 170])
    def test_saturated_coefficient_has_no_nan_part(self, k) -> None:
        # i^k k! c permutes the parts of k! c: the infinite part never meets a 0
        coefficients = [0j] * (k + 1)
        coefficients[k] = complex(math.inf, 0.0)
        expansion = TaylorExpansion(center=1.0 + 0j, coefficients=tuple(coefficients), terms_used=0, genus=0)
        (value,) = rotated_derivatives(expansion, [k]).values
        assert value == {1: complex(0.0, math.inf), 170: complex(-math.inf, 0.0)}[k]
        assert not (math.isnan(value.real) or math.isnan(value.imag))

    def test_finite_coefficients_keep_their_bits(self) -> None:
        # through k = 100 Python forms i^k exactly, so i^k k! c is each part of c
        # times k! as a double, the rule at every order up to 170
        rng = np.random.default_rng(17)
        mpmath = pytest.importorskip("mpmath")
        for k in range(171):
            parts = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-300.0, 300.0 - 3.1 * min(k, 100), 2)
            c = complex(*parts)
            expansion = TaylorExpansion(center=1.0 + 0j, coefficients=(0j,) * k + (c,), terms_used=0, genus=0)
            (value,) = rotated_derivatives(expansion, [k]).values
            if k <= 100:
                expected = (1j) ** k * math.factorial(k) * c
                assert np.array([value]).view(np.int64).tolist() == np.array([expected]).view(np.int64).tolist()
            with mpmath.workprec(2000):  # within a rounding of k! and one of the product
                exact = mpmath.mpc(0, 1) ** k * mpmath.factorial(k) * mpmath.mpc(c)
                for got, ref in ((value.real, exact.real), (value.imag, exact.imag)):
                    assert abs(got - ref) <= 2.0**-51 * abs(ref)

    def test_order_out_of_range(self, sinh_line_spec) -> None:
        expansion = taylor_coefficients(sinh_line_spec, 1.0 + 0j, 2, 500)
        with pytest.raises(ValueError, match="outside expansion range"):
            rotated_derivatives(expansion, (3,))
