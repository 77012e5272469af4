from __future__ import annotations

import math

import numpy as np
import pytest
from _oracles import FROZEN_SINC_AT_HALF, sinc_ratio

from entirefn import (
    CriticalLineProfile,
    critical_line_profile,
    eval_product,
    even_product_form,
    make_symmetric_spec,
    rotated_derivatives,
    scan_real_zeros,
    taylor_coefficients,
)


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

    def test_asymmetric_offsets_rejected(self) -> None:
        spec = make_symmetric_spec(xi=1.0, taus=[1.0, -1.0, 2.0], value_at_center=1.0 + 0j)
        with pytest.raises(ValueError, match="symmetry"):
            even_product_form(spec, 0.5)

    def test_wrong_class_rejected(self, lbar_spec) -> None:
        with pytest.raises(ValueError, match="Y_tilde"):
            even_product_form(lbar_spec, 0.5)


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

    def test_order_out_of_range(self, sinh_line_spec) -> None:
        expansion = taylor_coefficients(sinh_line_spec, 1.0 + 0j, 2, 500)
        with pytest.raises(ValueError, match="outside expansion range"):
            rotated_derivatives(expansion, (3,))
