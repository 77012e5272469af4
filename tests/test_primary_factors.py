"""The per-factor log kernel behind every product: values, paths and branches."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from _oracles import FROZEN_HALF_E_HALF, direct_log_tail
from hypothesis import given
from hypothesis import strategies as st

from entirefn import ClassTag, EntireFunctionSpec, Ordering, ZeroSequence, eval_product
from entirefn.product_engine import _log_factors, _log_tail, _sum_log_factors


def log_factor(w: complex, genus: int) -> complex:
    """The kernel at a single point, as one complex log."""
    real, imag = _log_factors(np.array([w], dtype=np.complex128), genus)
    return complex(real[0], imag[0])


def factor_value(w: complex, genus: int) -> complex:
    """(1 - w) e^(genus * w) by direct multiplication."""
    return (1.0 - w) * cmath.exp(genus * w)


class TestPointValues:
    def test_genus0_at_half(self) -> None:
        assert cmath.exp(log_factor(0.5, 0)) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("p", [0, 1])
    def test_at_origin(self, p: int) -> None:
        assert log_factor(0.0, p) == 0j

    @pytest.mark.parametrize("p", [0, 1])
    def test_vanishes_at_one(self, p: int) -> None:
        assert log_factor(1.0, p).real == -math.inf
        # a block holding w == 1 gives the exact-zero signal, not a log
        assert _sum_log_factors([np.array([0.5, 1.0 + 0j])], p) is None

    def test_genus1_at_half(self) -> None:
        assert cmath.exp(log_factor(0.5, 1)) == pytest.approx(FROZEN_HALF_E_HALF, rel=1e-12)

    def test_negative_genus_rejected(self) -> None:
        with pytest.raises(ValueError, match="genus"):
            _log_factors(np.array([0.5 + 0j]), -1)


class TestLogTail:
    def test_zero_point(self) -> None:
        assert _log_tail(np.zeros(1, dtype=np.complex128), np.zeros(1))[0] == 0j

    def test_long_tail_reaches_log(self) -> None:
        # |w| = 1/2 is the edge of the series region, at the highest degree
        assert log_factor(0.5, 1) == pytest.approx(math.log(0.5) + 0.5, rel=1e-15)

    @given(
        radius=st.floats(min_value=0.05, max_value=0.5),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_matches_direct_partial_sum(self, radius, angle) -> None:
        # 200 terms of -sum_{m>=2} w^m/m are converged to rounding at |w| <= 1/2
        w = radius * cmath.exp(1j * angle)
        expected = direct_log_tail(w, 1, 200)
        assert log_factor(w, 1) == pytest.approx(expected, rel=1e-13, abs=1e-300)


class TestProperties:
    @given(
        re=st.floats(min_value=-4.0, max_value=4.0),
        im=st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_multiplicative_structure(self, re, im) -> None:
        # E(w, 1) = E(w, 0) * exp(w)
        w = complex(re, im)
        lhs = cmath.exp(log_factor(w, 1))
        rhs = cmath.exp(log_factor(w, 0)) * cmath.exp(w)
        scale = max(abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale or scale == 0.0

    @given(
        radius=st.floats(min_value=1e-8, max_value=0.5),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
        p=st.integers(min_value=0, max_value=1),
    )
    def test_series_and_direct_paths_agree(self, radius, angle, p) -> None:
        w = radius * cmath.exp(1j * angle)
        assert cmath.exp(log_factor(w, p)) == pytest.approx(factor_value(w, p), rel=1e-12)

    @given(
        radius=st.floats(min_value=0.05, max_value=5.0),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
        p=st.integers(min_value=0, max_value=1),
    )
    def test_exp_log_consistency(self, radius, angle, p) -> None:
        w = radius * cmath.exp(1j * angle)
        if w == 1:
            return
        assert cmath.exp(log_factor(w, p)) == pytest.approx(factor_value(w, p), rel=1e-12)

    def test_overflow_saturates_with_finite_log(self) -> None:
        # q*s = 800 exceeds the double exp range; the log stays finite
        seq = ZeroSequence(zeros=np.array([10.0 + 0j]), ordering=Ordering.AS_GIVEN)
        spec = EntireFunctionSpec(
            class_tag=ClassTag.L, value_at_zero=1.0 + 0j, zero_sequence=seq, q_constant=800.0
        )
        result = eval_product(spec, 1.0)
        assert math.isinf(abs(result.value))
        assert result.log_value is not None
        assert cmath.isfinite(result.log_value)
        assert result.log_value.real > 700.0

    @given(
        radius=st.floats(min_value=0.51, max_value=10.0),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_principal_branch_on_direct_path(self, radius, angle) -> None:
        # genus 0: a single principal log
        w = radius * cmath.exp(1j * angle)
        if w == 1:
            return
        # points a hair below the cut round their angle to exactly -pi
        assert -math.pi <= log_factor(w, 0).imag <= math.pi


def _oracle_points() -> list[complex]:
    angles = [0.0, 0.3, 1.7, 2.9, -1.2, math.pi]
    points = []
    for angle in angles:
        unit = cmath.exp(1j * angle)
        points += [1e-8 * unit, 1e-3 * unit, 1e6 * unit, 1.0 - 1e-9 * unit]
        # both sides of the |w| = 1/2 series switch
        points += [0.5 * unit, (0.5 + 1e-12) * unit, (0.5 - 1e-12) * unit]
    # both sides of the Re w = 1/2 log1p switch
    for im in (0.0, 0.1, -0.3, 0.8):
        points += [complex(0.5, im), complex(math.nextafter(0.5, 0.0), im)]
    return points


@pytest.mark.parametrize("genus", [0, 1])
def test_kernel_against_mpmath(genus: int) -> None:
    mpmath = pytest.importorskip("mpmath")
    points = _oracle_points()
    real, imag = _log_factors(np.array(points), genus)
    with mpmath.workprec(120):
        for w, re_part, im_part in zip(points, real, imag):
            w_mp = mpmath.mpc(w)
            ref = mpmath.log(1 - w_mp) + genus * w_mp
            if w.imag == 0 and w.real > 1:
                # on the cut Im w = +0, and atan2(-0.0, 1 - w) gives -pi
                ref = mpmath.conj(ref)
            err = abs(mpmath.mpc(re_part, im_part) - ref)
            # absolute below |ref| = 1, relative above: a double holds no more
            scale = max(1.0, float(abs(ref)))
            if abs(w) <= 1e-3:
                # small factors keep their relative accuracy
                scale = float(abs(ref))
            assert err <= 4e-16 * scale, (w, float(err))
