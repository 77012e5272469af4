"""The per-factor log kernel behind every product: values, paths and branches."""

from __future__ import annotations

import cmath
import math
from unittest.mock import patch

import numpy as np
import pytest
from _oracles import FROZEN_HALF_E_HALF, direct_log_tail
from hypothesis import example, given
from hypothesis import strategies as st

from entirefn import (
    ClassTag,
    EntireFunctionSpec,
    Ordering,
    ZeroSequence,
    eval_product,
    eval_shifted_product,
    even_product_form,
    make_symmetric_spec,
    taylor_coefficients,
)
from entirefn import product_engine
from entirefn._numeric import BLOCK
from entirefn.product_engine import _log_factors, _log_sum, _log_tail


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
        # a block holding s itself sums to the log of an exact 0
        assert _log_sum(0.5, np.array([2.0, 0.5 + 0j]), p).real == -math.inf

    @pytest.mark.parametrize("p", [0, 1])
    def test_quotient_rounded_to_one_keeps_a_log(self, p: int) -> None:
        # s/z rounds to exactly 1 one ulp below z: the log comes from z - s
        z, s = 0.1 + 2.9j, 0.09999999999999999 + 2.9j
        assert (s / np.array([z]))[0] == 1.0
        expected = cmath.log(z - s) - cmath.log(z) + p
        assert _log_sum(s, np.array([z]), p) == pytest.approx(expected, rel=1e-15)

    def test_genus1_at_half(self) -> None:
        assert cmath.exp(log_factor(0.5, 1)) == pytest.approx(FROZEN_HALF_E_HALF, rel=1e-12)

    def test_negative_genus_rejected(self) -> None:
        with pytest.raises(ValueError, match="genus"):
            _log_factors(np.array([0.5 + 0j]), -1)


class TestLogTail:
    def test_zero_point(self) -> None:
        assert _log_tail(np.zeros(1, dtype=np.complex128))[0] == 0j

    def test_long_tail_reaches_log(self) -> None:
        # |w| = 1/2 is the edge of the series region, where |t| = 1/3
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

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), genus=st.sampled_from([0, 1]))
    def test_element_bits_do_not_depend_on_the_call(self, seed, genus) -> None:
        # the blocked reducer sums each point's logs from calls over many
        # points: an element's bits may not depend on what shares its call
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.3, 0.5, 400) * np.exp(1j * rng.uniform(-math.pi, math.pi, 400))
        w[::7] *= 4.0
        real, imag = _log_factors(w, genus)
        alone = [_log_factors(w[k : k + 1], genus) for k in range(w.size)]
        assert np.array_equal(real.view(np.int64), np.concatenate([r for r, _ in alone]).view(np.int64))
        assert np.array_equal(imag.view(np.int64), np.concatenate([i for _, i in alone]).view(np.int64))


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
        # the product is real and positive at s = 1: no NaN part
        assert result.value == complex(math.inf, 0.0)
        for s in (1.0 + 0.5j, 1.0 - 2.5j, 0.9 + 3.9j):
            result = eval_product(spec, s)
            assert result.log_value is not None
            phase = result.log_value.imag
            assert result.value.real == math.copysign(math.inf, math.cos(phase))
            assert result.value.imag == math.copysign(math.inf, math.sin(phase))

    def test_saturated_values_carry_the_phase_of_their_log(self) -> None:
        # eval, shift, the even form and c_0 at points where each value saturates
        seq = ZeroSequence(zeros=np.array([10.0 + 0j]), ordering=Ordering.AS_GIVEN)
        spec = EntireFunctionSpec(
            class_tag=ClassTag.L, value_at_zero=1.0 + 0j, zero_sequence=seq, q_constant=800.0
        )
        taus = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
        line = make_symmetric_spec(xi=1.0, taus=taus, value_at_center=1.0)
        direct = eval_product(spec, 1.3 + 0.2j)
        shifted = eval_shifted_product(spec, 0.4 + 0.3j, 1.1 - 0.2j)
        on_line = eval_product(line, 1.0 + 1e60j)
        c0 = taylor_coefficients(spec, 1.3 + 0.2j, 3).coefficients[0]
        # V(1e60) = V(0) prod (1 - 1e120 / tau^2): three negative factors
        even_phase = eval_product(line, 1.0).log_value.imag + math.pi
        cases = [
            (direct.value, direct.log_value.imag),
            (shifted.value, shifted.log_value.imag),
            (on_line.value, on_line.log_value.imag),
            (even_product_form(line, 1e60), even_phase),
            (c0, direct.log_value.imag),
        ]
        for value, phase in cases:
            assert value.real == math.copysign(math.inf, math.cos(phase))
            assert value.imag == math.copysign(math.inf, math.sin(phase))

    def test_modulus_past_the_range_saturates(self) -> None:
        # exp(709.8 + i pi/4) has finite parts but a modulus past the double range
        seq = ZeroSequence(zeros=[])
        spec = EntireFunctionSpec(class_tag=ClassTag.L, value_at_zero=1.0, zero_sequence=seq, q_constant=1j)
        result = eval_product(spec, complex(math.pi / 4, -709.8))
        assert result.value == complex(math.inf, math.inf)
        assert abs(result.value) == math.inf

    def test_saturated_base_recenters_to_a_finite_value(self) -> None:
        # S(1.5) = exp(1200) * ... saturates; S(0.2 + 0.9i) is finite
        seq = ZeroSequence(zeros=np.array([10.0 + 0j]), ordering=Ordering.AS_GIVEN)
        spec = EntireFunctionSpec(
            class_tag=ClassTag.L, value_at_zero=1.0 + 0j, zero_sequence=seq, q_constant=800.0
        )
        shifted = eval_shifted_product(spec, 1.5, 0.2 + 0.9j).value
        direct = eval_product(spec, 0.2 + 0.9j).value
        assert cmath.isfinite(shifted)
        assert shifted == pytest.approx(direct, rel=1e-12)

    def test_underflowing_exponential_keeps_a_large_scale(self) -> None:
        # exp(-800) underflows alone, but S(0) = 1e300 brings S(-1) back in range
        seq = ZeroSequence(zeros=np.array([10.0 + 0j]), ordering=Ordering.AS_GIVEN)
        spec = EntireFunctionSpec(
            class_tag=ClassTag.L, value_at_zero=1e300 + 0j, zero_sequence=seq, q_constant=800.0
        )
        result = eval_product(spec, -1.0)
        expected = 1e300 * 1.1 * math.exp(-0.1) * math.exp(-400.0) * math.exp(-400.0)
        assert result.value.real == pytest.approx(expected, rel=1e-12)
        assert result.value.imag == 0.0
        # far enough out the value itself underflows, and keeps its log
        result = eval_product(spec, -2.0)
        assert result.value == 0
        assert result.log_value is not None
        assert result.log_value.real < -745.0

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


# Parts that steer the kernel's branches, and an imaginary 0 of either sign.
SPECIAL_PARTS = [0.0, -0.0, 0.25, 0.5, 1.0, 2.0, -1.0, 1e-300, 1e300]


def log_sum_outcome(*args):
    """The exact bits of _log_sum, or its error text."""
    try:
        # as in its callers: s/z past the double range gives infinite logs
        with np.errstate(over="ignore", invalid="ignore"):
            (total,) = _log_sum(*args)
    except ValueError as exc:
        return str(exc)
    return total.real.hex(), total.imag.hex()


class TestConjugatePairs:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), genus=st.sampled_from([0, 1]))
    def test_kernel_mirrors_under_conjugation(self, seed, genus) -> None:
        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-20, 5, 400) * np.exp(1j * rng.uniform(-math.pi, math.pi, 400))
        w.real[rng.integers(0, 400, 60)] = rng.choice(SPECIAL_PARTS, 60)
        w.imag[rng.integers(0, 400, 60)] = rng.choice(SPECIAL_PARTS, 60)
        real, imag = _log_factors(w, genus)
        mirror = np.conj(w)
        # a real part 0 may meet -0 in a pair (_conjugate_half)
        mirror.real[mirror.real == 0.0] *= -1.0
        mirror_real, mirror_imag = _log_factors(mirror, genus)
        # equal values are equal bits, apart from the sign of a zero
        assert np.array_equal(mirror_real, real, equal_nan=True)
        assert np.array_equal(mirror_imag, -imag, equal_nan=True)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        genus=st.sampled_from([0, 1]),
        pairs=st.sampled_from([0, 1, 3, 300, BLOCK // 2 + 5]),
        layout=st.sampled_from(
            ["line", "centred line", "pairs", "real zeros", "on a zero", "unpaired", "odd", "split",
             "tiny zeros", "huge w"]
        ),
        s=st.sampled_from([0.3, -1.7, 2.0, 1e5, 0.3 + 0.1j]),
        center=st.sampled_from([0.0, 0.5, -2.0]),
    )
    # the doubled genus-1 logs overflow where the full sum raises
    @example(seed=0, genus=1, pairs=1, layout="huge w", s=-1.7, center=0.0)
    def test_halved_log_sum_matches_the_full_path(self, seed, genus, pairs, layout, s, center) -> None:
        rng = np.random.default_rng(seed)
        taus = rng.uniform(0.1, 50.0, pairs)
        half = {
            "line": rng.choice([1.0, 0.5, -2.0]) + 1j * taus,
            # w = (s - c)/(+-i tau): real parts 0 and -0
            "centred line": center + 1j * taus,
            "real zeros": rng.uniform(-5.0, 5.0, pairs) + 0j,
            "on a zero": rng.uniform(-5.0, 5.0, pairs) + 0j,
            "tiny zeros": 1e-300 * (1.0 + 1j * taus),
            # |Re w| near 1e308 at center 0: the doubled logs pass the double range
            "huge w": abs(s) * 1e-308 * (1.0 + 0.1j * rng.uniform(0.5, 2.0, pairs)),
        }.get(layout, rng.uniform(-5.0, 5.0, pairs) + 1j * taus)
        zeros = np.empty(2 * pairs, dtype=np.complex128)
        zeros[0::2] = half
        zeros[1::2] = np.conj(half)
        if layout == "on a zero" and pairs:
            s = float(half[0].real)
        elif layout == "unpaired":
            zeros.real[1::2] *= 1.0 + 1e-15
        elif layout == "odd":
            zeros = np.append(zeros, 0.7 - 3.1j)
        elif layout == "split":
            zeros = zeros[1:]
        args = (complex(s), zeros, genus, complex(center))
        with patch.object(product_engine, "_conjugate_half", return_value=None):
            full = log_sum_outcome(*args)
        assert log_sum_outcome(*args) == full


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


def test_series_region_relative_accuracy() -> None:
    # the genus-1 series keeps full relative accuracy over |w| = 2^-20 .. 1/2
    mpmath = pytest.importorskip("mpmath")
    points = [
        2.0 ** (-k / 4) * cmath.exp(1j * (0.1 + 2 * math.pi * j / 12))
        for k in range(4, 81)
        for j in range(12)
    ]
    real, imag = _log_factors(np.array(points), 1)
    worst = 0.0
    with mpmath.workprec(150):
        for w, re_part, im_part in zip(points, real, imag):
            ref = mpmath.log(1 - mpmath.mpc(w)) + mpmath.mpc(w)
            err = abs(mpmath.mpc(re_part, im_part) - ref) / abs(ref)
            worst = max(worst, float(err))
    assert worst <= 6e-16
