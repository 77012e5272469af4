from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from _oracles import FROZEN_DOUBLED_BASEL_1000, FROZEN_SINGLE_ZERO_S0

from entirefn import (
    ClassTag,
    EntireFunctionSpec,
    Ordering,
    Pairing,
    Verdict,
    ZeroSequence,
    eval_product,
    make_symmetric_spec,
    modulus_sort_indices,
    validate_zero_sequence,
)
from entirefn import core_types
from entirefn.core_types import _fit_tail_terms
from conftest import interleaved_taus


def _greedy_group_starts(zeros: np.ndarray) -> list[int]:
    """The pairing rule one entry at a time: a group opens at each entry not
    yet taken, as a pair when the next entry is its (nonreal) conjugate."""
    starts, i = [], 0
    while i < zeros.size:
        starts.append(i)
        pairs = i + 1 < zeros.size and zeros[i].imag != 0.0 and zeros[i + 1] == zeros[i].conjugate()
        i += 2 if pairs else 1
    return starts


def check_by_name(report, name: str):
    (check,) = [c for c in report.checks if c.name == name]
    return check


class TestZeroSequence:
    def test_sorting_tie_break(self) -> None:
        seq = ZeroSequence(zeros=np.array([1 - 1j, -2 + 0j, 1 + 1j])).sorted_by_modulus()
        assert np.array_equal(seq.zeros, np.array([1 + 1j, 1 - 1j, -2 + 0j]))
        assert seq.ordering is Ordering.BY_MODULUS

    def test_sort_indices_prefer_positive_imag_then_real(self) -> None:
        zeros = np.array([3 + 4j, -5 + 0j, 3 - 4j, 4 + 3j])
        order = modulus_sort_indices(zeros)
        # all moduli are 5; ties resolve by Im descending, then Re ascending
        assert np.array_equal(zeros[order], np.array([3 + 4j, 4 + 3j, -5 + 0j, 3 - 4j]))

    @given(
        parts=st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -4.0, 1e9]),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, 4.0, -4.0, 1e-3, 7.5]),
            ),
            max_size=40,
        ),
        conjugates=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(parts=[(1.0, 1.0), (-1.0, 1.0), (-0.0, 2.0), (0.0, 2.0)], conjugates=False, seed=0)
    def test_sort_indices_match_lexsort(self, parts, conjugates, seed) -> None:
        # duplicates, signed zeros, conjugate pairs, equal moduli such as
        # |3 + 4i| = |4 + 3i| = |-5|, and near-ties: at xi = 1e9,
        # hypot(xi, tau) rounds the distinct |tau| <= 7.5 to one modulus
        zeros = np.array([complex(re, im) for re, im in parts], dtype=np.complex128)
        if conjugates:
            zeros = np.concatenate([zeros, np.conj(zeros)])
        zeros = np.random.default_rng(seed).permutation(zeros)
        expected = np.lexsort((zeros.real, -zeros.imag, np.abs(zeros)))
        assert np.array_equal(modulus_sort_indices(zeros), expected)

    def test_sort_indices_on_the_line_fixture(self) -> None:
        taus = np.random.default_rng(3).permutation(interleaved_taus(5000))
        zeros = np.concatenate([1.0 + 1j * taus, 1e9 + 1j * taus[:40]])
        expected = np.lexsort((zeros.real, -zeros.imag, np.abs(zeros)))
        assert np.array_equal(modulus_sort_indices(zeros), expected)

    @given(
        xi=st.sampled_from([1.0, -0.5, 0.0, -0.0, 3.0, 1e9, -1e9, 1e300, 5e-324]),
        taus=st.lists(
            st.one_of(
                st.sampled_from(
                    [1.0, -1.0, 2.0, -2.0, 7.5, -7.5, 1.0000000000000002, 0.0, -0.0,
                     1e-3, 1e300, -1e300, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
                ),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            max_size=40,
        ),
        mixed_real=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(xi=1e9, taus=[1.0, 2.0, -1.0, 7.5, 2.0, -7.5], mixed_real=False, seed=0)
    @example(xi=1e9, taus=[1.0, 1.0000000000000002], mixed_real=False, seed=0)  # one ulp apart, one modulus
    @example(xi=0.0, taus=[1.0, -1.0, 2.0, 1.0], mixed_real=True, seed=0)
    @example(xi=1.0, taus=[5e-324, -5e-324, 1e300, -1e300], mixed_real=False, seed=0)
    def test_line_key_sort_matches_lexsort(self, xi, taus, mixed_real, seed) -> None:
        # zeros on one line: duplicates, mixed signs, signed zero, subnormal,
        # huge and non-finite taus, and at xi = 1e9 distinct small |tau| that
        # hypot rounds to one modulus; mixed_real moves one real part off the
        # others' bits (0.0 against -0.0 where xi is 0)
        taus = np.array(taus + taus[: len(taus) // 3])
        zeros = np.empty(taus.size, dtype=np.complex128)
        zeros.real, zeros.imag = xi, taus
        if mixed_real and zeros.size:
            zeros.real[0] = -xi if xi == 0.0 else np.nextafter(xi, math.inf)
        zeros = np.random.default_rng(seed).permutation(zeros)
        expected = np.lexsort((zeros.real, -zeros.imag, np.abs(zeros)))
        assert np.array_equal(modulus_sort_indices(zeros), expected)
        got = zeros.copy()
        by_value = core_types._sort_by_modulus(got)
        assert got.tobytes() == zeros[expected].tobytes()
        if by_value:
            # only one real part and finite nonzero imaginary parts sort by value
            assert not (mixed_real and zeros.size > 1) and math.isfinite(xi)
            assert np.all(np.isfinite(taus)) and taus.all()

    @pytest.mark.parametrize(
        ("reals", "taus"),
        [
            ([0.5] * 3, [1.0, -0.0, 2.0]),  # +-0.0 would merge in the key
            ([0.5] * 3, [1.0, 0.0, -1.0]),
            ([0.5] * 3, [1.0, math.inf, -1.0]),  # non-finite parts
            ([0.5] * 3, [1.0, math.nan, -1.0]),
            ([math.inf] * 2, [1.0, -1.0]),
            ([0.0, -0.0, -0.0, 0.0], [2.0, -1.0, 1.0, 1.0]),  # equal real parts, other bits
        ],
    )
    def test_value_sort_falls_back(self, reals, taus) -> None:
        zeros = np.empty(len(taus), dtype=np.complex128)
        zeros.real, zeros.imag = reals, taus
        got = zeros.copy()
        assert not core_types._sort_by_modulus(got)
        expected = zeros[np.lexsort((zeros.real, -zeros.imag, np.abs(zeros)))]
        assert got.tobytes() == expected.tobytes()

    def test_line_key_sort_falls_back_on_near_ties(self) -> None:
        # at xi = 1e9 the moduli of 1e9 + 1i and 1e9 + 2i are one double, so
        # the -Im z tie-break puts +2i first where the line key puts +1i first:
        # the check refuses the key order and the moduli quicksort runs
        zeros = 1e9 + 1j * np.array([1.0, -1.0, 2.0, -2.0])
        got = zeros.copy()
        assert not core_types._sort_by_modulus(got)
        assert got.tobytes() == zeros[[2, 0, 1, 3]].tobytes()
        assert np.array_equal(modulus_sort_indices(zeros), [2, 0, 1, 3])
        on_one = 1.0 + 1j * np.array([2.0, -1.0, 1.0, -2.0])
        got = on_one.copy()
        assert core_types._sort_by_modulus(got)
        assert got.tobytes() == on_one[[2, 1, 0, 3]].tobytes()

    def test_a_line_sequence_skips_only_the_checks_of_its_own_line(self) -> None:
        seq = core_types._line_sequence(0.5, np.array([1.0, -1.0, 2.0]))
        assert seq._line == 0.5
        EntireFunctionSpec(ClassTag.Y_TILDE, 1.0, seq, center_xi=0.5)
        with pytest.raises(ValueError, match="Re z = center_xi"):
            EntireFunctionSpec(ClassTag.Y_TILDE, 1.0, seq, center_xi=0.25)
        for taus in ([1.0, 0.0], [1.0, np.inf], [np.nan]):
            assert core_types._line_sequence(0.5, np.array(taus))._line is None
        for xi in (0.0, np.inf, np.nan):
            assert core_types._line_sequence(xi, np.array([1.0]))._line is None

    def test_group_starts_mixed_pairing(self) -> None:
        zeros = np.array([1j, -1j, 3 + 0j, 2 + 1j, 2 - 1j])
        seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN, pairing=Pairing.CONJUGATE_PAIRS)
        assert seq.group_starts.tolist() == [0, 2, 3]

    def test_group_starts_fully_paired_fast_path(self) -> None:
        seq = ZeroSequence(
            zeros=np.array([1 + 1j, 1 - 1j, 1 + 2j, 1 - 2j]),
            pairing=Pairing.SYMMETRIC_ABOUT_CENTER,
        )
        assert seq.group_starts.tolist() == [0, 2]

    def test_real_zeros_never_pair(self) -> None:
        seq = ZeroSequence(zeros=np.array([2 + 0j, 2 + 0j]), pairing=Pairing.CONJUGATE_PAIRS)
        assert seq.group_starts.tolist() == [0, 1]

    @given(
        segments=st.lists(
            st.tuples(
                st.sampled_from(["run", "real", "lone"]),
                st.integers(min_value=1, max_value=5),
                st.sampled_from([1 + 1j, 1 - 1j, 2 + 0.5j, -1 - 3j]),
            ),
            max_size=10,
        ),
        pairing=st.sampled_from([Pairing.CONJUGATE_PAIRS, Pairing.SYMMETRIC_ABOUT_CENTER]),
    )
    @example(segments=[("run", 4, 1 + 1j)], pairing=Pairing.CONJUGATE_PAIRS)
    @example(segments=[("run", 3, 1 + 1j), ("real", 1, 1j), ("run", 2, 1 - 1j)], pairing=Pairing.CONJUGATE_PAIRS)
    def test_group_starts_follow_the_greedy_rule(self, segments, pairing) -> None:
        # layouts: runs a, conj(a), a, ...; real zeros; nonreal zeros with no
        # partner, which may still meet a conjugate from the next segment
        zeros: list[complex] = []
        for kind, length, a in segments:
            if kind == "run":
                zeros += [a if k % 2 == 0 else a.conjugate() for k in range(length)]
            elif kind == "real":
                zeros += [complex(length)] * length
            else:
                zeros.append(a)
        seq = ZeroSequence(zeros=np.array(zeros, dtype=complex), ordering=Ordering.AS_GIVEN, pairing=pairing)
        assert seq.group_starts.dtype == np.int64
        assert seq.group_starts.tolist() == _greedy_group_starts(seq.zeros)

    def test_zeros_are_read_only(self) -> None:
        seq = ZeroSequence(zeros=np.array([1j]))
        with pytest.raises(ValueError):
            seq.zeros[0] = 2j

    def test_tail_profile_rejects_bad_genus(self) -> None:
        seq = ZeroSequence(zeros=np.array([1j]))
        with pytest.raises(ValueError, match="genus"):
            seq.tail_profile(2)


class TestValidation:
    def test_paired_imaginary_zeros_converge_for_genus_1(self) -> None:
        k = np.arange(1, 1001, dtype=float)
        zeros = np.empty(2000, dtype=np.complex128)
        zeros[0::2] = 1j * k
        zeros[1::2] = -1j * k
        seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN, pairing=Pairing.CONJUGATE_PAIRS)
        report = validate_zero_sequence(seq, genus=1)
        series = check_by_name(report, "series_convergence")
        assert series.verdict is Verdict.PASS
        assert series.measured == pytest.approx(FROZEN_DOUBLED_BASEL_1000, rel=1e-13)
        assert report.overall is Verdict.PASS

    def test_single_zero_passes_everything(self) -> None:
        seq = ZeroSequence(zeros=np.array([1 + 1j]))
        report = validate_zero_sequence(seq, genus=0)
        assert report.overall is Verdict.PASS
        series = check_by_name(report, "series_convergence")
        assert series.measured == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_zero_entry_fails_nonzero_check_without_raising(self) -> None:
        seq = ZeroSequence(zeros=np.array([0j, 1 + 1j]), ordering=Ordering.AS_GIVEN)
        report = validate_zero_sequence(seq, genus=0)
        assert check_by_name(report, "nonzero").verdict is Verdict.FAIL
        assert report.overall is Verdict.FAIL
        # asymptotic checks still run on the nonzero remainder
        assert check_by_name(report, "series_convergence").verdict is Verdict.PASS

    def test_empty_sequence_raises(self) -> None:
        seq = ZeroSequence(zeros=np.array([], dtype=np.complex128))
        with pytest.raises(ValueError, match="empty"):
            validate_zero_sequence(seq, genus=0)

    def test_bad_genus_raises(self) -> None:
        seq = ZeroSequence(zeros=np.array([1j]))
        with pytest.raises(ValueError, match="genus"):
            validate_zero_sequence(seq, genus=2)

    def test_ordering_violation_detected(self) -> None:
        seq = ZeroSequence(zeros=np.array([3 + 0j, 1 + 0j]), ordering=Ordering.BY_MODULUS)
        report = validate_zero_sequence(seq, genus=0)
        ordering = check_by_name(report, "modulus_ordering")
        assert ordering.verdict is Verdict.FAIL
        assert ordering.measured == pytest.approx(2.0)

    def test_as_given_ordering_is_not_checked(self) -> None:
        seq = ZeroSequence(zeros=np.array([3 + 0j, 1 + 0j]), ordering=Ordering.AS_GIVEN)
        report = validate_zero_sequence(seq, genus=0)
        assert check_by_name(report, "modulus_ordering").verdict is Verdict.PASS

    def test_symmetric_line_genus0_unpaired_vs_paired(self) -> None:
        zeros = (1.0 + 1j * interleaved_taus(500)).astype(np.complex128)
        unpaired = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN, pairing=Pairing.NONE)
        report = validate_zero_sequence(unpaired, genus=0)
        series = check_by_name(report, "series_convergence")
        # |z_k|^-1 decays like 1/k: inside the dead band around the
        # convergence boundary, so never a clean pass
        assert series.verdict in (Verdict.FAIL, Verdict.INDETERMINATE)

        paired = ZeroSequence(
            zeros=zeros, ordering=Ordering.AS_GIVEN, pairing=Pairing.SYMMETRIC_ABOUT_CENTER
        )
        report = validate_zero_sequence(paired, genus=0)
        assert check_by_name(report, "series_convergence").verdict is Verdict.PASS

    def test_modulus_divergence_three_values(self) -> None:
        growing = ZeroSequence(zeros=1j * np.arange(1, 101, dtype=float), ordering=Ordering.AS_GIVEN)
        report = validate_zero_sequence(growing, genus=1)
        assert check_by_name(report, "modulus_divergence").verdict is Verdict.PASS

        bounded = ZeroSequence(
            zeros=np.exp(2j * np.pi * np.arange(20) / 20.0), ordering=Ordering.AS_GIVEN
        )
        report = validate_zero_sequence(bounded, genus=0)
        assert check_by_name(report, "modulus_divergence").verdict is Verdict.INDETERMINATE

        shrinking = ZeroSequence(
            zeros=1j / np.arange(1, 101, dtype=float), ordering=Ordering.AS_GIVEN
        )
        report = validate_zero_sequence(shrinking, genus=0)
        assert check_by_name(report, "modulus_divergence").verdict is Verdict.FAIL
        assert report.overall is Verdict.FAIL

    def test_short_list_treated_as_complete(self) -> None:
        seq = ZeroSequence(zeros=np.array([1 + 1j, 5 - 2j, 0.5j]), ordering=Ordering.AS_GIVEN)
        report = validate_zero_sequence(seq, genus=0)
        assert report.overall is Verdict.PASS


class TestEntireFunctionSpec:
    def test_rejects_zero_value_at_zero(self) -> None:
        seq = ZeroSequence(zeros=np.array([1j]))
        with pytest.raises(ValueError, match="value_at_zero"):
            EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=0j, zero_sequence=seq)

    def test_rejects_q_for_genus_0(self) -> None:
        seq = ZeroSequence(zeros=np.array([1j]))
        with pytest.raises(ValueError, match="q_constant"):
            EntireFunctionSpec(
                class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=seq, q_constant=1j
            )

    def test_rejects_zero_in_sequence(self) -> None:
        seq = ZeroSequence(zeros=np.array([0j]))
        with pytest.raises(ValueError, match="contains 0"):
            EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=seq)

    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(1.0, math.nan)])
    def test_rejects_non_finite_zero(self, bad) -> None:
        seq = ZeroSequence(zeros=np.array([1j, bad]))
        with pytest.raises(ValueError, match="non-finite entry"):
            EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=seq)

    def test_rejects_center_xi_zero(self) -> None:
        seq = ZeroSequence(zeros=np.array([1j, -1j]))
        with pytest.raises(ValueError, match="center_xi must be nonzero"):
            EntireFunctionSpec(class_tag=ClassTag.Y_TILDE, value_at_zero=1.0, zero_sequence=seq, center_xi=0.0)

    def test_symmetric_class_requires_matching_center(self) -> None:
        seq = ZeroSequence(zeros=np.array([1 + 1j, 1 - 1j]))
        with pytest.raises(ValueError, match="center_xi"):
            EntireFunctionSpec(class_tag=ClassTag.Y_TILDE, value_at_zero=1.0, zero_sequence=seq)
        with pytest.raises(ValueError, match="Re z"):
            EntireFunctionSpec(
                class_tag=ClassTag.Y_TILDE,
                value_at_zero=1.0,
                zero_sequence=seq,
                center_xi=2.0,
            )

    def test_symmetric_class_rejects_real_zero(self) -> None:
        seq = ZeroSequence(zeros=np.array([1 + 0j]))
        with pytest.raises(ValueError, match="imaginary"):
            EntireFunctionSpec(
                class_tag=ClassTag.Y_TILDE, value_at_zero=1.0, zero_sequence=seq, center_xi=1.0
            )

    def test_center_rejected_for_plain_classes(self) -> None:
        seq = ZeroSequence(zeros=np.array([1 + 1j]))
        with pytest.raises(ValueError, match="symmetric"):
            EntireFunctionSpec(
                class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=seq, center_xi=1.0
            )

    @pytest.mark.parametrize("value", [math.inf, complex(1.0, math.inf), complex(math.nan, 0.0)])
    def test_rejects_non_finite_value_at_zero(self, value) -> None:
        seq = ZeroSequence(zeros=np.array([1j]))
        with pytest.raises(ValueError, match="value_at_zero must be nonzero and finite"):
            EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=value, zero_sequence=seq)

    def test_genus_property(self) -> None:
        assert ClassTag.Y.genus == 0
        assert ClassTag.Y_TILDE.genus == 0
        assert ClassTag.L.genus == 1
        assert ClassTag.L_BAR.genus == 1


class TestMakeSymmetricSpec:
    def test_zeros_live_on_the_line_exactly(self) -> None:
        spec = make_symmetric_spec(xi=0.75, taus=[1.0, -1.0, 2.5, -2.5], value_at_center=2.0)
        assert np.all(spec.zero_sequence.zeros.real == 0.75)
        assert spec.center_xi == 0.75
        assert spec.zero_sequence.pairing is Pairing.SYMMETRIC_ABOUT_CENTER

    def test_center_value_round_trips(self) -> None:
        spec = make_symmetric_spec(xi=1.0, taus=interleaved_taus(50), value_at_center=3.0 - 2.0j)
        value = eval_product(spec, complex(1.0), len(spec.zero_sequence)).value
        assert value == pytest.approx(3.0 - 2.0j, rel=5e-15)

    def test_rejects_zero_center_value(self) -> None:
        with pytest.raises(ValueError, match="value_at_center must be nonzero"):
            make_symmetric_spec(xi=1.0, taus=[1.0, -1.0], value_at_center=0.0)

    def test_single_zero_inversion_matches_algebra(self) -> None:
        spec = make_symmetric_spec(xi=1.0, taus=[1.0], value_at_center=1.0)
        assert spec.zero_sequence.zeros.tolist() == [1 + 1j]
        assert spec.value_at_zero == pytest.approx(FROZEN_SINGLE_ZERO_S0, rel=1e-14)

    def test_zero_xi_rejected(self) -> None:
        with pytest.raises(ValueError, match="xi"):
            make_symmetric_spec(xi=0.0, taus=[1.0], value_at_center=1.0)

    def test_zero_tau_rejected(self) -> None:
        with pytest.raises(ValueError, match="tau"):
            make_symmetric_spec(xi=1.0, taus=[1.0, 0.0], value_at_center=1.0)

    def test_wrong_class_rejected(self) -> None:
        with pytest.raises(ValueError, match="Y_tilde or L_bar"):
            make_symmetric_spec(xi=1.0, taus=[1.0], value_at_center=1.0, class_tag=ClassTag.Y)

    def test_genus1_center_value_round_trips(self) -> None:
        spec = make_symmetric_spec(
            xi=2.0,
            taus=interleaved_taus(20),
            value_at_center=1.0 + 1.0j,
            class_tag=ClassTag.L_BAR,
            q_constant=0.4 - 0.1j,
        )
        value = eval_product(spec, complex(2.0), len(spec.zero_sequence)).value
        assert value == pytest.approx(1.0 + 1.0j, rel=5e-15)

    def test_builds_one_sequence_and_one_spec(self, monkeypatch) -> None:
        built = []
        for cls in (ZeroSequence, EntireFunctionSpec):
            def counted(self, original=cls.__post_init__):
                built.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        make_symmetric_spec(xi=1.0, taus=[3.0, -1.0, 1.0, -3.0], value_at_center=2.0)
        assert built == ["ZeroSequence", "EntireFunctionSpec"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            # the center product is about 1e-12: 1e300 / P passes the double range
            dict(xi=1.0, taus=[1e-6, -1e-6], value_at_center=1e300),
            # the center product underflows to 0
            dict(xi=1e300, taus=[1.0, -1.0], value_at_center=1.0),
            # P is about 1.4e304 at q = 700, so 1e-20 / P underflows
            dict(xi=1.0, taus=[1.0, -1.0], value_at_center=1e-20, class_tag="L_bar", q_constant=700.0),
        ],
        ids=["saturates", "product-underflows", "quotient-underflows"],
    )
    def test_inversion_past_the_double_range_is_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError, match="inverted origin value"):
            make_symmetric_spec(**kwargs)


class TestTailProfile:
    def test_undefined_with_a_zero_at_the_origin(self) -> None:
        seq = ZeroSequence(zeros=np.array([1j, 0j, -1j]), ordering=Ordering.AS_GIVEN)
        for genus in (0, 1):
            with pytest.raises(ValueError, match="sequence containing 0"):
                seq.tail_profile(genus)

    @pytest.mark.parametrize("pairing", list(Pairing))
    def test_empty_sequence_is_complete(self, pairing) -> None:
        seq = ZeroSequence(zeros=np.zeros(0, dtype=complex), pairing=pairing)
        for genus in (0, 1):
            profile = seq.tail_profile(genus)
            assert profile.terms.size == 0 and profile.suffix.tolist() == [0.0]
            assert profile.verdict is Verdict.PASS and profile.fit is None
            assert profile.extrapolated_tail == 0.0 == profile.plain_partial_sum
            assert profile.tail_beyond(0) == 0.0

    def test_tail_beyond_decreases_with_truncation(self) -> None:
        zeros = 1.0 + 1j * interleaved_taus(600)
        seq = ZeroSequence(zeros=zeros, pairing=Pairing.SYMMETRIC_ABOUT_CENTER).sorted_by_modulus()
        profile = seq.tail_profile(0)
        t_small = profile.tail_beyond(100)
        t_large = profile.tail_beyond(1000)
        assert t_small is not None and t_large is not None
        assert t_large < t_small
        assert profile.tail_beyond(len(seq)) == pytest.approx(profile.extrapolated_tail)

    def test_split_pair_counts_its_orphan(self) -> None:
        # N = 101 keeps 1 + 101i and drops its partner 1 - 101i: the profile
        # counts that group whole, and the evaluators refuse such an N
        k = np.arange(1.0, 5001.0)
        spec = make_symmetric_spec(xi=1.0, taus=np.concatenate([k, -k]), value_at_center=1.0)
        profile = spec.zero_sequence.tail_profile(0)
        tails = [profile.tail_beyond(n) for n in (100, 101, 102)]
        assert tails[0] == tails[1] > tails[2]
        with pytest.raises(ValueError, match=r"N = 101 splits a \+-tau pair: use N = 100 or N = 102"):
            eval_product(spec, 1.0 + 2.5j, 101)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pairs=st.integers(min_value=1, max_value=40),
        genus=st.sampled_from([0, 1]),
    )
    def test_bound_never_grows_with_truncation(self, seed, pairs, genus) -> None:
        rng = np.random.default_rng(seed)
        taus = np.cumsum(rng.uniform(0.5, 2.0, pairs))
        spec = make_symmetric_spec(
            xi=rng.uniform(0.2, 3.0),
            taus=np.concatenate([taus, -taus]),
            value_at_center=1.0,
            class_tag=ClassTag.L_BAR if genus else ClassTag.Y_TILDE,
        )
        seq = spec.zero_sequence
        tails = [seq.tail_profile(genus).tail_beyond(n) for n in range(len(seq) + 1)]
        # the truncations that keep whole pairs
        bounds = [eval_product(spec, 1.0 + 2.5j, n).tail_bound for n in range(0, len(seq) + 1, 2)]
        assert None not in tails and None not in bounds
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        for n in range(1, len(seq), 2):
            # n splits a pair, whose orphan keeps the whole group in the tail
            assert tails[n] == tails[n - 1]

    def test_divergent_terms_give_no_extrapolation(self) -> None:
        zeros = 1j * np.arange(1, 201, dtype=float)
        seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN, pairing=Pairing.NONE)
        profile = seq.tail_profile(0)
        assert profile.verdict in (Verdict.FAIL, Verdict.INDETERMINATE)
        assert profile.tail_beyond(50) is None

    def test_overflowing_intercept_extrapolates_in_log_domain(self) -> None:
        # the fitted intercept passes log(DBL_MAX), so e^intercept alone overflows
        taus = [1.0] * 6 + [1028001607991.0, 2.104724618777498e45]
        spec = make_symmetric_spec(
            xi=0.5, taus=taus, value_at_center=1.0 + 0j, class_tag=ClassTag.L_BAR
        )
        report = validate_zero_sequence(spec.zero_sequence, genus=1)
        assert report.overall is Verdict.PASS
        profile = spec.zero_sequence.tail_profile(1)
        assert profile.fit is not None
        assert profile.fit.intercept > math.log(np.finfo(float).max)
        assert 0.0 < profile.extrapolated_tail < 1e-60

    def test_extrapolated_tail_past_double_range_is_inf(self) -> None:
        # e^712 j^-1.2 on the fitted half, j = 9..16; the log tail passes 709.78
        head = np.full(8, 1e300)
        terms = np.concatenate([head, np.exp(712.0 - 1.2 * np.log(np.arange(9.0, 17.0)))])
        verdict, fit, extrap = _fit_tail_terms(terms)
        assert verdict is Verdict.PASS
        assert fit is not None and fit.intercept > math.log(np.finfo(float).max)
        assert extrap == math.inf
