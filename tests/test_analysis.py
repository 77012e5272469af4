from __future__ import annotations

import math
import sys
from pathlib import Path

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
from entirefn import analysis, identities
from entirefn.cli import load_spec_file
from entirefn.product_engine import _eval_batch


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

    def test_ring_of_retained_zeros_reads_zero(self) -> None:
        # the four grid points themselves are the zeros: every sample is an exact 0
        ring = 2.0 * analysis._units(4)
        assert max_modulus(bare_spec(ring), 2.0, angular_samples=4) == 0.0

    def test_modulus_past_the_double_range_reads_inf(self) -> None:
        # log |S| peaks at Re(800 s) = 1600 on the circle of radius 2
        assert max_modulus(bare_spec([10.0], genus=1, q=800.0), 2.0) == math.inf

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

    @pytest.mark.parametrize("fixture", ["sinh_genus1_spec", "sinh_line_spec"])
    def test_every_ring_in_one_batch(self, request, monkeypatch, fixture) -> None:
        spec = request.getfixturevalue(fixture)
        batches = []
        original = analysis._log_sums

        def spy(*args):
            batches.append(args)
            return original(*args)

        monkeypatch.setattr(analysis, "_log_sums", spy)
        estimate = estimate_order(spec, 2.0, 30.0, n_radii=6, angular_samples=16)
        monkeypatch.undo()
        ((*_, points, n, far_radius),) = batches
        assert far_radius == 30.0 and np.count_nonzero(spec.zero_sequence.moduli[:n] > 4 * far_radius)
        # each ring's maximum has the bits of its own batch at the same far radius;
        # q is real and the zeros are mirrored pairs, so a ring is its upper half
        kept, rings = [], []
        for r in np.geomspace(2.0, 30.0, 6).tolist():
            thetas = [2 * math.pi * j / 16 for j in range(8)]
            ring = [r * complex(math.cos(theta), math.sin(theta)) for theta in thetas] + [complex(-r, 0.0)]
            _, logs = _eval_batch(spec, ring, n, far_radius)
            log_max = float(np.max(logs.real))
            if 1.0 < log_max < math.inf:
                kept.append((r, math.log(log_max)))
            rings += ring
        assert list(zip(estimate.radii, estimate.log_log_max)) == kept
        assert np.ravel(points).tobytes() == np.array(rings).tobytes()

    @pytest.mark.parametrize("fixture", ["sinh_genus1_spec", "sinh_line_spec", "lbar_spec"])
    def test_groups_give_the_bits_of_one_batch(self, request, monkeypatch, fixture) -> None:
        spec = request.getfixturevalue(fixture)
        args = (spec, 2.0, 30.0, 7, None, 48)
        whole = estimate_order(*args)
        groups = []
        original = analysis._log_sums

        def spy(*spy_args):
            groups.append(spy_args[3].size)
            return original(*spy_args)

        # groups of 18 points split the upper halves, 25 nodes, of rings of 48
        monkeypatch.setattr(analysis, "BLOCK", 18)
        monkeypatch.setattr(analysis, "_log_sums", spy)
        grouped = estimate_order(*args)
        assert len(groups) == 10 and max(groups) == 18
        assert grouped == whole
        assert np.array(grouped.log_log_max).tobytes() == np.array(whole.log_log_max).tobytes()

    def test_a_log_with_no_phase_is_refused(self) -> None:
        # Im(q s) passes the double range at a node where Re(q s) does not
        spec = bare_spec([10.0], genus=1, q=1e308j)
        with pytest.raises(ValueError, match=r"product log \(-0\.0231435513142097\d\+infj\) has no phase"):
            max_modulus(spec, 2.0, angular_samples=6)

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


def _ring_points(monkeypatch, spec, radii, samples, n) -> tuple[list[float], int]:
    """``_max_log_moduli`` over the rings, and the number of points it evaluated."""
    counts = []
    original = analysis._log_sums

    def spy(*args):
        counts.append(np.size(args[3]))
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_log_sums", spy)
        maxima = analysis._max_log_moduli(spec, radii, samples, n)
    return maxima, sum(counts)


@pytest.fixture(scope="module")
def perfbench_specs(tmp_path_factory) -> dict[str, EntireFunctionSpec]:
    """The specs of the benchmark's line-dense and genus1-growth workloads."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from fixtures import write_fixtures

    paths = write_fixtures(tmp_path_factory.mktemp("perfbench"), ("line1e4", "genus1_L", "lbar"), 7)
    return {name: load_spec_file(path)[0] for name, path in paths.items()}


# M = 4..256 in full, and the powers of two up to 4096 with their odd neighbours
_NODE_COUNTS = sorted({*range(4, 257), *(2**k + d for k in range(9, 13) for d in (-1, 0, 1))})


class TestConjugateRings:
    def test_node_m_minus_j_is_the_conjugate_of_node_j(self) -> None:
        for m in _NODE_COUNTS:
            units = analysis._units(m)
            assert np.array_equal(units[1:], np.conj(units[:0:-1]))
            half = m // 2
            # bit for bit below the real node M/2, which is its own mirror
            assert units[half + 1 :].tobytes() == np.conj(units[m - half - 1 : 0 : -1]).tobytes()
            assert units[0] == 1.0 and (m % 2 or units[half] == -1.0)
            assert not units[0].imag and (m % 2 or not units[half].imag)
            # the upper half below M/2 keeps the nodes it always had
            thetas = [2.0 * math.pi * j / m for j in range(half + m % 2)]
            expected = [complex(math.cos(theta), math.sin(theta)) for theta in thetas]
            assert units[: len(expected)].tolist() == expected

    @pytest.mark.parametrize("samples", [4, 5, 16, 32, 33, 64])
    @pytest.mark.parametrize("fixture", ["sinh_line_spec", "sinh_genus1_spec", "lbar_spec"])
    def test_half_ring_maxima_are_the_full_rings(self, request, monkeypatch, fixture, samples) -> None:
        self._check_half_ring(monkeypatch, request.getfixturevalue(fixture), samples)

    @pytest.mark.parametrize("name, samples", [("line1e4", 16), ("genus1_L", 32), ("lbar", 32), ("lbar", 7)])
    def test_half_ring_maxima_on_the_benchmark_specs(self, monkeypatch, perfbench_specs, name, samples) -> None:
        self._check_half_ring(monkeypatch, perfbench_specs[name], samples)

    @staticmethod
    def _check_half_ring(monkeypatch, spec, samples) -> None:
        radii, n = np.geomspace(2.0, 40.0, 8), len(spec.zero_sequence)
        half, points = _ring_points(monkeypatch, spec, radii, samples, n)
        assert points == radii.size * (samples // 2 + 1)
        monkeypatch.setattr(analysis, "_conjugate_half", lambda values: None)
        full, points = _ring_points(monkeypatch, spec, radii, samples, n)
        assert points == radii.size * samples
        assert np.array(half).tobytes() == np.array(full).tobytes()

    def test_every_node_where_the_rings_are_not_mirrored(self, monkeypatch, poly_spec) -> None:
        mirrored = [1 + 1j, 1 - 1j, 2 + 2j, 2 - 2j, 3 + 0.5j, 3 - 0.5j]
        cases = [
            (bare_spec(mirrored, genus=1, q=0.3 + 0.1j), 6),  # complex q: |S(conj s)| != |S(s)|
            (poly_spec, 1),  # a lone real zero
            (bare_spec(mirrored), 3),  # the truncation splits the third pair
            (bare_spec([1 + 1j, 2 + 2j, 1 - 1j, 2 - 2j]), 4),  # conjugate-closed, not in pairs
        ]
        radii = np.geomspace(2.0, 40.0, 5)
        for spec, n in cases:
            _, points = _ring_points(monkeypatch, spec, radii, 16, n)
            assert points == radii.size * 16


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


def aliasing_bound(zeros, center: complex, radius: float, nodes: int) -> float:
    """A(N) = sum_k q_k^N/(1 - q_k^N), q_k = min(r_k, radius)/max(r_k, radius), taken directly."""
    r = np.abs(zeros - center)
    power = (np.minimum(r, radius) / np.maximum(r, radius)) ** nodes
    return float(np.sum(power / (1.0 - power)))


def audit_radius(zeros, center: complex) -> float:
    """The T8/T9 contour radius: 0.4 times the distance to the nearest other zero, at most 0.4."""
    others = np.abs(zeros - center)
    return 0.4 * min(float(np.min(others[others > 1e-9])), 1.0)


class TestTrapezoidNodes:
    @pytest.mark.parametrize("nodes", [16, 32])
    @pytest.mark.parametrize("fixture", ["sinh_line_spec", "lbar_spec"])
    def test_aliasing_bound_holds(self, request, fixture, nodes) -> None:
        spec = request.getfixturevalue(fixture)
        zeros = spec.zero_sequence.zeros
        for k in (1, 2, 7, 33):
            center = complex(1.0, k)
            radius = audit_radius(zeros, center)
            result = verify_multiplicity(spec, center, radius, nodes)
            bound = aliasing_bound(zeros, center, radius, nodes)
            assert abs(result.raw_integral - result.winding) <= bound + 1e-13
            assert result.winding == 1 and bound > 0.0

    def test_fixtures_take_sixteen_nodes(self, sinh_line_spec, lbar_spec) -> None:
        for spec in (sinh_line_spec, lbar_spec):
            zeros = spec.zero_sequence.zeros
            for k in (1, 2, 7, 33):
                center = complex(1.0, k)
                radius = audit_radius(zeros, center)
                assert analysis._trapezoid_nodes(zeros, center, radius) == 16
                assert aliasing_bound(zeros, center, radius, 16) <= analysis.TRAPEZOID_TOLERANCE

    def test_zero_just_outside_the_contour_takes_512(self) -> None:
        zeros = np.array([1.0 + 0j, 1.4 + 1e-5, 4.0 + 1j])
        assert analysis._trapezoid_nodes(zeros, 1.0, 0.4) == 512
        # the contour clearance admits it; the snap gate of 512 nodes refuses it, as before
        with pytest.raises(ValueError, match="unresolved"):
            verify_multiplicity(bare_spec(zeros), 1.0, 0.4, 512)

    def test_four_zeros_at_two_and_a_half_radii_take_32(self) -> None:
        # q = 0.4 four times: A(16) = 1.7e-6 misses the tolerance, A(32) = 7.4e-13 meets it
        center, radius = 2.0 + 1j, 0.3
        zeros = np.array([center] + [center + 2.5 * radius * 1j**k for k in range(4)])
        assert analysis._trapezoid_nodes(zeros, center, radius) == 32
        assert aliasing_bound(zeros, center, radius, 16) > analysis.TRAPEZOID_TOLERANCE
        assert aliasing_bound(zeros, center, radius, 32) <= analysis.TRAPEZOID_TOLERANCE
        assert verify_multiplicity(bare_spec(zeros), center, radius, 32).winding == 1

    def test_no_zeros_take_sixteen(self) -> None:
        assert analysis._trapezoid_nodes(np.zeros(0, dtype=np.complex128), 1j, 0.5) == 16

    @pytest.mark.parametrize("fixture, theorem, x_min, x_max", [
        ("sinh_line_spec", "T8", 0.5, 8.5),
        ("sinh_line_spec", "T8", 40.6, 43.1),
        ("duplicated_zero_spec", "T8", -1.5, 1.5),
        ("lbar_spec", "T9", -3.0, 3.0),
        ("lbar_spec", "T9", -20.0, 20.0),
        ("lbar_spec", "T9", 150.5, 152.5),
    ])
    def test_audits_match_512_nodes(self, request, monkeypatch, fixture, theorem, x_min, x_max) -> None:
        spec = request.getfixturevalue(fixture)
        counts = []
        original = identities._winding

        def spy(*args):
            result = original(*args)
            counts.append(result.nodes)
            return result

        monkeypatch.setattr(identities, "_winding", spy)
        audited = identities.verify_identity(spec, theorem, x_min=x_min, x_max=x_max)
        monkeypatch.setattr(identities, "_trapezoid_nodes", lambda *args: 512)
        fixed = identities.verify_identity(spec, theorem, x_min=x_min, x_max=x_max)
        assert audited == fixed
        assert set(counts[: len(counts) // 2]) <= {16} and set(counts[len(counts) // 2 :]) <= {512}
