"""Batched evaluation: near zeros through the factor kernel, far zeros through power sums."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import interleaved_taus

from entirefn import (
    ClassTag,
    EntireFunctionSpec,
    Ordering,
    ZeroSequence,
    critical_line_profile,
    eval_product,
    eval_shifted_product,
    log_derivative,
    make_symmetric_spec,
    shift_constant_residual,
)
from entirefn import identities, product_engine
from entirefn._numeric import _FSUM_BELOW, BLOCK
from entirefn.identities import compare_shift, verify_identity
from entirefn.product_engine import (
    _BLOCK_ELEMENTS,
    _FAR_RATIO,
    _FAR_TOLERANCE,
    _eval_batch,
    _far_sums,
    _log_derivatives,
    _log_sum,
)


def _spec(kind: str, moduli: list[float], angles: list[float], q: complex) -> EntireFunctionSpec:
    """A spec of one of the four shapes the batched path must serve."""
    if kind in ("Y_tilde", "L_bar"):
        taus = [m if a > 0 else -m for m, a in zip(moduli, angles)]
        tag = ClassTag(kind)
        return make_symmetric_spec(0.75, taus, 1.3 - 0.4j, tag, q if tag is ClassTag.L_BAR else 0j)
    zeros = np.array([m * complex(math.cos(a), math.sin(a)) for m, a in zip(moduli, angles)])
    if kind == "duplicates":
        zeros = np.repeat(zeros, 2)
    tag = ClassTag.Y if kind == "duplicates" else ClassTag.L
    seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN)
    return EntireFunctionSpec(
        class_tag=tag, value_at_zero=0.8 + 0.2j, zero_sequence=seq,
        q_constant=q if tag is ClassTag.L else 0j,
    )


spec_data = st.tuples(
    st.sampled_from(["Y_tilde", "L_bar", "L", "duplicates"]),
    st.lists(st.floats(min_value=1.0, max_value=400.0), min_size=1, max_size=40),
    st.floats(min_value=-3.1, max_value=3.1),
    st.floats(min_value=-0.5, max_value=0.5),
    # |s| <= 8 |z| keeps every log far inside the double range; values may pass it
    st.floats(min_value=0.1, max_value=8.0),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-3.2, 3.2)), min_size=1, max_size=12),
    st.booleans(),
)


def _case(data):
    kind, moduli, angle0, q_re, radius, polar, on_zero = data
    angles = [angle0 + 0.7 * k for k in range(len(moduli))]
    spec = _spec(kind, moduli, [math.remainder(a, 2 * math.pi) for a in angles], complex(q_re, 0.2))
    points = [radius * r * complex(math.cos(t), math.sin(t)) for r, t in polar]
    zeros = spec.zero_sequence.zeros
    if on_zero:
        # a grid point on a retained zero, which is always near
        z = complex(zeros[int(np.argmin(np.abs(zeros)))])
        radius = max(radius, abs(z))
        points.append(z)
    return spec, points, radius


@given(spec_data)
def test_batch_matches_per_point_values(data) -> None:
    spec, points, radius = _case(data)
    n = spec.n_zeros
    values, logs = _eval_batch(spec, points, n, radius)
    for s, value, log in zip(points, values, logs):
        direct = eval_product(spec, s, n)
        if direct.value == 0:
            assert value == 0 and log.real == -math.inf
            continue
        assert direct.log_value is not None
        # the log differs only by the far series' rounding
        assert abs(log - direct.log_value) <= 1e-13 * (1.0 + abs(direct.log_value))
        if math.isfinite(abs(direct.value)) and math.isfinite(abs(value)):
            assert abs(value - direct.value) <= 1e-12 * abs(direct.value)


@given(spec_data)
def test_batch_matches_per_point_log_derivative(data) -> None:
    spec, points, radius = _case(data)
    zeros = spec.zero_sequence.zeros
    points = [s for s in points if np.min(np.abs(s - zeros)) > 1e-6]
    derivs = _log_derivatives(spec, points, spec.n_zeros, radius)
    for s, deriv in zip(points, derivs):
        direct = log_derivative(spec, s)
        scale = abs(spec.q_constant) + float(np.sum(1.0 / np.abs(s - zeros) + 1.0 / np.abs(zeros)))
        assert abs(deriv - direct) <= 1e-13 * scale


@given(spec_data)
def test_empty_far_set_is_the_direct_path(data) -> None:
    spec, points, _ = _case(data)
    n = spec.n_zeros
    radius = float(np.max(spec.zero_sequence.moduli)) / _FAR_RATIO + max(abs(s) for s in points)
    values, _ = _eval_batch(spec, points, n, radius)
    for s, value in zip(points, values):
        assert complex(value) == eval_product(spec, s, n).value
    zeros = spec.zero_sequence.zeros
    points = [s for s in points if np.min(np.abs(s - zeros)) > 1e-6]
    for s, deriv in zip(points, _log_derivatives(spec, points, n, radius)):
        assert complex(deriv) == log_derivative(spec, s, n)


def _block_case(rng, layout: str) -> tuple[np.ndarray, np.ndarray]:
    """Zeros and points that put the reducer's (points x zeros) blocks at an edge."""
    n = int(rng.choice([37, 64, 100]))
    n += n % 2 if layout == "halved" else 0  # pairs need an even count
    step = _BLOCK_ELEMENTS // n  # rows per block
    rows = {"under cap": step - 1, "at cap": step, "over cap": step + 1}.get(layout, 2 * step + 1)
    if layout == "long row":
        n, rows = BLOCK + 5, 3
    elif layout == "wide rows":
        n = _FSUM_BELOW + 88
        rows = 2 * (_BLOCK_ELEMENTS // n) + 1
    zeros = rng.uniform(0.1, 5.0, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    points = rng.uniform(0.05, 6.0, rows) * np.exp(1j * rng.uniform(-math.pi, math.pi, rows))
    if layout == "on a zero":
        points[rows // 3] = zeros[n // 2]
    elif layout == "rounds to one":
        # s / z rounds to exactly 1 one ulp below z
        zeros[n // 2], points[rows // 3] = 0.1 + 2.9j, 0.09999999999999999 + 2.9j
    elif layout == "mixed series":
        # one zero far out: rows at |s| just under half its modulus have
        # exactly one factor on the genus-1 series, others none or many
        zeros[-1] = 40.0 * np.exp(1j * rng.uniform(-math.pi, math.pi))
        points *= 19.9 / np.abs(points)
        points[0::4] *= 0.01
    elif layout == "halved":
        zeros[1::2] = np.conj(zeros[0::2])
        points = points.real.copy()
    return zeros, points.astype(np.complex128)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    genus=st.sampled_from([0, 1]),
    layout=st.sampled_from(
        ["under cap", "at cap", "over cap", "long row", "wide rows", "on a zero", "rounds to one",
         "mixed series", "halved"]
    ),
    center=st.sampled_from([0.0, 0.5]),
)
def test_blocked_reducer_matches_one_row_at_a_time(seed, genus, layout, center) -> None:
    zeros, points = _block_case(np.random.default_rng(seed), layout)
    with np.errstate(over="ignore", invalid="ignore"):
        blocked = _log_sum(points, zeros, genus, complex(center))
        rows = np.concatenate([_log_sum([s], zeros, genus, complex(center)) for s in points])
    assert blocked.shape == points.shape
    assert np.array_equal(blocked.view(np.int64), rows.view(np.int64))
    if layout == "on a zero":
        assert blocked[points.size // 3].real == -math.inf
        assert np.isfinite(np.delete(blocked, points.size // 3)).all()


# a/10 + i b/10, where numpy's z / z is often not exactly 1, or any double pair;
# |z| >= 1e-3 keeps every s / z with |s| <= 80 inside the double range
grid_zeros = st.builds(lambda a, b: complex(a / 10, b / 10), st.integers(-39, 39), st.integers(-39, 39))
double_zeros = st.builds(complex, st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
coincidence_data = st.tuples(
    st.lists(st.one_of(grid_zeros, double_zeros).filter(lambda z: abs(z) >= 1e-3), min_size=1, max_size=8),
    st.booleans(),
)


def _ulp_neighbours(z: complex) -> list[complex]:
    """The four points one ulp from z in one part."""
    sides = (-math.inf, math.inf)
    return [complex(math.nextafter(z.real, d), z.imag) for d in sides] + [
        complex(z.real, math.nextafter(z.imag, d)) for d in sides
    ]


@given(coincidence_data)
def test_exact_zero_only_at_a_retained_zero(data) -> None:
    zeros, genus1 = data
    seq = ZeroSequence(zeros=np.array(zeros, dtype=np.complex128), ordering=Ordering.AS_GIVEN)
    spec = EntireFunctionSpec(
        class_tag=ClassTag.L if genus1 else ClassTag.Y, value_at_zero=0.8 + 0.2j,
        zero_sequence=seq, q_constant=0.3 - 0.1j if genus1 else 0j,
    )
    n, alpha = len(zeros), 55.0 + 55.0j
    for z in zeros:
        for record in (eval_product(spec, z), eval_shifted_product(spec, alpha, z)):
            assert record.value == 0 and record.log_value is None
        beside = [s for s in _ulp_neighbours(z) if s not in zeros]
        for s in beside:
            for record in (eval_product(spec, s), eval_shifted_product(spec, alpha, s)):
                assert record.log_value is not None and math.isfinite(record.log_value.real)
        values, logs = _eval_batch(spec, [z, *beside], n, 2.0 * abs(z))
        assert values[0] == 0 and logs[0].real == -math.inf
        assert np.all(np.isfinite(logs[1:]))


def test_pole_guard_on_batched_log_derivative(sinh_genus1_spec) -> None:
    with pytest.raises(ValueError, match="pole"):
        _log_derivatives(sinh_genus1_spec, [0.5, 3j], 4000, 3.0)


@pytest.mark.parametrize("radius", [0.2, 1.5, 10.0, 41.5, 160.0, 1000.0])
def test_degree_meets_the_remainder_bound(sinh_line_spec, radius) -> None:
    moduli = sinh_line_spec.zero_sequence.moduli
    far = sinh_line_spec.zero_sequence.zeros[moduli > _FAR_RATIO * radius]
    _, sums = _far_sums(far)
    degree = sums.size

    def bound(w: np.ndarray, k: int) -> float:
        return float(np.sum(w ** (k + 1) / ((k + 1) * (1.0 - w))))

    assert bound(radius / np.abs(far), degree) < _FAR_TOLERANCE
    # least: one degree fewer misses at the largest radius with this cut
    widest = float(np.min(np.abs(far))) / _FAR_RATIO
    assert bound(widest / np.abs(far), degree - 1) >= _FAR_TOLERANCE


def test_far_sums_are_cached_per_cut() -> None:
    spec = make_symmetric_spec(1.0, [1.0, -1.0, 2.0, -2.0, 9.0, -9.0], 1.0)
    cache = spec.zero_sequence._far_cache
    _eval_batch(spec, [0.2j], 6, 0.3)
    _eval_batch(spec, [0.5j], 6, 0.6)
    entry = cache[(6, 4)]
    # a wider radius with the same cut reuses the sums
    _eval_batch(spec, [0.6], 6, 0.7)
    assert cache[(6, 4)] is entry
    _eval_batch(spec, [1.0 + 2.5j], 6, 3.0)
    assert sorted(cache) == [(6, 0), (6, 4), (6, 6)]


def test_far_sums_of_tiny_zeros_stay_finite() -> None:
    # unscaled, sum z^-3 over these zeros would pass the double range
    zeros = 1e-150 * np.array([3.0, -5j, 7.0 + 1j])
    seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN)
    spec = EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=seq)
    points = [1e-151 * (0.5 + 0.2j), -0.9e-151]
    values, _ = _eval_batch(spec, points, 3, 1e-151)
    assert spec.zero_sequence._far_cache[(3, 0)][1].size > 2
    for s, value in zip(points, values):
        assert abs(value - eval_product(spec, s).value) <= 1e-15


def _mp_product(spec: EntireFunctionSpec, s: complex, mpmath):
    """The truncated product at s in the working precision of mpmath."""
    s_mp = mpmath.mpc(s)
    total = mpmath.mpc(spec.value_at_zero)
    if spec.genus == 1:
        total *= mpmath.exp(mpmath.mpc(spec.q_constant) * s_mp)
    for z in spec.zero_sequence.zeros.tolist():
        w = s_mp / mpmath.mpc(z)
        total *= (1 - w) * mpmath.exp(w) if spec.genus == 1 else 1 - w
    return total


@pytest.mark.parametrize("fixture, x_min, x_max", [
    ("sinh_line_spec", 0.5, 40.5),
    ("lbar_spec", -19.5, 20.5),
])
def test_profile_matches_120_bit_product(request, fixture, x_min, x_max) -> None:
    mpmath = pytest.importorskip("mpmath")
    spec = request.getfixturevalue(fixture)
    profile = critical_line_profile(spec, x_min, x_max, 41)
    worst = 0.0
    with mpmath.workprec(120):
        for x, value in list(zip(profile.grid, profile.values))[::5]:
            reference = _mp_product(spec, complex(spec.center_xi, x), mpmath)
            worst = max(worst, float(abs(mpmath.mpc(complex(value)) - reference) / abs(reference)))
    assert worst <= 2e-14


def test_far_series_bits_do_not_depend_on_the_batch(sinh_line_spec) -> None:
    # a lone point takes the products a longer batch takes: its far series,
    # and so its log and S'/S, has the same bits alone as first of two
    rng = np.random.default_rng(14)
    points = rng.uniform(-7.0, 7.0, 60) + 1j * rng.uniform(-7.0, 7.0, 60)
    n, radius = len(sinh_line_spec.zero_sequence), 10.0
    assert np.count_nonzero(sinh_line_spec.zero_sequence.moduli > _FAR_RATIO * radius)
    for p, q in zip(points, points[::-1]):
        _, alone = _eval_batch(sinh_line_spec, [p], n, radius)
        _, first = _eval_batch(sinh_line_spec, [p, q], n, radius)
        assert alone[:1].view(np.int64).tolist() == first[:1].view(np.int64).tolist()
        alone = _log_derivatives(sinh_line_spec, [p], n, radius)
        first = _log_derivatives(sinh_line_spec, [p, q], n, radius)
        assert alone[:1].view(np.int64).tolist() == first[:1].view(np.int64).tolist()


# The shift identities T1-T4: one radius R over a batch's points and shift
# points, the zeros beyond 4R from their power sums.


def _spy(monkeypatch, module, name: str, calls: list) -> None:
    """Record (args, result) of every call of module.name."""
    original = getattr(module, name)

    def spy(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("theorem, fixture", [
    ("T1", "sinh_genus1_spec"),
    ("T3", "lbar_spec"),
    ("T4", "sinh_line_spec"),
])
def test_shift_batches_match_single_point_values(request, monkeypatch, theorem, fixture) -> None:
    spec = request.getfixturevalue(fixture)
    batches = []
    # S(alpha), then the direct values, both in product_engine's shift batch
    _spy(monkeypatch, product_engine, "_eval_batch", batches)
    assert verify_identity(spec, theorem, seed=11, draws=12).passed
    monkeypatch.undo()
    assert len(batches) == 2
    for (_, points, n, radius), (values, _) in batches:
        assert np.count_nonzero(spec.zero_sequence.moduli[:n] > _FAR_RATIO * radius)
        for s, value in zip(points, values):
            direct = eval_product(spec, s).value
            assert abs(value - direct) <= 1e-14 * abs(direct)


@pytest.mark.parametrize("theorem", ["T1", "T3"])
def test_one_far_sum_per_shift_identity_run(monkeypatch, theorem) -> None:
    # fresh specs: no far sums cached yet
    taus = interleaved_taus(300)
    if theorem == "T3":
        spec = make_symmetric_spec(1.0, taus, 1.0, ClassTag.L_BAR, 0.3)
    else:
        seq = ZeroSequence(zeros=1j * taus, ordering=Ordering.AS_GIVEN)
        spec = EntireFunctionSpec(class_tag=ClassTag.L, value_at_zero=1.0, zero_sequence=seq, q_constant=0.2)
    calls = []
    _spy(monkeypatch, product_engine, "_far_sums", calls)
    assert verify_identity(spec, theorem, seed=5, draws=10).passed
    ((far,), _), = calls
    assert far.size > 0


@pytest.mark.parametrize("genus", [0, 1])
def test_shift_batch_without_far_zeros_is_the_direct_path(poly_spec, genus) -> None:
    # every zero within 4R: each draw has the bits of the single-point calls
    spec = poly_spec
    if genus:
        seq = ZeroSequence(zeros=np.array([2.0, -1.0 + 1.5j, -1.0 - 1.5j]), ordering=Ordering.AS_GIVEN)
        spec = EntireFunctionSpec(class_tag=ClassTag.L, value_at_zero=1.0, zero_sequence=seq, q_constant=0.3)
    rng = np.random.default_rng(4)
    s_points = identities._draw_points(rng, spec, 5, avoid_origin=False)
    alphas = identities._draw_points(rng, spec, 5, avoid_origin=True)
    radius = max(abs(p) for p in s_points + alphas)
    assert np.all(spec.zero_sequence.moduli <= _FAR_RATIO * radius)
    measures = product_engine._shift_measures(spec, s_points, alphas, None, radius)
    assert measures == [compare_shift(spec, alpha, s) for s, alpha in zip(s_points, alphas)]


@pytest.mark.parametrize("offset", [0.5, 2.5, -7.25])
def test_residual_on_the_zero_line_takes_the_pair_kernel(lbar_spec, monkeypatch, offset) -> None:
    # the left side S(0) prod (1 - alpha/z) at alpha = xi + i x is a genus-0
    # product on the line: one real log per pair, real where S(0) is
    alpha = complex(lbar_spec.center_xi, offset)
    calls = []
    _spy(monkeypatch, product_engine, "_pair_log_sum", calls)
    assert shift_constant_residual(lbar_spec, alpha) <= 1e-14
    radius = abs(alpha)
    zeros, at_alpha = product_engine._at_shift_points(lbar_spec, [alpha], None, radius)
    (residual,) = product_engine._internal_residuals(lbar_spec, [alpha], zeros, at_alpha, radius)
    assert residual <= 1e-14
    assert len(calls) == 2
