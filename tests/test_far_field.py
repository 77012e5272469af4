"""Batched evaluation: near zeros through the factor kernel, far zeros through power sums."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
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
from entirefn._numeric import _FSUM_BELOW, BLOCK, complex_sum
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
# one log per conjugate pair: the principal argument of the pair's product (2.32) where
# eval_product sums the two factors' (-3.96)
@example(("Y_tilde", [1.0, 1.0, 8.0], 0.0, 0.0, 2.0, [(1.0, 1.0)], False))
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
        # the log differs only by the far series' rounding, and its summed
        # imaginary part, which is not branch-normalized, by a multiple of 2 pi
        difference = log - direct.log_value
        turn = math.remainder(difference.imag, 2.0 * math.pi)
        assert abs(complex(difference.real, turn)) <= 1e-13 * (1.0 + abs(direct.log_value))
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
    center=st.sampled_from([None, 0.0, 0.5, "per row"]),
)
def test_blocked_reducer_matches_one_row_at_a_time(seed, genus, layout, center) -> None:
    rng = np.random.default_rng(seed)
    zeros, points = _block_case(rng, layout)
    centers = [center] * points.size
    if center == "per row":  # each row its own centre, real where the points are
        centers = rng.uniform(-1.0, 1.0, points.size) + 1j * rng.uniform(-1.0, 1.0, points.size)
        center = centers = centers.real if layout == "halved" else centers
    with np.errstate(over="ignore", invalid="ignore"):
        blocked = _log_sum(points, zeros, genus, center)
        rows = np.concatenate([_log_sum([s], zeros, genus, c) for s, c in zip(points, centers)])
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

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
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


def _draws(spec, seed: int, count: int, at_center: bool) -> tuple[list[complex], list[complex], float]:
    """A shift identity's points and shift points for a seed, and the batch radius R."""
    rng = np.random.default_rng(seed)
    s_points = identities._draw_points(rng, spec, count, avoid_origin=False)
    if at_center:
        alphas = [complex(spec.center_xi)] * count
    else:
        alphas = identities._draw_points(rng, spec, count, avoid_origin=True)
    return s_points, alphas, max(map(abs, s_points + alphas))


@pytest.mark.parametrize("fixture, at_center", [
    ("sinh_genus1_spec", False),
    ("sinh_line_spec", False),
    ("sinh_line_spec", True),
    ("lbar_spec", False),
    ("lbar_spec", True),
    ("poly_spec", False),
])
def test_batched_shifted_values_match_the_all_zeros_reduction(request, fixture, at_center) -> None:
    # near zeros about alpha plus G(s) - G(alpha) of the far series, against
    # the sums about alpha over every zero (no radius)
    spec = request.getfixturevalue(fixture)
    for seed in range(5):
        s_points, alphas, radius = _draws(spec, seed, 12, at_center)
        zeros, s_alphas, log_s_alphas = product_engine._at_shift_points(spec, alphas, None, radius)
        at_alphas = (zeros, s_alphas, log_s_alphas)
        batched, _ = product_engine._shifted_values(spec, alphas, s_points, *at_alphas, radius)
        whole, _ = product_engine._shifted_values(spec, alphas, s_points, *at_alphas)
        assert np.all(np.abs(batched - whole) <= 1e-14 * np.abs(whole))
        if fixture != "poly_spec":
            assert np.count_nonzero(spec.zero_sequence.moduli > _FAR_RATIO * radius)


def _genus1_spec(kind: str) -> EntireFunctionSpec:
    """Genus-1 specs of 300 zeros: 1 +- ik (L_bar, q = 0.3), +-ik (the u/z of
    each pair cancel exactly) and zeros in no conjugate pair (class L)."""
    taus = interleaved_taus(150)
    if kind == "L_bar":
        return make_symmetric_spec(1.0, taus, 1.0, ClassTag.L_BAR, 0.3)
    k = np.arange(1.0, 301.0)
    zeros = 1j * taus if kind == "pm_ik" else k * np.exp(1j * (0.4 + 0.9 * k))
    seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN)
    return EntireFunctionSpec(class_tag=ClassTag.L, value_at_zero=0.8 + 0.2j, zero_sequence=seq, q_constant=0.2 - 0.1j)


@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("kind", ["L_bar", "pm_ik", "unpaired"])
def test_genus1_shift_stages_match_200_bit_products(kind, far) -> None:
    # the sums of u/z as u R, R = sum 1/z: near zeros exactly, far ones from p_1
    mpmath = pytest.importorskip("mpmath")
    spec = _genus1_spec(kind)
    s_points, alphas, radius = _draws(spec, 6, 8, at_center=False)
    radius = radius if far else None
    if far:
        assert np.count_nonzero(spec.zero_sequence.moduli > _FAR_RATIO * radius)
    at_alphas = product_engine._at_shift_points(spec, alphas, None, radius)
    shifted, _ = product_engine._shifted_values(spec, alphas, s_points, *at_alphas, radius)
    with mpmath.workprec(200):
        for s, value in zip(s_points, shifted.tolist()):
            reference = _mp_product(spec, s, mpmath)
            assert float(abs(mpmath.mpc(value) - reference) / abs(reference)) <= 1e-14
        references = [_mp_product(spec, alpha, mpmath) for alpha in alphas]
        logs = [complex(mpmath.log(r)) for r in references]
        references = [complex(r) for r in references]
    # against the exact S(alpha) the residual measures S(0) prod (1 - alpha/z) and e^(-q alpha - alpha R)
    residuals = product_engine._constant_residuals(spec, alphas, at_alphas[0], references, logs, radius)
    assert max(residuals) <= 1e-14


@pytest.mark.parametrize("kind", ["L_bar", "pm_ik", "unpaired"])
def test_genus1_shift_draw_has_its_bits_alone_and_in_a_batch(kind) -> None:
    spec = _genus1_spec(kind)
    s_points, alphas, radius = _draws(spec, 7, 20, at_center=False)
    batch = product_engine._shift_measures(spec, s_points, alphas, None, radius)
    for j in range(20):
        assert product_engine._shift_measures(spec, [s_points[j]], [alphas[j]], None, radius) == [batch[j]]


@pytest.mark.parametrize("theorem, fixture", [
    ("T1", "sinh_genus1_spec"),
    ("T2", "sinh_line_spec"),
    ("T2", "poly_spec"),
    ("T3", "lbar_spec"),
    ("T4", "sinh_line_spec"),
])
def test_shift_verdicts_over_seeds_are_those_of_all_zeros(request, monkeypatch, theorem, fixture) -> None:
    spec = request.getfixturevalue(fixture)
    batched = [verify_identity(spec, theorem, seed=seed, draws=5) for seed in range(50)]
    original = product_engine._shifted_values
    # the shifted products summed over every zero about alpha, as with no far series
    monkeypatch.setattr(product_engine, "_shifted_values", lambda *args: original(*args[:6]))
    whole = [verify_identity(spec, theorem, seed=seed, draws=5) for seed in range(50)]
    assert [r.passed for r in batched] == [r.passed for r in whole] == [True] * 50
    for b, w in zip(batched, whole):
        (_, b_disagreement), (_, b_residual) = b.quantities
        (_, w_disagreement), (_, w_residual) = w.quantities
        assert b_residual == w_residual and abs(b_disagreement - w_disagreement) <= 1e-14


@pytest.mark.parametrize("fixture", ["sinh_line_spec", "sinh_genus1_spec", "lbar_spec", "poly_spec", "far_line"])
def test_batch_nearest_distances_are_those_of_all_zeros(request, fixture) -> None:
    # only the point evaluators build records, and they read every retained zero;
    # a batch's exact 0, shifted and direct, is where that distance is 0
    if fixture == "far_line":  # no near zero at all
        spec = make_symmetric_spec(1.0, [1e30, -1e30], 1.0)
    else:
        spec = request.getfixturevalue(fixture)
    rng = np.random.default_rng(8)
    s_points, alphas, radius = _draws(spec, 8, 16, at_center=False)
    zeros = spec.zero_sequence.zeros
    line = spec.zero_sequence._line
    if line is not None:  # points on the line read the distances from the imaginary parts
        s_points += [complex(line, y) for y in rng.uniform(-2.0, 2.0, 6)]
    on_zero = [complex(z) for z in zeros[:2] if abs(z) <= radius]
    s_points += on_zero
    measures = product_engine._shift_measures(spec, s_points, alphas[:1] * len(s_points), None, radius)
    for s, (shifted, direct, disagreement, _) in zip(s_points, measures):
        expected = product_engine._nearest(s, zeros)
        assert eval_product(spec, s).nearest_zero_distance == expected
        assert eval_shifted_product(spec, alphas[0], s).nearest_zero_distance == expected
        assert (shifted == 0) == (direct == 0) == (expected == 0)
    assert sum(m[1] == 0 and m[2] == 0 for m in measures) == len(on_zero)
    assert len(on_zero) == {"poly_spec": 1, "far_line": 0}.get(fixture, 2)
    for z in on_zero:  # the batch's shift-point guard refuses a retained zero
        with pytest.raises(ValueError, match="coincides"):
            product_engine._at_shift_points(spec, [z], None, radius)


@pytest.mark.parametrize("zero, refused", [(1.1e-12, True), (1.3e-12, False)])
def test_shift_point_guard_below_the_near_rule(zero, refused) -> None:
    # R = 2e-13 < 1e-12: the zero lies beyond 4R yet may be within 1e-12 (1 + |alpha|)
    # of alpha, so the guard reads every zero
    seq = ZeroSequence(zeros=np.array([zero + 0j]), ordering=Ordering.AS_GIVEN)
    spec = EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=seq)
    assert zero > _FAR_RATIO * 2e-13
    if refused:
        with pytest.raises(ValueError, match="coincides"):
            product_engine._at_shift_points(spec, [2e-13], None, 2e-13)
    else:
        product_engine._at_shift_points(spec, [2e-13], None, 2e-13)


def test_shifted_stage_is_one_reduction_with_no_records(monkeypatch, sinh_genus1_spec) -> None:
    # the 20 draws' sums about their own alphas in one reducer call; no stage builds a record
    calls, records = [], []
    _spy(monkeypatch, product_engine, "_log_sum", calls)
    original = product_engine.TruncatedEvaluation

    def record(**fields):
        records.append(fields)
        return original(**fields)

    monkeypatch.setattr(product_engine, "TruncatedEvaluation", record)
    assert verify_identity(sinh_genus1_spec, "T1", draws=20).passed
    recentred = [args for args, _ in calls if len(args) == 4]
    assert len(recentred) == 1 and np.size(recentred[0][0]) == np.size(recentred[0][3]) == 20
    assert records == []


def _draws_over_every_zero(rng, spec, count: int, avoid_origin: bool) -> list[complex]:
    """``identities._draw_points`` as it was, testing each draw against every zero."""
    zeros = spec.zero_sequence.zeros
    points: list[complex] = []
    while len(points) < count:
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if avoid_origin and abs(z) < 1e-2:
            continue
        if product_engine._nearest(z, zeros) < 1e-2:
            continue
        points.append(z)
    return points


def test_fixed_seeds_draw_the_points_they_drew_before(sinh_line_spec, sinh_genus1_spec) -> None:
    # a grid of zeros at spacing 0.05 over the box and out to |z| = 3.5 rejects about
    # one draw in eight
    grid = np.arange(-3.5, 3.5001, 0.05)
    zeros = (grid[:, None] + 1j * grid[None, :]).ravel()
    dense = EntireFunctionSpec(
        class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN)
    )
    for spec in (sinh_line_spec, sinh_genus1_spec, dense):
        for seed in range(10):
            for avoid_origin in (False, True):
                drawn = identities._draw_points(np.random.default_rng(seed), spec, 30, avoid_origin)
                assert drawn == _draws_over_every_zero(np.random.default_rng(seed), spec, 30, avoid_origin)


# One CLI run of each batch command on the conftest fixtures, written as spec files.
_BUDGET_RUNS = {
    "line": ("line", "line", "--x-min", "0.5", "--x-max", "3.5", "--samples", "40"),
    "scan": ("scan", "line", "--x-min", "0.5", "--x-max", "3.5", "--samples", "40"),
    "mult": ("mult", "line", "--center", "1+3i", "--radius", "0.3", "--nodes", "64"),
    "order": ("order", "line", "--v-min", "2", "--v-max", "40", "--radii", "6", "--angular-samples", "16"),
    "T1": ("verify-identity", "genus1", "--theorem", "T1", "--seed", "3", "--draws", "5"),
    "T2": ("verify-identity", "line", "--theorem", "T2", "--seed", "4", "--draws", "5"),
    "T3": ("verify-identity", "lbar", "--theorem", "T3", "--seed", "2", "--draws", "5"),
    "T4": ("verify-identity", "line", "--theorem", "T4", "--seed", "4", "--draws", "5"),
    "T6": ("verify-identity", "lbar", "--theorem", "T6", "--x-min", "14.8", "--x-max", "16.3", "--samples", "24"),
    "T7": ("verify-identity", "line", "--theorem", "T7", "--x-min", "13.8", "--x-max", "15.3", "--samples", "48"),
    "T8": ("verify-identity", "line", "--theorem", "T8", "--x-min", "0.5", "--x-max", "3.5", "--samples", "40"),
    # the first eight of the twelve zeros in the window, 1 +- ik for k <= 4, each on a circle of radius 0.4
    "T9": ("verify-identity", "lbar", "--theorem", "T9", "--x-min", "-6.5", "--x-max", "6.5"),
}


@pytest.fixture(scope="module")
def budget_specs(tmp_path_factory, sinh_line_spec, sinh_genus1_spec, lbar_spec) -> dict[str, str]:
    from entirefn.cli import write_spec_file

    out = tmp_path_factory.mktemp("budget")
    specs = {"line": sinh_line_spec, "genus1": sinh_genus1_spec, "lbar": lbar_spec}
    for name, spec in specs.items():
        write_spec_file(out / f"{name}.spec", spec)
    return {name: str(out / f"{name}.spec") for name in specs}


@pytest.mark.parametrize("run", list(_BUDGET_RUNS))
def test_each_batch_command_builds_one_far_field(budget_specs, monkeypatch, run) -> None:
    # every CLI run loads its spec afresh: its far cache starts empty
    from entirefn import critical_line
    from entirefn.cli import run_command

    command, spec, *options = _BUDGET_RUNS[run]
    builds, points = [], []
    _spy(monkeypatch, product_engine, "_far_sums", builds)
    _spy(monkeypatch, critical_line, "eval_product", points)
    report = run_command((command, "--spec", budget_specs[spec], *options))
    assert report.exit_code == 0 and report.errors == ()
    assert len(builds) <= 1
    if run == "T7":  # V(0) from the profile, the even form from the literal product's logs
        assert points == []


def test_line_forms_build_no_offset_sequence(budget_specs, monkeypatch) -> None:
    # T6/T7 read the spec's own zeros and pair table: no sequence of offsets i tau
    from entirefn import core_types
    from entirefn.cli import load_spec_file

    for name, theorem in (("line", "T7"), ("lbar", "T6")):
        spec, _ = load_spec_file(budget_specs[name])
        sizes, tables = [], []
        original = core_types.ZeroSequence.__post_init__
        monkeypatch.setattr(core_types.ZeroSequence, "__post_init__", lambda seq: sizes.append(len(seq)) or original(seq))
        _spy(monkeypatch, product_engine, "_conjugate_pairs", tables)
        assert verify_identity(spec, theorem, x_min=13.8, x_max=15.3, samples=48).passed
        monkeypatch.undo()
        assert sizes == []
        assert len({id(pairs) for _, pairs in tables}) == 1


def test_t8_audits_take_the_profile_far_field(monkeypatch) -> None:
    # fresh spec: the profile (radius 4.03, near taus up to 16) builds the one far
    # field, and the contour about 1 + 3i (|c| + r = 3.56: up to 14) reads it too
    spec = make_symmetric_spec(1.0, interleaved_taus(3000), 1.0)
    calls = []
    _spy(monkeypatch, product_engine, "_far_sums", calls)
    result = verify_identity(spec, "T8", x_min=2.57, x_max=3.9, samples=32)
    assert result.quantities == (("audited_zeros", 1), ("winding[0]", 1)) and result.passed
    assert len([far for (far,), _ in calls if far.size]) == 1


@pytest.mark.parametrize("offset", [0.5, 2.5, -7.25])
def test_residual_on_the_zero_line_takes_the_pair_kernel(lbar_spec, monkeypatch, offset) -> None:
    # the left side S(0) prod (1 - alpha/z) at alpha = xi + i x is a genus-0
    # product on the line: one real log per pair, real where S(0) is
    alpha = complex(lbar_spec.center_xi, offset)
    calls, kernel = [], product_engine._conjugate_log_sum

    def spy(*args, real=False):
        calls.append(real)
        return kernel(*args, real=real)

    monkeypatch.setattr(product_engine, "_conjugate_log_sum", spy)
    assert shift_constant_residual(lbar_spec, alpha) <= 1e-14
    radius = abs(alpha)
    zeros, s_alpha, log_s_alpha = product_engine._at_shift_points(lbar_spec, [alpha], None, radius)
    (residual,) = product_engine._internal_residuals(lbar_spec, [alpha], zeros, s_alpha, log_s_alpha, radius)
    assert residual <= 1e-14
    assert calls.count(True) == 2


def test_genus1_line_profile_with_every_zero_far() -> None:
    # a genus-1 product on its line is not real: with every retained zero in
    # the far series, the profile keeps the phase of q s and of that series
    spec = make_symmetric_spec(1.0, 100.0 * interleaved_taus(40), 1.0, class_tag=ClassTag.L_BAR, q_constant=0.3)
    profile = critical_line_profile(spec, -5.0, 5.0, 41)
    assert np.abs(profile.grid).max() * _FAR_RATIO < spec.zero_sequence.moduli.min()
    for x, value in zip(profile.grid.tolist(), profile.values.tolist()):
        expected = eval_product(spec, complex(1.0, x)).value
        assert abs(value - expected) <= 1e-13 * abs(expected), x


# Conjugate pairs in far-field batches: one log of 1 - w' per pair (the product
# of the pair's two factors), w' = s (2 Re z - s)/|z|^2.


def _paired_zeros(line: float, anchors=(1e21, 1e22)) -> np.ndarray:
    """line +- ik for k <= 400, and the anchor pairs line +- i a, adjacent pairs, ascending."""
    taus = [t for k in [*range(1, 401), *anchors] for t in (float(k), -float(k))]
    return np.array([complex(line, t) for t in taus])


def _reference_log_modulus(zeros: np.ndarray, s: complex, genus: int, mpmath) -> float:
    """log |prod (1 - s/z) e^(genus s/z)| at 400 bits."""
    with mpmath.workprec(400):
        s_mp, total = mpmath.mpc(s), mpmath.mpf(0)
        for z in zeros.tolist():
            w = s_mp / mpmath.mpc(z)
            total += mpmath.log(abs(1 - w)) + (genus * w.real)
        return total


@pytest.mark.parametrize("case", ["genus-1 pairs", "genus-0 line", "genus-0 pairs off the line"])
def test_paired_batch_logs_match_400_bit_products(case) -> None:
    # ROADMAP item 8 for far-field batches on paired sets.  It stays open for
    # single points: eval_product has no far set and keeps the per-factor
    # kernel, whose genus-1 terms lose log |S| far out.
    mpmath = pytest.importorskip("mpmath")
    if case == "genus-0 line":
        seq = make_symmetric_spec(1.0, _paired_zeros(1.0).imag, 1.0).zero_sequence
        genus = 0
    else:
        genus = 1 if case == "genus-1 pairs" else 0
        seq = ZeroSequence(zeros=_paired_zeros(0.0 if genus == 0 else 1.0), ordering=Ordering.AS_GIVEN)
    spec = EntireFunctionSpec(
        class_tag=ClassTag.L if genus else ClassTag.Y, value_at_zero=1.0, zero_sequence=seq, q_constant=0j,
    )
    for y in (50.5, 1e5, 1e10, 1e15, 1e20):
        s = complex(1.0, y)
        assert np.count_nonzero(seq.moduli > _FAR_RATIO * abs(s))  # a far series in every batch
        if case == "genus-0 line":  # the line route's batch, on the spec's own zero sequence
            logs, _ = product_engine._log_sums(seq, 0, 0j, [s], len(seq), abs(s))
        else:
            _, logs = _eval_batch(spec, [s], len(seq), abs(s))
        reference = _reference_log_modulus(seq.zeros, s, genus, mpmath)
        error = float(abs(mpmath.mpf(float(logs[0].real)) - reference))
        assert error <= 4e-15 * max(1.0, abs(float(reference))), (y, error)


@pytest.mark.parametrize("genus", [0, 1])
def test_paired_batch_is_exactly_zero_at_a_retained_pair(genus) -> None:
    zeros = _paired_zeros(0.5)
    seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN)
    spec = EntireFunctionSpec(
        class_tag=ClassTag.L if genus else ClassTag.Y, value_at_zero=0.8 + 0.2j, zero_sequence=seq,
        q_constant=0.3 if genus else 0j,
    )
    points = [0.5 + 3j, 0.4 + 3j, 0.5 - 3j, 0.5 + 2.999999999j]
    values, logs = _eval_batch(spec, points, len(seq), 4.0)
    assert values[0] == values[2] == 0 and logs[0].real == logs[2].real == -math.inf
    assert np.all(np.isfinite(logs[[1, 3]])) and np.all(values[[1, 3]] != 0)


def _per_factor(monkeypatch, spec, points, radius):
    """The batch with every near set taken as unpaired: one log per factor."""
    with monkeypatch.context() as patch:
        patch.setattr(product_engine, "_batch_pairs", lambda seq, near, radius: None)
        return _eval_batch(spec, points, len(spec.zero_sequence), radius)


@pytest.mark.parametrize("case", ["lone real zero", "duplicated layout", "past the pair range"])
def test_unpaired_near_sets_keep_the_per_factor_bits(monkeypatch, case) -> None:
    far = [1e6 + 1e6j, 1e6 - 1e6j]
    if case == "lone real zero":
        zeros = [2.0, 1 + 1j, 1 - 1j, *far]
    elif case == "duplicated layout":  # +tau, +tau, -tau, -tau, as duplicated.spec lists them
        zeros = [1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j, *far]
    else:  # |s| beyond 2^255 times the tiny pair's power of two
        zeros = [1e-100 + 1e-100j, 1e-100 - 1e-100j, *far]
    seq = ZeroSequence(zeros=np.array(zeros), ordering=Ordering.AS_GIVEN)
    points = [0.3 + 1.7j, -2.0 + 0.5j, 2.5, 1.0 - 2.0j]
    for genus in (0, 1):
        spec = EntireFunctionSpec(
            class_tag=ClassTag.L if genus else ClassTag.Y, value_at_zero=1.0, zero_sequence=seq,
            q_constant=0.2 if genus else 0j,
        )
        calls = []
        _spy(monkeypatch, product_engine, "_conjugate_log_sum", calls)
        values, logs = _eval_batch(spec, points, len(seq), 3.0)
        monkeypatch.undo()
        assert bool(calls) == (case == "past the pair range")
        plain_values, plain_logs = _per_factor(monkeypatch, spec, points, 3.0)
        assert values.tobytes() == plain_values.tobytes() and logs.tobytes() == plain_logs.tobytes()


def test_paired_batches_take_the_pair_kernel(monkeypatch, sinh_genus1_spec, lbar_spec) -> None:
    # and stay within rounding of the per-factor batches
    rng = np.random.default_rng(26)
    points = rng.uniform(-6.0, 6.0, 40) + 1j * rng.uniform(-6.0, 6.0, 40)
    for spec in (sinh_genus1_spec, lbar_spec):
        calls = []
        _spy(monkeypatch, product_engine, "_conjugate_log_sum", calls)
        _, logs = _eval_batch(spec, points, len(spec.zero_sequence), 9.0)
        monkeypatch.undo()
        assert len(calls) == 1
        _, plain = _per_factor(monkeypatch, spec, points, 9.0)
        assert np.all(np.abs(logs.real - plain.real) <= 1e-13 * (1.0 + np.abs(plain.real)))


@pytest.mark.parametrize("genus", [0, 1])
def test_paired_batch_of_huge_zeros(monkeypatch, genus) -> None:
    # pairs near 1e250: the pair range 2^(255 + e) would pass the double range, and is capped
    zeros = np.array([1e250 + 2e250j, 1e250 - 2e250j, 3e250 + 1e249j, 3e250 - 1e249j, 1e305 + 1e305j, 1e305 - 1e305j])
    seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN)
    spec = EntireFunctionSpec(class_tag=ClassTag.L if genus else ClassTag.Y, value_at_zero=1.0, zero_sequence=seq)
    points = [2e250 + 1e250j, -4e250, zeros[2]]
    _, logs = _eval_batch(spec, points, len(seq), 5e250)
    _, plain = _per_factor(monkeypatch, spec, points, 5e250)
    assert logs[2].real == plain[2].real == -math.inf
    assert np.all(np.abs(logs[:2] - plain[:2]) <= 1e-13 * (1.0 + np.abs(plain[:2])))


@pytest.mark.parametrize("fixture", ["sinh_line_spec", "sinh_genus1_spec", "lbar_spec"])
def test_log_derivative_takes_one_term_per_pair(request, fixture) -> None:
    mpmath = pytest.importorskip("mpmath")
    spec = request.getfixturevalue(fixture)
    n = 200
    zeros = spec.zero_sequence.zeros[:n]
    for s in (0.3 + 2.2j, 1.0 + 7.5j, -4.0 - 0.1j, 150.0 + 3.0j):
        value = log_derivative(spec, s, n)
        with mpmath.workprec(200):
            s_mp = mpmath.mpc(s)
            exact = sum(1 / (s_mp - mpmath.mpc(z)) + spec.genus / mpmath.mpc(z) for z in zeros.tolist())
            exact += mpmath.mpc(spec.q_constant) if spec.genus else 0
        scale = float(np.sum(1.0 / np.abs(s - zeros)))
        assert abs(value - complex(exact)) <= 1e-15 * scale
    # on a new sequence: the table spans only the pairs read, built once, and grows on demand
    seq = ZeroSequence(zeros=spec.zero_sequence.zeros)
    log_derivative(replace(spec, zero_sequence=seq), 0.3 + 2.2j, n)
    pairs = seq._conjugate_cache
    assert pairs is not None and pairs.count == pairs.covered == n // 2
    assert product_engine._conjugate_pairs(seq, n // 2) is pairs
    grown = product_engine._conjugate_pairs(seq, n // 2 + 1)
    assert grown.count == 2 * pairs.count and grown.z[: n // 2].tobytes() == pairs.z.tobytes()


def test_one_line_sequence_builds_one_pair_table(monkeypatch) -> None:
    # a line profile, a far-field batch off the line, log_derivative and a line point's
    # distance on one line sequence read the one table that the profile's first use builds
    spec = make_symmetric_spec(1.0, interleaved_taus(500), 1.0)
    seq = spec.zero_sequence
    assert not hasattr(seq, "_pair_cache")
    built, table, kernels = [], product_engine._ConjugatePairs, []
    monkeypatch.setattr(product_engine, "_ConjugatePairs", lambda *parts: built.append(table(*parts)) or built[-1])
    _spy(monkeypatch, product_engine, "_conjugate_log_sum", kernels)
    assert critical_line_profile(spec, -10.0, 10.0, 41).imag_max == 0.0
    line_kernels = len(kernels)
    _eval_batch(spec, [0.3 + 1.7j, 2.0 - 0.5j], len(seq), 5.0)
    assert line_kernels >= 1 and len(kernels) == line_kernels + 1
    s = 0.3 + 2.2j
    assert log_derivative(spec, s) == pytest.approx(complex_sum(1.0 / (s - seq.zeros)), rel=1e-13)
    point = complex(1.0, 17.25)
    assert product_engine._nearest(point, seq.zeros, seq) == float(np.abs(point - seq.zeros).min())
    assert len(built) == 1 and seq._conjugate_cache is built[0]
    assert built[0].count == built[0].covered == len(seq) // 2 and built[0].closed[len(seq)]


def test_pair_table_grows_only_where_a_reader_can_gain() -> None:
    # off a line, a table whose adjacent run ended is final; on a line whose first
    # zeros are the +tau, +tau, -tau, -tau of a double zero, it grows for closed
    unpaired = ZeroSequence(zeros=np.array([1 + 1j, 2 + 1j, 1 - 1j, 2 - 1j] * 4), ordering=Ordering.AS_GIVEN)
    first = product_engine._conjugate_pairs(unpaired, 1)
    assert first.count == 0 and product_engine._conjugate_pairs(unpaired, 8) is first
    line = make_symmetric_spec(1.0, [1.0, 1.0, -1.0, -1.0, 2.0, -2.0, 3.0, -3.0], 1.0).zero_sequence
    first = product_engine._conjugate_pairs(line, 1)
    assert first.count == 0 and not first.closed[2]
    grown = product_engine._conjugate_pairs(line, 4)
    assert grown is not first and grown.count == 0 and grown.closed[[4, 6, 8]].all()


def test_log_derivative_of_unpaired_zeros_keeps_one_term_per_factor(poly_spec, duplicated_zero_spec) -> None:
    for spec, s in ((poly_spec, 0.7 + 0.2j), (duplicated_zero_spec, 0.5 + 0.3j)):
        zeros = spec.zero_sequence.zeros
        assert product_engine._conjugate_pairs(spec.zero_sequence, len(zeros) // 2).count == 0
        assert log_derivative(spec, s) == complex_sum(1.0 / (s - zeros))
    # a pair sum past the double range falls back to the factors' terms, and so
    # does a pair product past it, which would make a finite term 0
    for zeros, s in (([1 + 1j, 1 - 1j], 3e200 + 1e200j), ([3e300 + 4e300j, 3e300 - 4e300j], 0j)):
        seq = ZeroSequence(zeros=np.array(zeros), ordering=Ordering.AS_GIVEN)
        spec = EntireFunctionSpec(class_tag=ClassTag.Y, value_at_zero=1.0, zero_sequence=seq)
        assert log_derivative(spec, s) == complex_sum(1.0 / (s - seq.zeros)) != 0


def _plain_far_sums(far: np.ndarray) -> tuple[float, int, list[tuple[str, str]]]:
    """(c, K, bits of each p_m) by the plain loops: the chained degree products,
    and every power of the whole far set summed by complex_sum."""
    moduli = np.abs(far)
    smallest = float(moduli.min())
    scale = math.ldexp(1.0, math.frexp(smallest)[1] - 1)
    ratio = smallest / (_FAR_RATIO * moduli)
    bound, degree = ratio / (1.0 - ratio), 0
    while True:
        degree += 1
        bound = bound * ratio
        if float(np.sum(bound)) / (degree + 1) < _FAR_TOLERANCE:
            break
    base = scale / far
    power, sums = base, []
    for m in range(1, degree + 1):
        power = power * base if m > 1 else power
        total = complex_sum(power)
        sums.append((total.real.hex(), total.imag.hex()))
    return scale, degree, sums


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.sampled_from([1, 2, 40, 700, 3000]),
    layout=st.sampled_from(["paired", "unpaired", "unsorted", "imaginary"]),
    spread=st.floats(min_value=1.5, max_value=200.0),
)
def test_far_sums_match_the_plain_loops(seed, size, layout, spread) -> None:
    rng = np.random.default_rng(seed)
    moduli = np.sort(rng.uniform(1.0, spread, size)) * 10.0 ** rng.uniform(-3.0, 3.0)
    angles = rng.uniform(-math.pi, math.pi, size)
    if layout == "imaginary":
        angles = np.where(rng.random(size) < 0.5, math.pi / 2, -math.pi / 2)
    far = moduli * np.exp(1j * angles)
    if layout in ("paired", "imaginary"):
        far = np.repeat(far[: (size + 1) // 2], 2)
        far[1::2] = np.conj(far[0::2])
        if layout == "imaginary":
            far.real = 0.0
    elif layout == "unsorted":
        far = rng.permutation(far)
    scale, sums = _far_sums(far)
    assert (scale, sums.size, [(p.real.hex(), p.imag.hex()) for p in sums.tolist()]) == _plain_far_sums(far)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_far_build_peak_memory(sinh_line_spec) -> None:
    """One far build (the 1e4-zero line at R = 30) holds at most five arrays the
    size of the far set: 780960 bytes, below the 789_822 of the per-power sums
    before the multi-row pass and above its 582_696 (numpy 2.4)."""
    seq = sinh_line_spec.zero_sequence
    far = seq.zeros[seq.moduli > _FAR_RATIO * 30.0].copy()
    _far_sums(far)  # first calls allocate numpy's caches
    assert _traced_peak(lambda: _far_sums(far)) <= 5 * far.nbytes


def test_ring_batch_peak_memory(sinh_genus1_spec) -> None:
    """A batch of 16384 ring points at |s| = 20 over 2000 conjugate pairs +-ik at
    genus 1 holds at most four arrays the size of the batch and BLOCK complex
    temporaries: 1.5 MiB, above the 1_415_727 bytes of the per-row rounding
    and the 1_392_615 of the multi-row one, below the 1.85 MB that blocks of
    8192 entries took (numpy 2.4)."""
    seq = sinh_genus1_spec.zero_sequence
    points = 20.0 * np.exp(2j * np.pi * np.arange(16384) / 16384)
    product_engine._log_sums(seq, 1, 0j, points[:4], len(seq), 20.0)  # the far sums, cached
    peak = _traced_peak(lambda: product_engine._log_sums(seq, 1, 0j, points, len(seq), 20.0))
    assert peak <= 4 * points.nbytes + 16 * BLOCK
