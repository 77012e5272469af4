"""Truncated canonical products, recentered products, and log-derivatives.

Evaluation strategy
-------------------
Products are accumulated in the log domain and exponentiated once.  One
vectorised factor kernel, ``_log_factors``, gives log(1 - w) at genus 0 and
the fused log(1 - w) + w at genus 1, for w = s/z_k:

    Im    atan2(-Im w, 1 - Re w), the principal branch
    Re    1/2 log1p(Re w (Re w - 2) + (Im w)^2) where Re w < 1/2 and
          |w| < 1, log hypot(1 - Re w, Im w) elsewhere
    genus 1 with |w| <= 1/2: -2 atanh(t) + w with t = w/(2 - w), as a
          fixed-degree series in t^2 (|t| <= 1/3)

so small factors keep full relative accuracy and factors near a zero full
absolute accuracy.  ``_log_sum``, the one reducer, rounds each point's row
to its own exact sums, block by block: a point's sum has the same bits in
any batch, order or run.

Batches of points (line profiles, max-modulus rings, winding contours, the
line-form identities, and each stage of the shift identities: S(alpha),
the shifted and direct values, the constant residuals) split the zeros at
|z| = 4R, R >= max |s|: near zeros go through the reducer, far zeros
through their power sums p_m = sum z^-m:

    sum_far log(1 - s/z)    = -sum_{m>=1} p_m s^m / m  =: G(s)
    sum_far 1/(s - z) (S'/S) = -sum_{m>=1} p_m s^(m-1)

with the m = 1 term dropped at genus 1.  Sums recentred at alpha take
G(s) - G(alpha) (``_log_sums``).  p_1..p_K are exact sums, cached on the
zero sequence per (N, near count) (``_far_sums``).  A batch gives values
and logs; only the point evaluators (``eval_product``,
``eval_shifted_product``) build records.  Single-point calls (those two and
``log_derivative``) are the case with no far zeros.

A genus-1 product is the genus-0 one times e^((q + R) s), R = sum 1/z over
the retained zeros (``_reciprocal_sum``: the near zeros' exact sum plus the
far ones' p_1); the shifted products and constant residuals take each sum
of u/z as u R.  For accuracy three forms keep one term per factor: the
fused genus-1 factor log, ``log_derivative``'s brackets and the g_1 of
``series_engine.taylor_coefficients``.

One term per conjugate pair
---------------------------
A pair's factors multiply to one quadratic factor, (1 - s/z)(1 - s/conj z)
= 1 - w', w' = s (2 Re z - s)/|z|^2, times e^(2 s Re z/|z|^2) at genus 1,
and its two terms of S'/S add to 2 (s - Re z)/((s - z)(s - conj z)).  One
table per sequence (``_ConjugatePairs``) pairs the zeros.  One term per pair
is taken by far-field batches whose near zeros open with adjacent pairs
(``_conjugate_log_sum``), by genus-0 points xi + i x, x != 0, on the line of
a line sequence whose retained and near zeros close pairs (its real mode:
each 1 - w' is real there; also the line products of ``critical_line``, at
i x over the offsets +-i tau, ``_offset_pairs``), and by ``log_derivative``.

One term per factor stays for the direct paths off the line (``eval``,
``shift``, the inversion at xi when a spec loads), for s = xi and genus 1 on
the line, for near sets that are not closed pairs, and past the pair range.
The direct paths keep their bits on purpose: the values that set the
benchmark's ``err_max`` come from them, and a point evaluator's value should
not hang on how a batch was cut.  The genus-1 single-point kernel still
loses log |S| far out (ROADMAP item 8); a batch's pair logs do not.

Only |exp(...)| and per-factor phases are contractually meaningful: summed
imaginary parts are not unwound to a continuous branch.  Every value comes
from its log through ``_value_from_log``.  It is exactly 0 iff s == z for a
retained z (``_log_sum``), never by a rounded factor; every other on-a-zero
test reads one distance, min |s - z| (``_nearest``).
"""

from __future__ import annotations

import cmath
import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from ._numeric import BLOCK, ExactSum, complex_sum, complex_totals, exact_power_sums
from ._numeric import _conjugate_half, _doubles_exactly, _mirrored
from .core_types import _LOG_DOUBLE_MAX, EntireFunctionSpec, Ordering, Pairing, ZeroSequence

__all__ = [
    "TruncatedEvaluation",
    "eval_product",
    "eval_shifted_product",
    "shift_constant_residual",
    "log_derivative",
]

# A point counts as "near" a retained zero within this relative distance.
NEAR_ZERO_COEFF = 1e-9
# Coincidence threshold for hard guards (shift point / pole detection).
COINCIDENT_RELATIVE = 1e-12
# 1/(2k+3) for k = 14, ..., 0: the atanh series of log(1 - w) + w in t^2,
# highest degree first.  For |t| <= 1/3 the omitted terms are at most
# 2|t|^33/(33 (8/9)) and |log(1 - w) + w| >= 1.25|t|^2, so their ratio stays
# below 1e-16.  As complex 0-d arrays numpy adds them with no conversion.
_ATANH_COEFFS = tuple(np.array(c) for c in 1.0 / np.arange(31.0, 2.0, -2.0) + 0j)
# A batch with |s| <= R takes the zeros beyond _FAR_RATIO * R from their
# power sums, truncated where the remainder bound falls below _FAR_TOLERANCE.
_FAR_RATIO = 4.0
_FAR_TOLERANCE = 1e-17
_BLOCK_ELEMENTS = 1 << 12  # (point, zero) pairs per block of _log_sum: small temporaries
_PAIR_BLOCK = 1 << 14  # (point, pair) entries per block of _conjugate_log_sum
_PHASES = np.array([0.0, math.pi])  # the logs' imaginary parts of a positive and a negative real product
# log_derivative's pair sums stay in the double range below this |s| and |z| (_ConjugatePairs)
_PAIR_REACH = 2.0**500


def _value_from_log(exponent: complex, scale: complex = 1.0, log_scale: complex = 0j) -> complex:
    """scale * exp(exponent), the one rule from a product's log to its value.

    ``log_scale`` is log(scale).  Real part -inf is the exact 0 at a retained
    zero.  A modulus past the double range is an infinity with the log's
    phase; where the scale is real and the exponent's imaginary part is 0,
    it is the real +-inf of the scale's sign, imaginary part 0.  Otherwise,
    where scale * exp(exponent) is 0 or not finite, the value is exp of the
    full log, so an underflow comes back into range.  A NaN part or an
    infinite imaginary part (terms past the double range) is a ValueError.
    """
    if exponent.real == -math.inf:
        return 0j
    if math.isnan(exponent.real) or not math.isfinite(exponent.imag):
        raise ValueError(f"product log {exponent!r} has no phase: its terms pass the double range")
    log = log_scale + exponent
    # cmath.exp can return finite parts whose modulus is past the double range
    if log.real >= _LOG_DOUBLE_MAX:
        if not (exponent.imag or scale.imag):  # rect(inf, pi) would give -inf + inf j
            return complex(math.copysign(math.inf, scale.real), 0.0)
        return cmath.rect(math.inf, log.imag)
    try:
        value = scale * cmath.exp(exponent)
    except OverflowError:
        value = 0j
    return value if cmath.isfinite(value) and value != 0 else cmath.exp(log)


def _horner(x: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] x^(K - k), highest degree first, elementwise by Horner's rule.

    Every product is array by array, and a lone element is not multiplied
    in place: numpy does that without its fused multiply-adds, so an
    element's bits would hang on the call.
    """
    acc = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        acc = np.multiply(acc, x, acc if acc.size > 1 else None)
        acc += c
    return acc


def _log_tail(w: np.ndarray) -> np.ndarray:
    """log(1 - w) + w for |w| <= 1/2, as -t (w + 2 t^2 sum_k t^(2k)/(2k+3)).

    With t = w/(2 - w), 1 - w = (1 - t)/(1 + t), so log(1 - w) = -2 atanh t
    and |t| <= 1/3: one fixed Horner degree in t^2 serves every element.
    """
    t = w / (2.0 - w)
    t2 = t * t
    return -t * (w + 2.0 * t2 * _horner(t2, _ATANH_COEFFS))


def _log_factors(w, genus: int, phase: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Real and imaginary parts of log(1 - w) (genus 0) or log(1 - w) + w (genus 1).

    Elementwise over a 1-d array of w = s/z.  The imaginary part is the
    principal argument of 1 - w (plus Im w at genus 1); None without
    ``phase``, where the real part is formed the same way.  At w == 1 the real
    part is -inf.  At genus 1, |w| <= 1/2 takes the fixed-degree atanh
    series of ``_log_tail`` in place of both parts.  The genus-1 w stays in
    each factor, not in one s R: the series keeps log(1 - w) + w, about
    -w^2/2, to full relative accuracy where the two parts cancel.
    """
    if genus not in (0, 1):
        raise ValueError(f"factor genus must be 0 or 1, got {genus}")
    w = np.asarray(w, dtype=np.complex128)
    a, b = w.real, w.imag
    # both branches of every switch are evaluated; only the chosen one is kept
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r2 = a * a + (b2 := b * b)
        one_minus = 1.0 - a
        imag = np.arctan2(-b, one_minus) if phase else None
        real = 0.5 * np.log1p(a * (a - 2.0) + b2)
        far = ((a >= 0.5) | (r2 >= 1.0)).nonzero()[0]
        real[far] = np.log(np.hypot(one_minus[far], b[far]))
        if genus == 1:
            real += a
            series = (r2 <= 0.25).nonzero()[0]
            tail = _log_tail(w[series])
            real[series] = tail.real
            if phase:
                imag += b
                imag[series] = tail.imag
    return real, imag


def _log_sum(points, zeros: np.ndarray, genus: int, center: complex | np.ndarray | None = None) -> np.ndarray:
    """Exactly rounded sums of the factor logs at w = (s - c)/(z - c), one per point s.

    ``center`` is c: None (w = s/z), one point, or one per point; a row's
    w is the same elementwise operation in each form.  Blocks of rows of
    about _BLOCK_ELEMENTS (point, zero) pairs, a longer row alone in column
    blocks of BLOCK zeros, each take one ``_log_factors`` call; each row
    adds to its own exact sums.  Real part -inf (an exact 0) iff s equals
    some z.  At s != z a w that rounds to 1, or at genus 0 passes the double
    range, takes log(z - s) - log(z - c), plus genus, instead.  Raises
    ValueError when a sum passes the double range.

    With every s and c real, a block whose w lists conjugate pairs
    (``_conjugate_half``) runs the kernel on one member of each: its real
    part is even in Im w and its imaginary part odd, so each row adds twice
    the real parts and nothing to its imaginary sum, the full row's exact
    sums.  There the kernel forms no imaginary part: it is finite where the
    real part is, and mirrored parts cancel exactly.  A half whose real
    parts fail ``_doubles_exactly`` takes the full block.
    """
    points = np.asarray(points, dtype=np.complex128).reshape(-1)
    on_axis = not np.count_nonzero(points.imag)
    if center is not None:
        center = np.broadcast_to(np.asarray(center, dtype=np.complex128), points.shape)[:, None]
        on_axis = on_axis and not np.count_nonzero(center.imag)
    step = max(1, _BLOCK_ELEMENTS // max(zeros.size, 1))
    sums = np.empty(points.size, dtype=np.complex128)
    for first in range(0, points.size, step):
        s = points[first : first + step, None]
        c = None if center is None else center[first : first + step]
        real, imag, dead = ExactSum(len(s)), ExactSum(len(s)), np.zeros(len(s), dtype=bool)
        for start in range(0, zeros.size, BLOCK):
            z = zeros[start : start + BLOCK]
            if np.count_nonzero(hit := z == s):
                dead |= hit.any(axis=1)
            w = s / z if c is None else (s - c) / (z - c)
            half = _conjugate_half(w) if on_axis else None
            if half is not None:
                log_real = _log_factors(half.ravel(), genus, phase=False)[0]
                if _doubles_exactly(log_real):
                    real.add(2.0 * log_real)
                    continue
            log_real, log_imag = _log_factors(w.ravel(), genus)
            stray = np.isinf(log_real) if genus == 0 else log_real == -math.inf
            if np.count_nonzero(stray):
                row, col = np.divmod(flat := np.flatnonzero(stray & ~hit.ravel()), z.size)
                exact = np.log(z[col] - s[row, 0]) - np.log(z[col] if c is None else z[col] - c[row, 0])
                log_real[flat], log_imag[flat] = exact.real + genus, exact.imag
            real.add(log_real)
            imag.add(log_imag)
        rows = sums[first : first + len(s)]
        rows[dead] = -math.inf
        try:
            rows[~dead] = complex_totals(real, imag, ~dead if dead.any() else None)
        except OverflowError:
            raise ValueError("the sum of the factor logs passes the double range") from None
    return sums


@dataclass(frozen=True, eq=False)
class _ConjugatePairs:
    """The conjugate pairs that open a sequence's zeros, over its first 2 covered.

    Pair j is the j-th zero with Im z >= +0 and the j-th with Im z <= -0 (by
    sign bit) while they mirror (``_numeric._mirrored``), so a run of equal
    moduli pairs in any layout.  ``closed[j]``: the first j zeros are the
    first j/2 pairs, Im z ascending.  ``count``: the pairs that open the
    zeros adjacent, each zero next to its conjugate (first members ``z``,
    second ``conj``), the only ones far-field batches and ``log_derivative``
    read.  Per pair, 2^e the power of two of the larger part of z: ``scale``
    2^-e, ``a`` and ``b`` the parts of z 2^-e (Im z >= +0), ``d`` a^2 + b^2,
    ``minus_a2`` -a^2 and ``tau`` Im z; ``limit[k]``, the pair range of the
    first k + 1 pairs, is 2^(255 + e) for their least e (2^1023 at most, 0
    where that e is below -960).
    """

    count: int
    covered: int
    z: np.ndarray
    conj: np.ndarray
    tau: np.ndarray
    closed: np.ndarray
    scale: np.ndarray
    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    minus_a2: np.ndarray
    limit: np.ndarray

    @cached_property
    def terms(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """``log_derivative``'s (reach, two_re, u, v) over the adjacent pairs, formed on first use:
        as complex arrays 2 Re z, Re z/|z|^2 and ((Im z)^2 - (Re z)^2)/|z|^2, each part divided by
        |z| before it is squared.  Below reach, 2^500 times the least of 1 and min |z| (0 where some
        |z| passes 2^500), no step of a pair sum at s clear of the zeros can leave the double range."""
        z = self.z
        moduli = np.abs(z)
        re, im = z.real / moduli, z.imag / moduli
        parts = (2.0 * z.real, re / moduli, (im - re) * (im + re))
        least = min(1.0, float(moduli.min(initial=1.0)))
        reach = _PAIR_REACH * least if np.all(moduli <= _PAIR_REACH) else 0.0
        return reach, *(part.astype(np.complex128) for part in parts)


def _conjugate_pairs(seq: ZeroSequence, k: int) -> _ConjugatePairs:
    """The sequence's pair table over at least its first 2 k zeros where it has them, cached
    on it.  It grows on demand, to at least twice what it covered, so it spans
    what the calls read, not every zero of a long sequence."""
    pairs, available = seq._conjugate_cache, seq.zeros.size // 2  # type: ignore[attr-defined]
    # once the adjacent run ends, growth can change only closed, which only a line's points read
    final = pairs is not None and (pairs.covered == available or pairs.count < pairs.covered and seq._line is None)
    if pairs is not None and (k <= pairs.covered or final):
        return pairs
    covered = min(available, max(k, 2 * pairs.covered if pairs else 0))
    zeros = seq.zeros[: 2 * covered]
    lower = np.signbit(zeros.imag)
    tops, bottoms = np.compress(~lower, zeros), np.compress(lower, zeros)
    m = min(tops.size, bottoms.size)
    mirrored = _mirrored(tops[:m], bottoms[:m])
    paired = m if mirrored.all() else int(np.argmin(mirrored))
    tops = tops[:paired]
    rising = tops.imag[1:] >= tops.imag[:-1]
    line = paired if rising.all() else int(np.argmin(rising)) + 1
    # zeros 2i and 2i + 1 are pair i, in either order, while each pair of zeros holds one of each sign
    alternate = lower[0::2] != lower[1::2]
    run = alternate.size if alternate.all() else int(np.argmin(alternate))
    closed = np.zeros(2 * covered + 1, dtype=bool)
    closed[0 : 2 * min(run, line) + 1 : 2] = True
    # past that run the first 2i zeros close pairs where they hold i of each sign
    rest = lower[2 * run : 2 * line]
    closed[2 * run + 2 : 2 * line + 1 : 2] = np.cumsum(rest)[1::2] == np.arange(1, rest.size // 2 + 1)
    z = zeros[: 2 * min(paired, run)]
    parts = _pair_parts(tops.real, tops.imag)
    pairs = _ConjugatePairs(z.size // 2, covered, z[0::2], z[1::2], tops.imag, closed, *parts)
    object.__setattr__(seq, "_conjugate_cache", pairs)
    return pairs


def _pair_parts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """``scale``, ``a``, ``b``, ``d``, ``minus_a2`` and ``limit`` of ``_ConjugatePairs`` from the
    parts a + i b of each pair's member with Im z >= +0."""
    exponent = np.frexp(np.maximum(np.abs(a), np.abs(b)))[1]
    least_exponent = np.minimum.accumulate(exponent)
    with np.errstate(over="ignore", invalid="ignore"):  # only where the limit is 0
        scale = np.ldexp(1.0, -exponent)
        a, b = a * scale, b * scale
        limit = np.where(least_exponent >= -960, np.ldexp(1.0, np.minimum(255 + least_exponent, 1023)), 0.0)
    square = a * a
    return scale, a, b, square + b * b, -square, limit


def _offset_pairs(taus: np.ndarray) -> _ConjugatePairs:
    """The pair table of the zeros +-i tau, taus > 0 ascending, whose real mode at points i x
    sums the logs of 1 - x^2/tau^2 (``critical_line._offset_logs``)."""
    z, closed = taus * 1j, np.arange(2 * taus.size + 1) % 2 == 0
    return _ConjugatePairs(taus.size, taus.size, z, z.conj(), taus, closed, *_pair_parts(z.real, taus))


def _batch_pairs(seq: ZeroSequence, near: np.ndarray, radius: float) -> _ConjugatePairs | None:
    """The sequence's conjugate pairs where a batch's near zeros (|z| <= 4 radius) are
    its first near.size / 2 adjacent pairs; None elsewhere, as for near sets
    that are not closed pairs, or not the first zeros of a sequence that is
    not in modulus order."""
    m = near.size
    pairs = _conjugate_pairs(seq, m // 2)
    if m % 2 or m // 2 > pairs.count or not np.all(seq.moduli[:m] <= _FAR_RATIO * radius):
        return None
    return pairs


@np.errstate(divide="ignore", invalid="ignore")
def _conjugate_log_sum(
    points: np.ndarray, near: np.ndarray, pairs: _ConjugatePairs, genus: int, linear: float, real: bool = False
) -> np.ndarray:
    """``_log_sum(points, near, genus)`` with one log per pair, near the first near.size / 2 pairs of ``pairs``.

    Each pair's log of 1 - w', w' = s (2 Re z - s)/|z|^2, comes from
    ``_pair_logs``.  Genus 1 adds s C, ``linear`` C the real part of the
    pairs' R (``_reciprocal_sum``), as one more term of the same exact sums.
    With ``real`` every s = xi + i x is on the line xi of genus-0 pairs
    xi +- i tau that close with ascending tau (``closed``): a sum is the log
    of the real product, log |.| (-inf only where |x| is a tau) plus i pi
    where an odd count of tau < |x| makes it negative.  Points past the pair
    range (a part of s past the pairs' limit) and other rows with a log that
    is not finite, as where s is a zero, take ``_log_sum`` (its real part on
    the line).  Blocks of rows of about _PAIR_BLOCK (point, pair) entries on
    the line, _BLOCK_ELEMENTS elsewhere (a longer row alone, in column blocks
    of BLOCK pairs), each round their rows together, each row exactly: a
    row's sums have the same bits in any batch.
    """
    k = near.size // 2
    parts = np.abs(points.view(np.float64))
    ax = parts[1::2]
    fit = np.maximum(parts[0::2], ax) <= pairs.limit[k - 1]
    sums = np.empty(points.size, dtype=np.complex128)
    inside = np.count_nonzero(fit)
    rows = None if inside == fit.size else fit.nonzero()[0]  # None: every row, blocks of them slices
    direct = [] if rows is None else (~fit).nonzero()[0].tolist()
    step = max(1, (_PAIR_BLOCK if real else _BLOCK_ELEMENTS) // k)
    for first in range(0, inside, step):
        block = slice(first, first + step) if rows is None else rows[first : first + step]
        s = points[block, None]
        sum_real, sum_imag = ExactSum(len(s)), None if real else ExactSum(len(s))
        # on the line only a zero's row has a log that is not finite: -inf, the row's sum
        finite = None if real else np.ones(len(s), dtype=bool)
        for start in range(0, k, BLOCK):
            cols = slice(start, min(start + BLOCK, k))
            log_real, log_imag = _pair_logs(s, pairs, cols, ax[block, None] if real else None)
            if finite is not None:
                finite &= np.isfinite(log_real).all(axis=1)
            if linear and start + BLOCK >= k:  # s C joins the last block of each row
                log_real = np.concatenate([log_real, s.real * linear], axis=1)
                log_imag = np.concatenate([log_imag, s.imag * linear], axis=1)
            sum_real.add(log_real)
            if sum_imag is not None:
                sum_imag.add(log_imag)
        if finite is None or finite.all():
            sums[block] = sum_real.totals() if real else complex_totals(sum_real, sum_imag)
            continue
        block = np.arange(points.size)[block] if rows is None else block
        sums[block[finite]] = complex_totals(sum_real, sum_imag, finite)
        direct += block[~finite].tolist()
    if direct:
        sums[direct] = _log_sum(points[direct], near, genus)
    if real:  # the sign, (-1)^#{tau < |x|} (ascending taus), as the log 0 or i pi
        sums.imag = _PHASES.take(pairs.tau[:k].searchsorted(ax), mode="wrap")
    return sums


def _pair_logs(s: np.ndarray, pairs: _ConjugatePairs, cols: slice, ax: np.ndarray | None = None):
    """Real and imaginary parts of log(1 - w') for each point s (a column) and pair
    of the columns ``cols``, from s and the pair's parts scaled by its 2^-e.

    Where |w'| < 1/2 it is ``_log_factors``' log at w', elsewhere the log of
    (s - z)(s - conj z)/|z|^2 from the exact scaled differences, so factors
    near a zero keep full accuracy.  Given ``ax``, |x| of points Re z + i x on
    the pairs' line, w' is the real delta = (a^2 + y^2)/d, y = |x| 2^-e: the
    real parts alone, log1p(-delta) where delta < 1/2 and
    log(|b - y| (b + y)/d) elsewhere, imaginary None.
    """
    scale, b, d = pairs.scale[cols], pairs.b[cols], pairs.d[cols]
    if ax is not None:
        logs = ax * scale  # y, then in place -delta and its log
        np.multiply(logs, logs, out=logs)
        np.subtract(pairs.minus_a2[cols], logs, out=logs)
        logs /= d  # -delta, the bits of delta negated
        far = (logs <= -0.5).ravel().nonzero()[0]
        np.log1p(logs, out=logs)
        if far.size:
            row, col = np.divmod(far, logs.shape[1])
            beta, y = b[col], ax[row, 0] * scale[col]
            logs.put(far, np.log(np.abs(beta - y) * (beta + y) / d[col]))
        return logs, None
    x, y = s.real * scale, s.imag * scale
    a = pairs.a[cols]
    dx = x - a
    # w' = (x (2a - x) + y^2 + i 2 y (a - x))/d, all scaled
    wr = 2.0 * a - x
    wr *= x
    wr += y * y
    wr /= d
    wi = dx * y
    wi /= -0.5 * d
    r2 = wr * wr
    r2 += wi * wi
    far = (r2 >= 0.25).nonzero()
    log_real = 0.5 * np.log1p(r2 - 2.0 * wr)  # log |1 - w'|, |1 - w'|^2 = 1 + |w'|^2 - 2 Re w'
    log_imag = np.arctan2(-wi, 1.0 - wr)
    dx, y, beta, col = dx[far], y[far], b[far[1]], d[far[1]]
    # (s - z)(s - conj z) = dx^2 - (y - b)(y + b) + 2 i dx y, scaled by the pair's 4^-e
    p_real = dx * dx - (y - beta) * (y + beta)
    p_imag = 2.0 * dx * y
    log_real[far] = np.log(np.hypot(p_real, p_imag) / col)
    log_imag[far] = np.arctan2(p_imag, p_real)
    return log_real, log_imag


def _far_sums(far: np.ndarray) -> tuple[float, np.ndarray]:
    """Scaled far power sums: (c, sum of (c/z)^m for m = 1..K).

    c is the largest power of two <= min |z|, so the sums cannot overflow
    and scaling by c is exact.  Every radius R whose cut leaves exactly
    these zeros far has 4R < min |z|, so |w| = |s/z| <= min |z| / (4|z|)
    for all of them, and K is the least degree where the remainder bound
    sum |w|^(K+1) / ((K+1)(1 - |w|)) falls below _FAR_TOLERANCE
    (``_far_degree``).
    """
    if far.size == 0:
        return 1.0, np.zeros(0, dtype=np.complex128)
    moduli = np.abs(far)
    smallest = float(moduli.min())
    scale = math.ldexp(1.0, math.frexp(smallest)[1] - 1)
    degree = _far_degree(smallest / (_FAR_RATIO * moduli))
    del moduli  # the power sums' temporaries come next
    return scale, np.array(exact_power_sums(scale / far, degree))


def _far_degree(ratio: np.ndarray) -> int:
    """K of ``_far_sums``: the least d >= 1 where the rounded sum of r/(1 - r)
    times r, d times over, is below (d + 1) _FAR_TOLERANCE (every r <= 1/4).

    The least modulus's r = 1/4 keeps that sum above 4^-d / 3, so K exceeds
    every d where 4^-(d+1) / (3 (d + 2)) passes the threshold.  From there it
    is taken as the sum of r^d r/(1 - r) over the r >= 1/16 (the rest is
    below 16^-d (4/3) sum r), r^d from one exp(d log r), within 1e-12 of the
    chained sum; where one lands within 1e-9 of the threshold the chain
    decides.
    """
    limit, low = _FAR_TOLERANCE, 0
    while 0.25 ** (low + 1) / (3.0 * (low + 2)) > limit * (1.0 + 1e-9):
        low += 1
    total = float(np.sum(ratio)) * (4.0 / 3.0) * (1.0 + 1e-12)  # >= sum r/(1 - r)
    large = ratio[ratio >= 0.0625]
    term = large / (1.0 - large) * np.exp((low + 1) * np.log(large))
    for degree in itertools.count(low + 1):
        value = float(np.sum(term)) / (degree + 1)
        if abs(value - limit) <= 1e-9 * limit + total * 0.0625**degree / (degree + 1):
            break  # also where total is not finite
        if value < limit:
            return degree
        term *= large
    bound, degree = ratio / (1.0 - ratio), 0
    while True:
        degree += 1
        bound *= ratio
        if float(np.sum(bound)) / (degree + 1) < limit:
            return degree


def _near_far(seq: ZeroSequence, n: int, radius: float | None) -> tuple[np.ndarray, float, np.ndarray]:
    """Near zeros of the first n, and the scaled power sums (c, p) of the far ones.

    Without a radius every retained zero is near.  Otherwise the zeros with
    |z| > 4 * radius are far; their ``_far_sums`` are cached on the sequence
    by (n, near count), which fixes the far set.
    """
    zeros = seq.zeros[:n]
    if radius is None:
        return zeros, 1.0, np.zeros(0, dtype=np.complex128)
    keep = seq.moduli[:n] <= _FAR_RATIO * radius
    near = zeros[keep]
    cache = seq._far_cache  # type: ignore[attr-defined]
    key = (n, near.size)
    if key not in cache:
        cache[key] = _far_sums(zeros[~keep])
    return near, *cache[key]


def _reciprocal_sum(seq: ZeroSequence, n: int, radius: float | None) -> complex:
    """R = sum 1/z over the first n zeros: the near zeros' exactly rounded sum
    plus p_1 of the far ones (``_near_far``), the one rule for every genus-1
    sum of 1/z and u/z (as u R)."""
    near, scale, sums = _near_far(seq, n, radius)
    total = complex_sum(1.0 / near)
    return total + complex(sums[0]) / scale if sums.size else total


def _times(points: np.ndarray, c: complex) -> np.ndarray:
    """c s at each point s, part by part as Python forms it: numpy's complex
    product may fuse multiply-adds, so a point's bits would hang on the batch."""
    parts = np.ascontiguousarray(points, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    return (parts * c.real + parts[:, ::-1] * np.array([-c.imag, c.imag])).view(np.complex128)[:, 0]


def _split(
    seq: ZeroSequence, genus: int, points: np.ndarray, n: int, radius: float | None,
    derivative: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Near zeros of the first n (``_near_far``), and the far series at each point.

    With no far terms the series is None, so the batch takes the direct
    path's operations exactly.  A point's series has the same bits in any
    batch (``_horner``).
    """
    if radius is None:
        return seq.zeros[:n], None
    near, scale, sums = _near_far(seq, n, radius)
    # with u = s/c: log -sum p_m u^m / m, S'/S -sum p_m u^(m-1) / c; genus 1 drops m = 1
    coeffs = (sums if derivative else sums / np.arange(1, sums.size + 1))[genus:]
    if coeffs.size == 0:
        return near, None
    far = np.empty(points.size, dtype=np.complex128)
    for start in range(0, points.size, BLOCK):
        u = points[start : start + BLOCK] / scale
        acc = _horner(u, coeffs[::-1])
        for _ in range(genus + 1 - derivative):
            acc = acc * u
        far[start : start + BLOCK] = -acc / scale if derivative else -acc
    return near, far


# s/z past the double range gives infinite factor logs, which the value rule handles
@np.errstate(over="ignore", invalid="ignore")
def _log_sums(
    seq: ZeroSequence, genus: int, q: complex, points, n: int, radius: float | None = None,
    centers=None,
) -> tuple[np.ndarray, np.ndarray]:
    """q s (genus 1) plus the sum of the factor logs of the first n zeros, per
    point, and which points' products are real.

    A point that is a retained zero gets -inf, the log of an exact 0.  With
    a radius >= max |s| the zeros beyond 4 * radius enter as power sums, and
    where some do and the near zeros are the sequence's leading adjacent
    conjugate pairs (``_batch_pairs``) the near sums take one log per pair
    (``_conjugate_log_sum``).  At genus 0 a point xi + i x, x != 0, on the
    line xi of a sequence whose first n zeros and near zeros close pairs
    (``_ConjugatePairs.closed``; only then is the table built there) takes
    the kernel's real logs and the far series' real part (the far pairs'
    factors are positive): its product is real, and the imaginary part of
    its log is 0 or pi, the log of its sign.

    With ``centers`` (one c per point, every |c| <= radius too) the sums are
    the genus-0 sums of log(1 - (s - c)/(z - c)), none marked real: the near
    zeros in one ``_log_sum`` call, the far zeros as G(s) - G(c), G the
    far series.  The rule holds factor by factor: 1 - (s - c)/(z - c) =
    (1 - s/z)/(1 - c/z), and |s/z|, |c/z| <= 1/4 keep both logs principal.
    """
    points = np.ascontiguousarray(points, dtype=np.complex128).reshape(-1)
    if centers is not None:
        near, far = _split(seq, 0, np.concatenate([points, centers]), n, radius, derivative=False)
        sums = _log_sum(points, near, 0, centers)
        if far is not None:
            sums += far[: points.size] - far[points.size :]
        return sums, np.zeros(points.size, dtype=bool)
    near, far = _split(seq, genus, points, n, radius, derivative=False)
    line, real, on_line = seq._line, np.zeros(points.size, dtype=bool), 0  # type: ignore[attr-defined]
    if not genus and line is not None and not n % 2:
        np.logical_and(points.real == line, points.imag != 0.0, out=real)
        pairs = _conjugate_pairs(seq, n // 2) if (on_line := np.count_nonzero(real)) else None
        if pairs is not None and not (pairs.closed[n] and pairs.closed[near.size]):
            real[:], on_line = False, 0
    exponents = np.zeros(points.size, dtype=np.complex128)
    if genus == 1:
        exponents = _times(points, q)
        if np.count_nonzero(bad := exponents.real == -math.inf):  # -inf is kept for the retained zeros
            j = int(np.argmax(bad))
            _log_sum(points[:j], near, genus)  # an earlier point's range error comes first
            raise ValueError(f"q*s = {complex(exponents[j])!r} passes the double range at s = {complex(points[j])!r}")
    conjugate = _batch_pairs(seq, near, radius) if far is not None and near.size else None
    # the near zeros are the first near.size: C is the real part of their R
    linear = _reciprocal_sum(seq, near.size, None).real if conjugate is not None and genus else 0.0

    def kernel(points: np.ndarray) -> np.ndarray:  # far-field batches take one log per conjugate pair
        if conjugate is None:
            return _log_sum(points, near, genus)
        return _conjugate_log_sum(points, near, conjugate, genus, linear)

    if near.size and on_line:
        exponents[real] = _conjugate_log_sum(points[real], near, pairs, 0, 0.0, real=True)
        if on_line < real.size:
            exponents[~real] = kernel(points[~real])
    elif near.size:
        log_sums = kernel(points)
        exponents += log_sums
        if genus == 1:  # an exact 0 whatever q*s is
            np.copyto(exponents, log_sums, where=log_sums.real == -math.inf)
    if far is None:
        return exponents, real
    far.imag[real] = 0.0
    return exponents + far, real


def _eval_batch(
    spec: EntireFunctionSpec, points, n: int, radius: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Values and logs of the n-term product at points with |s| <= radius.

    At a retained zero the value is exactly 0 and the log has real part -inf.
    """
    exponents, real = _log_sums(spec.zero_sequence, spec.genus, spec.q_constant, points, n, radius)
    log_v0 = cmath.log(spec.value_at_zero)
    values = _values_from_logs(exponents, real, spec.value_at_zero, log_v0)
    return np.array(values, dtype=np.complex128), log_v0 + exponents


def _values_from_logs(exponents: np.ndarray, real: np.ndarray, v0: complex, log_v0: complex) -> list[complex]:
    """v0 times each product of ``_log_sums``; a real one's sign (log 0 or i pi) goes
    into the scale, so a real v0 gives a real value."""
    return [
        _value_from_log(complex(e.real), v0 * (-1.0 if e.imag else 1.0), log_v0 + 1j * e.imag)
        if r else _value_from_log(e, v0, log_v0)
        for e, r in zip(exponents.tolist(), real.tolist())
    ]


def _log_derivatives(spec: EntireFunctionSpec, points, n: int, radius: float) -> np.ndarray:
    """S'/S of the n-term product at points with |s| <= radius.

    The near zeros' own ``log_derivative`` (with its pole guard; only near
    zeros can coincide with a point) plus the far series.
    """
    points = np.asarray(points, dtype=np.complex128).reshape(-1)
    near, far = _split(spec.zero_sequence, spec.genus, points, n, radius, derivative=True)
    near_spec = replace(spec, zero_sequence=ZeroSequence(near, ordering=Ordering.AS_GIVEN))
    out = np.array([log_derivative(near_spec, s) for s in points.tolist()], dtype=np.complex128)
    return out if far is None else out + far


@dataclass(frozen=True)
class TruncatedEvaluation:
    """Value of a truncated product with truncation diagnostics.

    ``tail_bound`` estimates the relative modulus error of the omitted
    factors as exp(|s|**(genus+1) * T) - 1, where T combines the measured
    factor-size tail beyond the truncation with a fitted extrapolation past
    the available data.  It is None when the data does not support a
    convergent extrapolation, and it is an estimate, not a certificate.  It
    is computed on first read: an evaluation whose bound nobody reads never
    builds the zero sequence's tail profile.

    ``log_value`` accompanies every nonzero value (exp(log_value) agrees
    with ``value`` to rounding; its imaginary part is not branch-normalized).
    It is None only for the exact 0 at a retained zero.  A value of 0 that
    carries a log has underflowed: exp of the log's real part is 0 too.
    """

    value: complex
    terms_used: int
    nearest_zero_distance: float
    near_zero: bool
    log_value: complex | None
    # () -> tail_bound
    _tail: Callable[[], float | None] = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.log_value is None:
            if self.value != 0:
                raise ValueError("log_value must be present when value != 0")
        elif self.value == 0 and math.exp(self.log_value.real) != 0.0:
            raise ValueError("value == 0 with a log_value requires a log below the double range")

    @cached_property
    def tail_bound(self) -> float | None:
        bound = self._tail()
        if bound is not None and bound < 0:
            raise ValueError("tail_bound must be nonnegative when finite")
        return bound


def _retained(spec: EntireFunctionSpec, n_terms: int | None) -> np.ndarray:
    """The first n_terms zeros (all by default); ValueError for an n_terms that
    is negative, past the zeros, or splits a pair (naming the N either side)."""
    seq = spec.zero_sequence
    available = len(seq)
    n = available if n_terms is None else int(n_terms)
    if n < 0:
        raise ValueError(f"n_terms must be >= 0, got {n}")
    if n > available:
        raise ValueError(f"insufficient zeros: requested {n}, available {available}")
    if 0 < n < available and seq.pairing is not Pairing.NONE:
        starts = seq.group_starts
        if starts[np.searchsorted(starts, n, side="right") - 1] != n:  # zero n closes a pair
            pair = "conjugate" if seq.pairing is Pairing.CONJUGATE_PAIRS else "+-tau"
            raise ValueError(f"truncation N = {n} splits a {pair} pair: use N = {n - 1} or N = {n + 1}")
    return seq.zeros[:n]


def _nearest(point: complex, zeros: np.ndarray, seq: ZeroSequence | None = None) -> float:
    """min |point - z| over the retained zeros; inf when there are none.

    ``zeros`` opens ``seq``, where given.  At a point xi + i x on its line each
    |point - z| is |Im z - x|, the same double; where they close the pairs of a
    built pair table, the least is |tau - |x|| at the offsets either side of |x|.
    """
    if not zeros.size:
        return math.inf
    if seq is not None and point.real == seq._line:  # type: ignore[attr-defined]
        pairs = seq._conjugate_cache  # type: ignore[attr-defined]
        if pairs is not None and zeros.size < pairs.closed.size and pairs.closed[zeros.size]:
            ax, taus = abs(point.imag), pairs.tau[: zeros.size // 2]
            j = int(taus.searchsorted(ax))
            return min(abs(t - ax) for t in taus[max(j - 1, 0) : j + 1].tolist())
        return float(np.abs(zeros.imag - point.imag).min())
    return float(np.abs(point - zeros).min())


def _guard_coincident(point: complex, nearest: float, message: str) -> None:
    """Raise ValueError(message) where ``nearest``, the point's distance to the
    retained zeros, is at most 1e-12 (1 + |point|); the contour clearance of
    ``analysis.verify_multiplicity`` is a separate, absolute test."""
    if nearest <= COINCIDENT_RELATIVE * (1.0 + abs(point)):
        raise ValueError(message)


def _tail_bound(spec: EntireFunctionSpec, s: complex, n: int) -> float | None:
    tail = spec.zero_sequence.tail_profile(spec.genus).tail_beyond(n)
    if tail is None:
        return None
    # every factor is 1 at s = 0, even when the tail estimate is infinite
    if not s or not tail:
        return 0.0
    try:
        exponent = abs(s) ** (spec.genus + 1) * tail
    except OverflowError:  # |s|^2 passes the double range
        return math.inf
    # a nan (|s|^2 underflowed against an infinite tail) reads inf too
    return math.expm1(exponent) if exponent <= 700.0 else math.inf


def _evaluation(spec, s: complex, zeros: np.ndarray, value: complex, log_value) -> TruncatedEvaluation:
    """The record of a value at s; at distance 0 from the zeros it is the exact 0, with no log."""
    nearest = _nearest(s, zeros, spec.zero_sequence)
    return TruncatedEvaluation(
        value=value, terms_used=zeros.size, nearest_zero_distance=nearest,
        near_zero=nearest < NEAR_ZERO_COEFF * (1.0 + abs(s)),
        log_value=None if nearest == 0.0 else log_value,
        _tail=partial(_tail_bound, spec, s, zeros.size),
    )


def eval_product(spec: EntireFunctionSpec, s: complex, n_terms: int | None = None) -> TruncatedEvaluation:
    """Evaluate the truncated product representation at s.

    Genus 0:  value_at_zero * prod_{k<=N} (1 - s/z_k)
    Genus 1:  value_at_zero * exp(q*s) * prod_{k<=N} (1 - s/z_k) exp(s/z_k)

    Raises ValueError when more factors are requested than zeros are
    available.  The value vanishes exactly iff s is a retained zero.
    """
    s = complex(s)
    zeros = _retained(spec, n_terms)
    values, logs = _eval_batch(spec, [s], zeros.size, None)
    return _evaluation(spec, s, zeros, complex(values[0]), complex(logs[0]))


@np.errstate(over="ignore", invalid="ignore")
def _at_shift_points(
    spec: EntireFunctionSpec, alphas, n_terms: int | None, radius: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The retained zeros, and S(alpha) and its log at each shift point (one
    ``_eval_batch``, every |alpha| <= radius), for shift points clear of the
    zeros whose logs are finite."""
    alphas = [complex(alpha) for alpha in alphas]
    if 0 in alphas:
        raise ValueError("shift point must be nonzero")
    zeros = _retained(spec, n_terms)
    values, logs = _eval_batch(spec, alphas, zeros.size, radius)
    # a zero within 1e-12 (1 + |alpha|) of alpha has |z| <= 4R where R >= 1e-12: the near zeros decide
    near = _near_far(spec.zero_sequence, zeros.size, radius if radius and radius >= 1e-12 else None)[0]
    for alpha, log in zip(alphas, logs.tolist()):
        _guard_coincident(alpha, _nearest(alpha, near), "shift point coincides with a retained zero")
        if not cmath.isfinite(log):
            raise ValueError(f"log S(alpha) at alpha = {alpha!r} passes the double range")
    return zeros, values, logs


def eval_shifted_product(
    spec: EntireFunctionSpec,
    alpha: complex,
    s: complex,
    n_terms: int | None = None,
) -> TruncatedEvaluation:
    """Evaluate the product recentered at a nonzero reference point alpha.

    Genus 0:  S(alpha) * prod (1 - (s-alpha)/(z_k - alpha))
    Genus 1:  S(alpha) * exp(q*(s-alpha))
                       * prod (1 - (s-alpha)/(z_k - alpha)) exp((s-alpha)/z_k)

    S(alpha) is computed internally at the same truncation.  On the same
    finite factor set this is an exact algebraic regrouping of
    ``eval_product``, so the two agree to rounding error.  At s = alpha the
    recentered value is S(alpha) itself.  Raises ValueError where q*(s-alpha)
    passes the double range, as ``eval_product`` does for q*s.
    """
    s, alpha = complex(s), complex(alpha)
    zeros, s_alpha, log_s_alpha = _at_shift_points(spec, [alpha], n_terms)
    values, logs = _shifted_values(spec, [alpha], [s], zeros, s_alpha, log_s_alpha)
    return _evaluation(spec, s, zeros, complex(values[0]), complex(logs[0]))


@np.errstate(over="ignore", invalid="ignore")
def _shifted_values(
    spec: EntireFunctionSpec, alphas, points, zeros: np.ndarray, s_alphas: np.ndarray,
    log_s_alphas: np.ndarray, radius: float | None = None, recip: complex | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Values and logs of ``eval_shifted_product`` at each points[j] about alphas[j],
    given S(alphas[j]) and its log (``_at_shift_points``), with u = s - alpha:
    q u at genus 1, one recentred ``_log_sums`` over the draws (radius R >=
    every |s|, |alpha|; without one every zero is near) and the genus-1 sums
    of u/z as u R (``recip``, else ``_reciprocal_sum``).  At a retained zero the
    value is the exact 0 and the log's real part -inf, whatever q u and u R are."""
    points = np.asarray(points, dtype=np.complex128).reshape(-1)
    us = points - np.asarray(alphas, dtype=np.complex128)
    exponents = _times(us, spec.q_constant) if spec.genus == 1 else np.zeros(us.size, dtype=np.complex128)
    for s, exponent in zip(points.tolist(), exponents.tolist()):
        if exponent.real == -math.inf:  # -inf is kept for the retained zeros
            raise ValueError(f"q*(s - alpha) = {exponent!r} passes the double range at s = {s!r}")
    if zeros.size:
        log_sums = _log_sums(spec.zero_sequence, 0, 0j, points, zeros.size, radius, alphas)[0]
        exponents += log_sums
        dead = log_sums.real == -math.inf
        np.copyto(exponents, log_sums, where=dead)
        if spec.genus == 1:
            recip = _reciprocal_sum(spec.zero_sequence, zeros.size, radius) if recip is None else recip
            exponents[~dead] += _times(us[~dead], recip)
    values = [_value_from_log(*row) for row in zip(exponents.tolist(), s_alphas.tolist(), log_s_alphas.tolist())]
    return np.array(values, dtype=np.complex128), log_s_alphas + exponents


@np.errstate(over="ignore", invalid="ignore")
def shift_constant_residual(
    spec: EntireFunctionSpec,
    alpha: complex,
    n_terms: int | None = None,
    value_at_alpha: complex | None = None,
) -> float:
    """Symmetrized residual of the recentering constant identity.

    Genus 1 identity:
        S(0) * prod (1 - alpha/z_k)  =  S(alpha) * exp(-q*alpha) * prod exp(-alpha/z_k)
    Genus 0 identity:
        S(0) * prod (1 - alpha/z_k)  =  S(alpha)

    Returns |lhs - rhs| / (|lhs| + |rhs|).  By default S(alpha) is the
    truncated product at the same N (making the identity exact up to
    rounding; at genus 0 it is the left side itself, so the residual is 0);
    pass ``value_at_alpha`` to test against an external value such as a
    closed form.  Where a side saturates and the direct ratio is not
    finite, it is taken from the logs: |1 - e^d| / (1 + |e^d|) with
    d = log(lhs / rhs); a d that is not a number raises ValueError.
    """
    if value_at_alpha is None:
        zeros, s_alpha, log_s_alpha = _at_shift_points(spec, [alpha], n_terms)
        return _internal_residuals(spec, [complex(alpha)], zeros, s_alpha, log_s_alpha)[0]
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("shift point must be nonzero")
    zeros = _retained(spec, n_terms)
    s_alpha = complex(value_at_alpha)
    log_s_alpha = cmath.log(s_alpha) if s_alpha else complex(-math.inf)
    _guard_coincident(alpha, _nearest(alpha, zeros), "shift point coincides with a retained zero")
    return _constant_residuals(spec, [alpha], zeros, [s_alpha], [log_s_alpha])[0]


def _internal_residuals(
    spec, alphas, zeros: np.ndarray, s_alphas: np.ndarray, log_s_alphas: np.ndarray, radius: float | None = None,
    recip: complex | None = None,
) -> list[float]:
    """``shift_constant_residual`` against each S(alpha) and log from ``_at_shift_points``.  At genus 0
    that S(alpha) is S(0) prod (1 - alpha/z) at the same N, from the same
    ``_value_from_log`` call as the left side: the residual is 0 by construction."""
    if spec.genus == 0:
        return [0.0] * len(alphas)
    return _constant_residuals(spec, alphas, zeros, s_alphas.tolist(), log_s_alphas.tolist(), radius, recip)


@np.errstate(over="ignore", invalid="ignore")
def _constant_residuals(
    spec: EntireFunctionSpec, alphas, zeros: np.ndarray, s_alphas, log_s_alphas,
    radius: float | None = None, recip: complex | None = None,
) -> list[float]:
    """``shift_constant_residual`` at each checked shift point alpha, given S(alpha)
    and its log: one genus-0 ``_log_sums`` for the left sides and, at genus 1,
    the sums of alpha/z as alpha R (``recip``, else ``_reciprocal_sum``), both
    split at 4 * radius (every |alpha| <= radius)."""
    seq, n = spec.zero_sequence, zeros.size
    log_prods, real = _log_sums(seq, 0, 0j, alphas, n, radius)
    if spec.genus == 1 and recip is None:
        recip = _reciprocal_sum(seq, n, radius)
    log_v0 = cmath.log(spec.value_at_zero)
    left_sides = _values_from_logs(log_prods, real, spec.value_at_zero, log_v0)
    residuals = []
    for alpha, s_alpha, log_s_alpha, log_prod, lhs in zip(
        alphas, s_alphas, log_s_alphas, log_prods.tolist(), left_sides
    ):
        rhs_exponent = 0j
        if spec.genus == 1:
            rhs_exponent = -spec.q_constant * alpha - alpha * recip
            rhs = _value_from_log(rhs_exponent, s_alpha, log_s_alpha)
        else:
            rhs = s_alpha
        denom = abs(lhs) + abs(rhs)
        residual = abs(lhs - rhs) / denom if denom else 0.0
        if not math.isfinite(residual):
            # a saturated side: the same ratio from d = log(lhs / rhs), which is
            # symmetric under d -> -d, so |e^d| <= 1 below
            d = log_v0 + log_prod - log_s_alpha - rhs_exponent
            if cmath.isnan(d):
                raise ValueError(f"constant residual undefined at alpha={alpha!r}: its logs pass the double range")
            ratio = cmath.exp(-d if d.real > 0 else d)
            residual = abs(1.0 - ratio) / (1.0 + abs(ratio))
        residuals.append(residual)
    return residuals


def _shift_measures(
    spec: EntireFunctionSpec, points: list[complex], alphas: list[complex], n_terms: int | None,
    radius: float | None = None,
) -> list[tuple[complex, complex, float, float]]:
    """(shifted, direct, disagreement, constant residual) at each points[j] about alphas[j] (``compare_shift``).

    Each stage is one reduction over the draws, in the order of one draw:
    S(alpha) at each distinct alpha, the shifted values, the direct values
    (``_eval_batch``), the constant residuals, the last two with one genus-1
    R.  With a radius R >= every |p|, every stage takes the zeros beyond 4R
    from their power sums.
    """
    position = {a: j for j, a in enumerate(dict.fromkeys(alphas))}
    zeros, s_alphas, log_s_alphas = _at_shift_points(spec, list(position), n_terms, radius)
    rows = [position[a] for a in alphas]
    recip = _reciprocal_sum(spec.zero_sequence, zeros.size, radius) if spec.genus == 1 else None
    shifted, shifted_logs = _shifted_values(spec, alphas, points, zeros, s_alphas[rows], log_s_alphas[rows], radius, recip)
    direct, direct_logs = _eval_batch(spec, points, zeros.size, radius)
    residuals = _internal_residuals(spec, list(position), zeros, s_alphas, log_s_alphas, radius, recip)
    measures = []
    for sh, di, sh_log, di_log, row in zip(
        shifted.tolist(), direct.tolist(), shifted_logs.tolist(), direct_logs.tolist(), rows
    ):
        # where |sh - di| / (1 + |di|) is not finite (a saturated value), its limit |e^d - 1|,
        # d the difference of the two logs (real part -inf for an exact 0)
        disagreement = abs(sh - di) / (1.0 + abs(di))
        if not math.isfinite(disagreement):
            disagreement = abs(_value_from_log(sh_log - di_log) - 1.0)
        measures.append((sh, di, disagreement, residuals[row]))
    return measures


def log_derivative(spec: EntireFunctionSpec, s: complex, n_terms: int | None = None) -> complex:
    """Logarithmic derivative S'/S of the truncated representation at s.

    Genus 0:  sum 1/(s - z_k)
    Genus 1:  q + sum [1/(s - z_k) + 1/z_k]     (bracket summed per factor)

    Where the retained zeros are conjugate pairs (``_conjugate_pairs``) the
    sum takes one term per pair: 2 (s - Re z)/((s - z)(s - conj z)), and at
    genus 1 the pair's two brackets, 2 s (u s + v)/((s - z)(s - conj z)),
    u = Re z/|z|^2 and v = ((Im z)^2 - (Re z)^2)/|z|^2, which vanish at
    s = 0 as each bracket does.  A term that is not finite, or a pair's
    product past the double range (which would make its term 0), sends the
    sum back to one term per factor.  A genus-1 bracket, s/(z (s - z)), is
    not split into sum 1/(s - z) + R: the two sums would cancel to it where
    |z| >> |s|.  Raises ValueError when s lies within relative distance
    1e-12 of a retained zero (a pole).
    """
    s = complex(s)
    zeros = _retained(spec, n_terms)
    n, genus = int(zeros.size), spec.genus
    _guard_coincident(s, _nearest(s, zeros), "logarithmic derivative has a pole at a retained zero")
    total = spec.q_constant if genus == 1 else 0j
    if not n:
        return total
    pairs = _conjugate_pairs(spec.zero_sequence, n // 2)
    if not n % 2 and n // 2 <= pairs.count:
        k = n // 2
        reach, two_re, u, v = pairs.terms
        fits = abs(s) < reach
        with nullcontext() if fits else np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            product = (s - pairs.z[:k]) * (s - pairs.conj[:k])
            if genus == 1:
                terms = (2.0 * s) * (u[:k] * s + v[:k]) / product
            else:
                terms = (2.0 * s - two_re[:k]) / product
        try:  # a term that is not finite makes the sum not finite, or raises
            paired = complex_sum(terms) if fits or np.isfinite(product).all() else complex(math.nan)
        except (ValueError, OverflowError):
            paired = complex(math.nan)
        if cmath.isfinite(paired):
            return total + paired if genus == 1 else paired
    if genus == 0:
        return complex_sum(1.0 / (s - zeros))
    return total + complex_sum(1.0 / (s - zeros) + 1.0 / zeros)
