"""Zero-sequence data types, function-class specs, and membership validation.

An entire function of order one is described here by the data that pins it
down: a multiset of nonzero complex zeros, the value at the origin, an
optional exponential-rate constant (genus 1 only), and for the symmetric
classes the vertical line Re s = xi that carries every zero.

Class tags
----------
``Y``        genus 0, zeros anywhere in C \\ {0}
``L``        genus 1, zeros anywhere in C \\ {0}
``Y_tilde``  genus 0, zeros xi + i*tau_k on the line Re s = xi (xi real != 0)
``L_bar``    genus 1, zeros xi + i*tau_k on the line Re s = xi

Finite zero lists stand in for infinite sequences everywhere; validation
verdicts about asymptotic behaviour are therefore three-valued
(pass / fail / indeterminate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from ._numeric import SlopeFit, complex_sum, loglog_fit, real_sum

__all__ = [
    "ClassTag",
    "Ordering",
    "Pairing",
    "Verdict",
    "ZeroSequence",
    "TailProfile",
    "ValidationCheck",
    "ValidationReport",
    "EntireFunctionSpec",
    "modulus_sort_indices",
    "validate_zero_sequence",
    "make_symmetric_spec",
]

# Number of accumulation groups below which asymptotic checks are treated as
# trivially satisfied: a short list is taken as a complete (finite) zero set.
MIN_FIT_GROUPS = 8

# Three-valued slope thresholds: a series sum_j t_j with t_j ~ j**slope
# converges iff slope < -1; verdicts use a +/-0.1 dead band around -1.
SLOPE_DEAD_BAND = 0.1

# Largest x with a finite exp(x).
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


class ClassTag(str, Enum):
    Y = "Y"
    L = "L"
    Y_TILDE = "Y_tilde"
    L_BAR = "L_bar"

    @property
    def genus(self) -> int:
        return 1 if self in (ClassTag.L, ClassTag.L_BAR) else 0

    @property
    def symmetric(self) -> bool:
        """True for the classes whose zeros sit on a vertical line."""
        return self in (ClassTag.Y_TILDE, ClassTag.L_BAR)


class Ordering(str, Enum):
    BY_MODULUS = "by_modulus"
    AS_GIVEN = "as_given"


class Pairing(str, Enum):
    NONE = "none"
    CONJUGATE_PAIRS = "conjugate_pairs"
    SYMMETRIC_ABOUT_CENTER = "symmetric_about_center"


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"


def modulus_sort_indices(zeros: np.ndarray) -> np.ndarray:
    """Indices sorting zeros by (|z|, -Im z, Re z).

    The modulus ordering is non-strict; the deterministic tie-break keeps
    conjugate partners adjacent (the +i member first), and entries equal in
    all three keys keep their input order: the permutation of
    ``np.lexsort((z.real, -z.imag, abs(z)))``, from a quicksort of the
    moduli whose tie runs are then put in order (``_order_ties``).
    """
    moduli = np.abs(zeros)
    if not np.all(np.isfinite(moduli)):
        return np.lexsort((zeros.real, -zeros.imag, moduli))
    order = np.argsort(moduli)
    _order_ties(order, moduli[order], moduli, zeros)
    return order


def _sort_by_modulus(zeros: np.ndarray) -> bool:
    """Sort a writeable complex vector in place, as ``zeros[modulus_sort_indices(zeros)]``.

    Zeros with one real part (one finite bit pattern) and finite nonzero
    imaginary parts are sorted by value, and True is returned.  The key is
    the bits of |Im z| shifted left by one, with Im z < 0 in the low bit;
    equal keys are equal zeros.  The key order is the modulus order where the
    sorted moduli rise wherever |Im z| does: not at Re z = 1e9, say, where
    hypot rounds distinct small |Im z| to one modulus.  There, and for any
    other set, the zeros (a permutation of the input) are gathered by
    ``modulus_sort_indices``.
    """
    re, im = zeros.real, zeros.imag
    bits = re.view(np.uint64)
    if zeros.size and math.isfinite(re[0]) and np.all(bits == bits[0]):
        keys = im.view(np.uint64) << 1  # the sign bit shifts out
        keys |= np.signbit(im)
        keys.sort()
        # +-0.0 have the keys 0 and 1, inf has 0xFFE0...0 and NaN higher ones
        if keys[0] > 1 and keys[-1] < np.uint64(0xFFE0000000000000):
            offsets = im.view(np.uint64)
            np.right_shift(keys, 1, out=offsets)
            same_offset = offsets[1:] == offsets[:-1]  # before the sign bits go in
            keys <<= 63
            offsets |= keys
            moduli = np.abs(zeros, out=keys.view(np.float64))
            if np.all((moduli[1:] > moduli[:-1]) | same_offset):
                return True
    zeros[:] = zeros[modulus_sort_indices(zeros)]
    return False


def _order_ties(
    order: np.ndarray, sorted_keys: np.ndarray, keys: np.ndarray, zeros: np.ndarray
) -> None:
    """Put each run of equal keys[order] (= sorted_keys) in (-Im z, Re z, index) order, in place.

    Runs of two (a conjugate pair, say) take one vectorised compare-and-swap,
    the entries of longer runs a lexsort over those entries alone.
    """
    # tied[i + 1]: sorted entries i and i + 1 have equal keys
    tied = np.zeros(keys.size + 1, dtype=bool)
    tied[1:-1] = sorted_keys[1:] == sorted_keys[:-1]
    pairs = np.flatnonzero(tied[1:-1] & ~tied[:-2] & ~tied[2:])
    a, b = order[pairs], order[pairs + 1]
    za, zb = zeros[a], zeros[b]
    # out of order: -Im b < -Im a, then Re b < Re a, then b < a
    swap = (zb.imag > za.imag) | (
        (zb.imag == za.imag) & ((zb.real < za.real) | ((zb.real == za.real) & (b < a)))
    )
    order[pairs[swap]], order[pairs[swap] + 1] = b[swap], a[swap]
    # temporaries go as soon as they are used, so that on a 1e6-row table
    # the sort stays below the peak memory of the parse before it
    del a, b, za, zb, swap
    longer = tied[:-1] | tied[1:]
    longer[pairs] = longer[pairs + 1] = False
    where = np.flatnonzero(longer)
    if where.size:
        sub = order[where]
        order[where] = sub[np.lexsort((sub, zeros.real[sub], -zeros.imag[sub], keys[sub]))]


@dataclass(frozen=True)
class TailProfile:
    """Per-group convergence data for one genus (internal).

    ``terms`` holds one nonnegative series term per accumulation group:
    |z|**-(genus+1) for ungrouped zeros, the grouped first-plus-second order
    magnitude |sum 1/z| + sum |z|**-2 for paired genus-0 data, and
    sum |z|**-2 for paired genus-1 data; ``group_starts`` holds each group's
    first index among the ``n_zeros`` zeros.  ``suffix[j]`` is the exact tail
    sum(terms[j:]).  ``extrapolated_tail`` estimates the contribution beyond
    the available data from the fitted decay slope; it is None whenever the
    fit does not support convergence, and 0.0 for short (treated-as-complete)
    lists.
    """

    genus: int
    terms: np.ndarray
    group_starts: np.ndarray
    n_zeros: int
    suffix: np.ndarray
    verdict: Verdict
    fit: SlopeFit | None
    extrapolated_tail: float | None
    plain_partial_sum: float

    def tail_beyond(self, n_factors: int) -> float | None:
        """Estimated series tail over factors with index >= n_factors.

        A group split by the truncation counts whole: the tail starts at the
        group that holds index n_factors.  Returns None when the data does
        not support a convergent extrapolation (indeterminate or divergent
        fit).
        """
        if self.extrapolated_tail is None:
            return None
        if n_factors >= self.n_zeros:
            g0 = self.terms.size
        else:
            g0 = int(np.searchsorted(self.group_starts, n_factors, side="right")) - 1
        return float(self.suffix[g0]) + self.extrapolated_tail


def _fit_tail_terms(terms: np.ndarray) -> tuple[Verdict, SlopeFit | None, float | None]:
    """Classify series convergence from per-group term decay.

    Fits log(term) against log(group index) over the last half of the data.
    Slope <= -1.1 reads convergent, >= -0.9 divergent, otherwise
    indeterminate.  Short lists are treated as complete finite zero sets and
    pass trivially with no extrapolated tail.
    """
    n = terms.size
    if n < MIN_FIT_GROUPS:
        return Verdict.PASS, None, 0.0
    idx = np.arange(1, n + 1, dtype=float)
    lo = n // 2
    t = terms[lo:]
    j = idx[lo:]
    keep = t > 0.0
    if int(keep.sum()) < 4:
        if not np.any(t > 0.0):
            # Underflowed tail: decay faster than anything we can fit.
            return Verdict.PASS, None, 0.0
        return Verdict.INDETERMINATE, None, None
    fit = loglog_fit(j[keep], t[keep])
    if fit.slope <= -1.0 - SLOPE_DEAD_BAND:
        # Integral-test extrapolation of c * j**slope beyond the last group,
        # c = exp(intercept).  Only where c alone overflows is it taken in the
        # log domain, so in-range tails keep their bits.
        if fit.intercept < _LOG_DOUBLE_MAX:
            extrap = math.exp(fit.intercept) * float(n) ** (fit.slope + 1.0) / (-fit.slope - 1.0)
        else:
            log_extrap = fit.intercept + (fit.slope + 1.0) * math.log(n) - math.log(-fit.slope - 1.0)
            extrap = math.exp(log_extrap) if log_extrap < _LOG_DOUBLE_MAX else math.inf
        return Verdict.PASS, fit, extrap
    if fit.slope >= -1.0 + SLOPE_DEAD_BAND:
        return Verdict.FAIL, fit, None
    return Verdict.INDETERMINATE, fit, None


def _read_only_vector(arr) -> bool:
    """True for a 1-d complex128 array that is read-only, as is every array beneath it."""
    kept = isinstance(arr, np.ndarray) and arr.dtype == np.complex128 and arr.ndim == 1
    while kept and isinstance(arr, np.ndarray):
        kept, arr = not arr.flags.writeable, arr.base
    return kept


@dataclass(frozen=True, eq=False)
class ZeroSequence:
    """Ordered multiset of complex zeros with accumulation metadata.

    ``ordering`` declares how the list is to be read (sorted by modulus with
    the deterministic tie-break, or exactly as given).  ``pairing`` declares
    which consecutive entries form cancellation groups when products, power
    sums, and tail estimates are accumulated; both pair modes group a zero
    with an immediately following exact conjugate.  ``source`` is free-form
    provenance.

    Instances are immutable; derived arrays are cached on first use.  The
    zeros are copied into a read-only complex vector, unless they are one
    already, with no writeable array beneath it.
    """

    zeros: np.ndarray
    ordering: Ordering = Ordering.BY_MODULUS
    pairing: Pairing = Pairing.NONE
    source: str = "constructed"

    def __post_init__(self) -> None:
        arr = self.zeros
        if not _read_only_vector(arr):
            arr = np.array(arr, dtype=np.complex128).reshape(-1)
            arr.setflags(write=False)
        object.__setattr__(self, "zeros", arr)
        object.__setattr__(self, "ordering", Ordering(self.ordering))
        object.__setattr__(self, "pairing", Pairing(self.pairing))
        object.__setattr__(self, "_tail_cache", {})
        # far-field power sums of product_engine, by (retained count, near count)
        object.__setattr__(self, "_far_cache", {})
        # the conjugate pairs (z, conj z) that open the zeros, built by product_engine._conjugate_pairs
        object.__setattr__(self, "_conjugate_cache", None)
        # xi for zeros that _line_sequence built as xi + i tau from finite
        # nonzero xi and tau, in modulus order, which pass every zero check of
        # a spec on xi
        object.__setattr__(self, "_line", None)

    def __len__(self) -> int:
        return int(self.zeros.size)

    @cached_property
    def moduli(self) -> np.ndarray:
        m = np.abs(self.zeros)
        m.setflags(write=False)
        return m

    def sorted_by_modulus(self) -> "ZeroSequence":
        """Copy with ordering normalized to (|z|, -Im z, Re z)."""
        zeros = self.zeros.copy()
        _sort_by_modulus(zeros)
        zeros.setflags(write=False)
        return replace(self, zeros=zeros, ordering=Ordering.BY_MODULUS)

    @cached_property
    def group_starts(self) -> np.ndarray:
        """Start index of every accumulation group under the declared pairing."""
        z = self.zeros
        n = z.size
        if self.pairing is Pairing.NONE:
            return np.arange(n, dtype=np.int64)
        # pairable[i]: z[i + 1] is the conjugate of a nonreal z[i]; never the last entry
        pairable = np.zeros(n, dtype=bool)
        pairable[:-1] = (z[1:] == np.conj(z[:-1])) & (z[:-1].imag != 0.0)
        # Fast path: fully paired data (the common constructed layout).
        if n % 2 == 0 and bool(np.all(pairable[0::2])):
            return np.arange(0, n, 2, dtype=np.int64)
        # in each run of pairable entries a pair opens at the run's first entry
        # and at every second entry after it; every entry but a partner starts a group
        index = np.arange(n, dtype=np.int64)
        run_first = np.maximum.accumulate(np.where(pairable & ~np.roll(pairable, 1), index, 0))
        opens = pairable & ((index - run_first) % 2 == 0)
        return np.flatnonzero(~np.roll(opens, 1))

    def tail_profile(self, genus: int) -> TailProfile:
        """Convergence profile of the genus-dependent factor-size series."""
        if genus not in (0, 1):
            raise ValueError(f"genus must be 0 or 1, got {genus}")
        cache = self._tail_cache  # type: ignore[attr-defined]
        if genus in cache:
            return cache[genus]
        profile = _build_tail_profile(self, genus)
        cache[genus] = profile
        return profile


def _build_tail_profile(seq: ZeroSequence, genus: int) -> TailProfile:
    z = seq.zeros
    n = z.size
    starts = seq.group_starts
    if np.any(z == 0):
        raise ValueError("tail profile undefined for a sequence containing 0")
    # zeros near the bottom of the double range give terms and sums past
    # its top: they become inf, and so does the tail bound
    with np.errstate(over="ignore"):
        recip = 1.0 / z
        inv_sq = recip.real * recip.real + recip.imag * recip.imag
        try:
            plain = real_sum(np.abs(recip) if genus == 0 else inv_sq)
        except OverflowError:
            plain = math.inf
        grouped = seq.pairing is not Pairing.NONE
        if genus == 1:
            terms = np.add.reduceat(inv_sq, starts) if grouped else inv_sq.copy()
        elif grouped:
            group_recip = np.add.reduceat(recip, starts)
            terms = np.abs(group_recip) + np.add.reduceat(inv_sq, starts)
        else:
            terms = np.abs(recip)
        verdict, fit, extrap = _fit_tail_terms(terms)
        suffix = np.zeros(terms.size + 1)
        suffix[:-1] = np.cumsum(terms[::-1])[::-1]
    for a in (terms, suffix):
        a.setflags(write=False)
    return TailProfile(
        genus=genus,
        terms=terms,
        group_starts=starts,
        n_zeros=n,
        suffix=suffix,
        verdict=verdict,
        fit=fit,
        extrapolated_tail=extrap,
        plain_partial_sum=plain,
    )


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    verdict: Verdict
    measured: float


@dataclass(frozen=True)
class ValidationReport:
    """Three-valued class-membership report for a zero sequence.

    Checks (in order):

    * ``nonzero``            every zero is nonzero; measured = min |z|.
    * ``modulus_ordering``   the declared by-modulus ordering holds;
                             measured = largest ordering violation.
    * ``series_convergence`` the genus-dependent factor-size series
                             converges; measured = plain partial sum
                             of |z|**-(genus+1) over the data.
    * ``modulus_divergence`` |z_k| grows without bound; measured = fitted
                             slope of log |z_k| against log k.

    Indeterminate verdicts occur only for the two asymptotic checks, which
    cannot always be decided from finite data.
    """

    genus: int
    n_zeros: int
    checks: tuple[ValidationCheck, ...]
    overall: Verdict


def _combine(verdicts: Sequence[Verdict]) -> Verdict:
    if any(v is Verdict.FAIL for v in verdicts):
        return Verdict.FAIL
    if any(v is Verdict.INDETERMINATE for v in verdicts):
        return Verdict.INDETERMINATE
    return Verdict.PASS


def validate_zero_sequence(seq: ZeroSequence, genus: int) -> ValidationReport:
    """Check a zero sequence against the structural class requirements.

    Raises ValueError for an empty sequence or a genus outside {0, 1}.
    """
    if genus not in (0, 1):
        raise ValueError(f"genus must be 0 or 1, got {genus}")
    if len(seq) == 0:
        raise ValueError("empty zero sequence")
    z = seq.zeros
    moduli = seq.moduli

    min_mod = float(moduli.min())
    nonzero = ValidationCheck(
        name="nonzero",
        verdict=Verdict.PASS if min_mod > 0.0 else Verdict.FAIL,
        measured=min_mod,
    )

    if seq.ordering is Ordering.BY_MODULUS and len(seq) > 1:
        violation = float(np.max(moduli[:-1] - moduli[1:], initial=0.0))
    else:
        violation = 0.0
    ordering = ValidationCheck(
        name="modulus_ordering",
        verdict=Verdict.PASS if violation <= 0.0 else Verdict.FAIL,
        measured=max(violation, 0.0),
    )

    # Asymptotic checks run on the nonzero entries so a stray 0 (already a
    # hard failure above) cannot poison them.
    if min_mod > 0.0:
        work = seq
    else:
        work = ZeroSequence(
            zeros=z[z != 0],
            ordering=seq.ordering,
            pairing=seq.pairing,
            source=seq.source,
        )
    if len(work) > 0:
        profile = work.tail_profile(genus)
        series = ValidationCheck(
            name="series_convergence",
            verdict=profile.verdict,
            measured=profile.plain_partial_sum,
        )
        growth_verdict, growth_slope = _modulus_growth(work.moduli)
        growth = ValidationCheck(
            name="modulus_divergence", verdict=growth_verdict, measured=growth_slope
        )
    else:
        series = ValidationCheck("series_convergence", Verdict.FAIL, math.inf)
        growth = ValidationCheck("modulus_divergence", Verdict.FAIL, 0.0)

    checks = (nonzero, ordering, series, growth)
    return ValidationReport(
        genus=genus,
        n_zeros=len(seq),
        checks=checks,
        overall=_combine([c.verdict for c in checks]),
    )


def _modulus_growth(moduli: np.ndarray) -> tuple[Verdict, float]:
    """Trend verdict for |z_k| -> infinity from the last half of the data."""
    n = moduli.size
    if n < MIN_FIT_GROUPS:
        return Verdict.PASS, 0.0
    k = np.arange(1, n + 1, dtype=float)
    lo = n // 2
    fit = loglog_fit(k[lo:], moduli[lo:])
    if fit.slope > SLOPE_DEAD_BAND:
        return Verdict.PASS, fit.slope
    if fit.slope < -SLOPE_DEAD_BAND:
        return Verdict.FAIL, fit.slope
    return Verdict.INDETERMINATE, fit.slope


@dataclass(frozen=True, eq=False)
class EntireFunctionSpec:
    """Complete evaluation data for one order-one entire function.

    ``value_at_zero`` is the (nonzero) function value at s = 0.
    ``q_constant`` is the exponential rate in the genus-1 representation and
    must be 0 for the genus-0 classes.  ``center_xi`` is required exactly for
    the symmetric classes and must match the real part of every zero.
    """

    class_tag: ClassTag
    value_at_zero: complex
    zero_sequence: ZeroSequence
    q_constant: complex = 0j
    center_xi: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_tag", ClassTag(self.class_tag))
        object.__setattr__(self, "value_at_zero", complex(self.value_at_zero))
        object.__setattr__(self, "q_constant", complex(self.q_constant))
        if self.center_xi is not None:
            object.__setattr__(self, "center_xi", float(self.center_xi))
        if self.value_at_zero == 0 or not np.isfinite(self.value_at_zero):
            raise ValueError("value_at_zero must be nonzero and finite")
        if self.genus == 0 and self.q_constant != 0:
            raise ValueError("genus-0 classes require q_constant = 0")
        line = self.zero_sequence._line  # type: ignore[attr-defined]
        if self.class_tag.symmetric and line is not None and line == self.center_xi:
            return  # built on this line from checked offsets: every check below holds
        z = self.zero_sequence.zeros
        if z.size and not np.all(np.isfinite(z)):
            raise ValueError("zero sequence contains a non-finite entry")
        if z.size and np.any(z == 0):
            raise ValueError("zero sequence contains 0")
        if self.class_tag.symmetric:
            if self.center_xi is None:
                raise ValueError(f"class {self.class_tag.value} requires center_xi")
            if self.center_xi == 0.0:
                raise ValueError("center_xi must be nonzero")
            if z.size and not np.all(z.real == self.center_xi):
                raise ValueError("every zero of a symmetric-class spec must have Re z = center_xi")
            if z.size and np.any(z.imag == 0.0):
                raise ValueError("symmetric-class zeros must have nonzero imaginary part")
        elif self.center_xi is not None:
            raise ValueError(f"center_xi is meaningful only for symmetric classes, not {self.class_tag.value}")

    @property
    def genus(self) -> int:
        return self.class_tag.genus

    @property
    def n_zeros(self) -> int:
        return len(self.zero_sequence)


def make_symmetric_spec(
    xi: float,
    taus: Sequence[float],
    value_at_center: complex,
    class_tag: ClassTag | str = ClassTag.Y_TILDE,
    q_constant: complex = 0j,
) -> EntireFunctionSpec:
    """Build a symmetric-class spec from line offsets tau_k.

    The zeros are xi + i*tau_k, normalized to modulus order with symmetric
    pairing.  The stored origin value is obtained by inverting the finite
    product for the value at the center: with P = product over retained
    zeros of (1 - xi/z) (times exp(q*xi) * prod exp(xi/z) at genus 1),
    value_at_zero = value_at_center / P, so evaluating at s = xi at the same
    truncation recovers ``value_at_center``.  Raises ValueError when that
    quotient is 0 or not finite.
    """
    tag = ClassTag(class_tag)
    if not tag.symmetric:
        raise ValueError(f"make_symmetric_spec requires class Y_tilde or L_bar, got {tag.value}")
    xi = float(xi)
    tau_arr = np.asarray(taus, dtype=float).reshape(-1)
    return _symmetric_spec(xi, _line_sequence(xi, tau_arr), value_at_center, tag, q_constant)


def _line_sequence(xi: float, taus: np.ndarray, source: str | None = None) -> ZeroSequence:
    """The zeros xi + i tau in modulus order, paired about the center line.

    One complex array is filled, sorted and checked.  Where xi and every tau
    are finite and nonzero the sequence records xi as its line, and a spec
    on that line takes the zeros unchecked.  ``source`` defaults to the
    provenance that make_symmetric_spec records.
    """
    zeros = np.empty(taus.size, dtype=np.complex128)
    zeros.real = xi
    zeros.imag = taus
    by_value = _sort_by_modulus(zeros)
    zeros.setflags(write=False)
    if source is None:
        source = f"constructed:symmetric xi={xi!r} n={taus.size} center_value_inverted_at={taus.size}"
    seq = ZeroSequence(zeros=zeros, pairing=Pairing.SYMMETRIC_ABOUT_CENTER, source=source)
    # a value sort has seen every tau finite and nonzero
    if math.isfinite(xi) and xi != 0.0 and (by_value or (np.all(np.isfinite(taus)) and taus.all())):
        object.__setattr__(seq, "_line", xi)
    return seq


def _symmetric_spec(
    xi: float, seq: ZeroSequence, value_at_center: complex, tag: ClassTag, q_constant: complex
) -> EntireFunctionSpec:
    """make_symmetric_spec on the sequence that _line_sequence built: the checks, then the inversion."""
    if xi == 0.0 or not math.isfinite(xi):
        raise ValueError("xi must be a nonzero finite real")
    if len(seq) == 0:
        raise ValueError("taus must be nonempty")
    if seq._line is None:  # type: ignore[attr-defined]
        raise ValueError("every tau must be finite and nonzero")
    value_at_center = complex(value_at_center)
    if value_at_center == 0:
        raise ValueError("value_at_center must be nonzero")
    q_constant = complex(q_constant)

    # invert the product eval_product forms at xi, so the center value round-trips
    from .product_engine import _log_sums, _value_from_log

    exponent = complex(_log_sums(seq, tag.genus, q_constant, [xi], len(seq))[0][0])
    center_product = _value_from_log(exponent)
    value_at_zero = value_at_center / center_product if center_product else math.inf
    if value_at_zero == 0 or not np.isfinite(value_at_zero):
        raise ValueError(f"inverted origin value {value_at_zero!r} is out of range: P = exp({exponent!r})")
    return EntireFunctionSpec(
        class_tag=tag,
        value_at_zero=value_at_zero,
        zero_sequence=seq,
        q_constant=q_constant,
        center_xi=xi,
    )
