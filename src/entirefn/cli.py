"""Batch command-line interface with deterministic machine-readable reports.

The CLI only maps library results to records: each subcommand calls the
library (identity checks: :mod:`entirefn.identities`) and returns (quantity,
value) pairs, and every record carries the effective --terms and --tolerance.

Spec files
----------
Plain text, one ``key = value`` per line; lines whose first non-blank
character is ``#`` are comments.  Keys:

    class        Y | L | Y_tilde | L_bar                (required)
    xi           real center line (symmetric classes)
    q            complex rate constant, default 0       (genus 1 only)
    s0           complex value at the origin            } exactly one
    s_at_xi      complex value at the center line       } of these two
                 (every zero on Re s = xi)
    zeros_format complex_pairs | tau_only               (default complex_pairs)
    zeros_file   path to a zero table, relative to the spec file

A line consisting of ``zeros_inline:`` switches the rest of the file to
inline zero-table rows in the declared format.  The marker excludes
``zeros_file`` even when no rows follow it.

Zero tables
-----------
``complex_pairs``: two floats per line (real and imaginary part).
``tau_only``: one float per line (offset along the center line; needs xi).
Floats are read exactly as ``float()`` reads them on every path.  A table
(file or inline) of digits, ``. e E + -`` and newlines only (spaces and tabs
too in ``complex_pairs``), with its one or two floats on every row, is read
in one ``np.fromstring`` pass.  Any other table, and a one-pass table with a
value that is not a finite nonzero zero or offset, goes through the
line-numbered parser, which ignores ``#`` comment lines and blank lines and
raises the error of the first bad line, so the errors are the same either
way; they carry 1-based line numbers.  Ingested sequences are normalized to
modulus order with the deterministic tie-break, sorted once.

Reports
-------
One record per numeric output:

    record quantity=<name> value=<number> truncation=<N> tolerance=<tol>

``meta`` lines carry the command echo and input digests, and a trailing
``meta report_digest`` line hashes everything above it.  The only
non-deterministic line is the final ``time wall_s`` line, which is excluded
from the digest: identical argv and input files reproduce every other byte.

Exit codes: 0 success, 1 validation or data error (including a failed
identity check), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
import time
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .analysis import estimate_exponent, estimate_order, verify_multiplicity
from .core_types import (
    ClassTag,
    EntireFunctionSpec,
    Ordering,
    Pairing,
    ZeroSequence,
    _line_sequence,
    _symmetric_spec,
)
from .critical_line import critical_line_profile, scan_real_zeros
from .identities import IDENTITY_TAGS, compare_shift, verify_identity
from .product_engine import _retained, eval_product
from .series_engine import even_series, taylor_coefficients

__all__ = [
    "TableFormat",
    "ZeroTableFile",
    "Record",
    "RunReport",
    "parse_complex",
    "format_complex",
    "ingest_zero_table",
    "write_zero_table",
    "load_spec_file",
    "write_spec_file",
    "run_command",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2

DEFAULT_TERMS = 10_000
DEFAULT_TOLERANCE = 1e-6


class TableFormat(str, Enum):
    COMPLEX_PAIRS = "complex_pairs"
    TAU_ONLY = "tau_only"


@dataclass(frozen=True)
class ZeroTableFile:
    """Provenance of one ingested zero table."""

    path: str
    table_format: TableFormat
    xi: float | None
    count: int
    sha256: str


def parse_complex(text: str) -> complex:
    """Parse '1+2i', '1+2j', '-0.5', 'i', or '(1+2j)' into a complex number."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise ValueError("empty complex literal")
    try:
        value = complex(cleaned)
    except ValueError:
        # engineering notation: retry with i as the imaginary unit, but only
        # after the plain parse fails so words like 'inf' keep their meaning
        if "i" not in cleaned or "j" in cleaned:
            raise ValueError(f"malformed complex literal {text!r}") from None
        try:
            value = complex(cleaned.replace("i", "j"))
        except ValueError as exc:
            raise ValueError(f"malformed complex literal {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"non-finite complex literal {text!r}")
    return value


def format_complex(z: complex) -> str:
    sign = "+" if (z.imag >= 0 or math.isnan(z.imag)) else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Record:
    quantity: str
    value: object
    truncation: int
    tolerance: float

    def render(self) -> str:
        return (
            f"record quantity={self.quantity} value={_format_value(self.value)} "
            f"truncation={self.truncation} tolerance={self.tolerance!r}"
        )


@dataclass(frozen=True)
class RunReport:
    """Full result of one CLI invocation.

    Rendered output is byte-identical across runs for identical argv and
    input files, except for the trailing wall-time line (excluded from the
    report digest).
    """

    argv: tuple[str, ...]
    input_digests: tuple[tuple[str, str], ...]
    records: tuple[Record, ...]
    errors: tuple[str, ...]
    exit_code: int
    wall_time_s: float

    def deterministic_lines(self) -> list[str]:
        lines = [f"meta command = {' '.join(self.argv)}"]
        for name, digest in self.input_digests:
            lines.append(f"meta input {name} = sha256:{digest}")
        for err in self.errors:
            lines.append(f"meta error = {err}")
        lines.extend(record.render() for record in self.records)
        lines.append(f"meta exit_code = {self.exit_code}")
        return lines

    @property
    def digest(self) -> str:
        return hashlib.sha256(self._body().encode()).hexdigest()

    def _body(self) -> str:
        return "\n".join(self.deterministic_lines()) + "\n"

    def render(self) -> str:
        body = self._body()  # built once: the text and the digest both need it
        digest = hashlib.sha256(body.encode()).hexdigest()
        return f"{body}meta report_digest = sha256:{digest}\ntime wall_s = {self.wall_time_s:.6f}\n"


# ----------------------------------------------------------------- tables --


# The bytes of a table body that is read in one pass; a complex_pairs body may
# also hold spaces and tabs.
_TABLE_BYTES = b"0123456789.eE+-\n"

# Per format: floats per row, and the three error texts that differ.
_ROW_RULES = {
    TableFormat.COMPLEX_PAIRS: (2, "expected two floats", "non-finite zero", "zero must be nonzero"),
    TableFormat.TAU_ONLY: (
        1, "expected one float", "non-finite tau", "tau must be nonzero (line zeros sit off the center)"
    ),
}


def _one_pass(text: str, per_row: int) -> np.ndarray | None:
    """The floats of a clean table body, ``per_row`` to a row, in one pass; else None (values unchecked).

    Clean: only digits, ``. e E + -`` and newlines (spaces and tabs too at two
    per row), and ``per_row`` tokens on every row.  numpy's ``fromstring``
    reads a token as ``float()`` does (both use CPython's string-to-double)
    where it reads one value per token; elsewhere they differ: it reads "1-2"
    as two values.
    """
    data = text.encode("ascii") if text.isascii() else b""
    if not data or data.translate(None, _TABLE_BYTES + (b" \t" if per_row == 2 else b"")):
        return None
    codes = np.frombuffer(data, dtype=np.uint8)
    rows = np.count_nonzero(codes == ord("\n")) + (codes[-1] != ord("\n"))  # the last row may lack its newline
    events = codes > ord(" ")  # past the gate, the bytes of tokens,
    events[1:] &= codes[:-1] <= ord(" ")  # where a token begins
    if np.count_nonzero(events) != per_row * rows:
        return None
    # With no space or tab a row holds at most one token.  Else, in text order,
    # every (per_row + 1)-th of the token starts and row ends must be a row end.
    if per_row > 1:
        ends = codes == ord("\n")
        events |= ends
        if not np.compress(events, ends)[per_row :: per_row + 1].all():
            return None
    # unmatched data raises ValueError on numpy 2.4 and warns on older numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, dtype=float, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return values if values.size == per_row * rows else None


def _parse_rows(
    rows: list[str], first_lineno: int, fmt: TableFormat, xi: float | None, origin: str
) -> np.ndarray:
    """Zeros of table rows, line by line: the reference parser.

    ``#`` comment rows and blank rows are skipped; the first bad row raises
    ValueError with its line number (the first row is ``first_lineno``).
    """
    per_row, expected, non_finite, zero = _ROW_RULES[fmt]
    zeros: list[complex] = []
    for lineno, raw in enumerate(rows, start=first_lineno):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != per_row:
            raise ValueError(f"{origin} line {lineno}: {expected}, got {text!r}")
        try:
            values = [float(part) for part in parts]
        except ValueError as exc:
            raise ValueError(f"{origin} line {lineno}: malformed float in {text!r}") from exc
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{origin} line {lineno}: {non_finite}")
        if not any(values):
            raise ValueError(f"{origin} line {lineno}: {zero}")
        zeros.append(complex(*values) if per_row == 2 else complex(xi, *values))  # type: ignore[arg-type]
    return np.asarray(zeros, dtype=np.complex128)


def _line_table(
    text: str, first_lineno: int, xi: float | None, origin: str, source: str | None
) -> ZeroSequence:
    """A tau_only table body as the sequence of its zeros xi + i tau, in modulus order.

    A clean body is read in one pass.  Any other, and a clean one that
    _line_sequence cannot vouch for, goes through the line-numbered parser,
    which raises the error of the first bad row.  ``source`` None names the
    construction, as make_symmetric_spec does.
    """
    if xi is None:
        raise ValueError(f"{origin}: tau_only format requires xi")
    taus = _one_pass(text, 1)
    one_pass = taus is not None
    if not one_pass:
        taus = _parse_rows(text.splitlines(), first_lineno, TableFormat.TAU_ONLY, xi, origin).imag
    seq = _line_sequence(xi, taus, source)
    if one_pass and seq._line is None:  # type: ignore[attr-defined]
        _parse_rows(text.splitlines(), first_lineno, TableFormat.TAU_ONLY, xi, origin)
    return seq


def _pairs_table(text: str, first_lineno: int, origin: str, source: str) -> ZeroSequence:
    """A complex_pairs table body as a conjugate-paired sequence, in the order given.

    A clean table is read in one pass; any other, and a clean one with a row
    that is not a finite nonzero zero, goes through the line-numbered parser,
    which skips comments and blanks and raises the error of the first bad row.
    """
    pairs = _one_pass(text, 2)
    if pairs is not None and np.isfinite(pairs).all() and pairs.reshape(-1, 2).any(axis=1).all():
        zeros = pairs.view(np.complex128)
    else:
        zeros = _parse_rows(text.splitlines(), first_lineno, TableFormat.COMPLEX_PAIRS, None, origin)
    zeros.setflags(write=False)
    return ZeroSequence(
        zeros=zeros, ordering=Ordering.AS_GIVEN, pairing=Pairing.CONJUGATE_PAIRS, source=source
    )


def _table_rows(seq: ZeroSequence, table_format: TableFormat) -> list[str]:
    """One row per zero: the offset for ``tau_only``, else real and imaginary part."""
    if table_format is TableFormat.TAU_ONLY:
        return [repr(float(t)) for t in seq.zeros.imag]
    return [f"{float(z.real)!r} {float(z.imag)!r}" for z in seq.zeros]


def ingest_zero_table(
    path: str | Path,
    table_format: TableFormat | str,
    xi: float | None = None,
) -> ZeroSequence:
    """Read a zero table and normalize it to modulus order.

    ``complex_pairs`` rows are grouped as conjugate pairs; ``tau_only`` rows
    (which require ``xi``) as symmetric pairs about the center line.
    """
    table_format = TableFormat(table_format)
    path = Path(path)
    text = path.read_text()
    source = f"{path}:{table_format.value}"
    if table_format is TableFormat.TAU_ONLY:
        return _line_table(text, 1, xi, str(path), source)
    return _pairs_table(text, 1, str(path), source).sorted_by_modulus()


def write_zero_table(
    path: str | Path,
    seq: ZeroSequence,
    table_format: TableFormat | str,
    xi: float | None = None,
) -> ZeroTableFile:
    """Write a zero table that ingests back to the same multiset exactly."""
    table_format = TableFormat(table_format)
    path = Path(path)
    if table_format is TableFormat.TAU_ONLY:
        if xi is None:
            raise ValueError("tau_only format requires xi")
        if not np.all(seq.zeros.real == float(xi)):
            raise ValueError("tau_only table requires every zero to sit on Re z = xi")
    body = "\n".join(_table_rows(seq, table_format)) + "\n"
    path.write_text(body)
    return ZeroTableFile(
        path=str(path),
        table_format=table_format,
        xi=None if xi is None else float(xi),
        count=len(seq),
        sha256=hashlib.sha256(body.encode()).hexdigest(),
    )


# ------------------------------------------------------------- spec files --


def _lines(text: str):
    """(line, offset past it) for each of ``text.splitlines(keepends=True)``, lazily.

    A loop that stops at the inline table marker leaves the rows unsplit.
    """
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        for line in text[pos:end].splitlines(keepends=True):  # one, unless other breaks split it
            pos += len(line)
            yield line, pos


def load_spec_file(path: str | Path) -> tuple[EntireFunctionSpec, tuple[tuple[str, str], ...]]:
    """Load an EntireFunctionSpec from a spec file.

    Returns the spec plus (name, sha256) digests of every file read.
    """
    path = Path(path)
    text = path.read_text()
    digests = [(f"spec:{path.name}", hashlib.sha256(text.encode()).hexdigest())]

    keys: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    marker: int | None = None  # line number of "zeros_inline:"; table rows follow it
    inline = ""  # the text after the marker line
    for lineno, (raw, end) in enumerate(_lines(text), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "zeros_inline:":
            marker, inline = lineno, text[end:]
            break
        if "=" not in stripped:
            line = raw.splitlines()[0]
            raise ValueError(f"{path} line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in keys:
            raise ValueError(f"{path} line {lineno}: duplicate key {key!r}")
        keys[key] = value
        key_lines[key] = lineno

    def parsed(key: str, parse: Callable, default=None):
        if key not in keys:
            return default
        try:
            return parse(keys[key])
        except ValueError as exc:
            raise ValueError(f"{path} line {key_lines[key]}: {exc}") from exc

    known = {"class", "xi", "q", "s0", "s_at_xi", "zeros_format", "zeros_file"}
    unknown = set(keys) - known
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    if "class" not in keys:
        raise ValueError(f"{path}: 'class' is required")
    try:
        tag = ClassTag(keys["class"])
    except ValueError:
        raise ValueError(f"{path}: unknown class {keys['class']!r}") from None

    xi = parsed("xi", float)
    q = parsed("q", parse_complex, 0j)
    if ("s0" in keys) == ("s_at_xi" in keys):
        raise ValueError(f"{path}: exactly one of s0 / s_at_xi is required")
    fmt = parsed("zeros_format", TableFormat, TableFormat.COMPLEX_PAIRS)

    if "zeros_file" in keys and marker is not None:
        raise ValueError(f"{path}: zeros_file and zeros_inline are mutually exclusive")
    if "zeros_file" in keys:
        table_path = (path.parent / keys["zeros_file"]).resolve()
        body = table_path.read_text()
        digests.append((f"zeros:{table_path.name}", hashlib.sha256(body.encode()).hexdigest()))
        first, origin = 1, str(table_path)
    else:
        body, first, origin = inline, (marker or 0) + 1, f"{path}:zeros_inline"
    if fmt is TableFormat.TAU_ONLY:
        # an s_at_xi spec keeps the provenance make_symmetric_spec gives
        seq = _line_table(body, first, xi, origin, None if "s_at_xi" in keys else str(path))
    else:
        seq = _pairs_table(body, first, origin, str(path))

    if "s_at_xi" in keys:
        if not tag.symmetric:
            raise ValueError(f"{path}: s_at_xi requires class Y_tilde or L_bar")
        if xi is None:
            raise ValueError(f"{path}: s_at_xi requires xi")
        if fmt is TableFormat.COMPLEX_PAIRS:
            off_line = seq.zeros[seq.zeros.real != xi]
            if off_line.size:
                first_off = format_complex(complex(off_line[0]))
                raise ValueError(f"{path}: s_at_xi requires every zero on Re s = xi, got {first_off}")
            seq = _line_sequence(xi, seq.zeros.imag)
        value_at_center = parsed("s_at_xi", parse_complex)
        spec = _symmetric_spec(xi, seq, value_at_center, tag, q)
    else:
        spec = EntireFunctionSpec(
            class_tag=tag,
            value_at_zero=parsed("s0", parse_complex),
            zero_sequence=seq if fmt is TableFormat.TAU_ONLY else seq.sorted_by_modulus(),
            q_constant=q,
            center_xi=xi if tag.symmetric else None,
        )
    return spec, tuple(digests)


def write_spec_file(
    path: str | Path,
    spec: EntireFunctionSpec,
    zeros_file: str | None = None,
) -> None:
    """Write a spec file, inlining the zero table unless a path is given."""
    path = Path(path)
    symmetric = spec.class_tag.symmetric
    fmt = TableFormat.TAU_ONLY if symmetric else TableFormat.COMPLEX_PAIRS
    lines = [f"class = {spec.class_tag.value}"]
    if symmetric:
        lines.append(f"xi = {spec.center_xi!r}")
    if spec.q_constant != 0:
        lines.append(f"q = {format_complex(spec.q_constant)}")
    lines.append(f"s0 = {format_complex(spec.value_at_zero)}")
    lines.append(f"zeros_format = {fmt.value}")
    if zeros_file is not None:
        write_zero_table(path.parent / zeros_file, spec.zero_sequence, fmt, spec.center_xi)
        lines.append(f"zeros_file = {zeros_file}")
    else:
        lines.append("zeros_inline:")
        lines.extend(_table_rows(spec.zero_sequence, fmt))
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------ subcommands --


def _terms(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return tol


@functools.cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entirefn",
        description="Evaluate order-one entire functions from their zero data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str, handler: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--spec", required=True, help="path to a spec file")
        p.add_argument("--terms", type=_terms, default=DEFAULT_TERMS, help="product truncation N")
        p.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
        return p

    p = command("eval", "evaluate the truncated product at a point", _cmd_eval)
    p.add_argument("--s", type=parse_complex, required=True)

    p = command("series", "Taylor coefficients about a center", _cmd_series)
    p.add_argument("--center", type=parse_complex, default=None)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--even", action="store_true", help="even-series form about the center line")

    p = command("shift", "recentered product and its residuals", _cmd_shift)
    p.add_argument("--alpha", type=parse_complex, required=True)
    p.add_argument("--s", type=parse_complex, required=True)

    for name, text, handler in (
        ("line", "sample the center-line restriction", _cmd_line),
        ("scan", "recover real line zeros by sign changes", _cmd_scan),
    ):
        p = command(name, text, handler)
        p.add_argument("--x-min", type=float, required=True)
        p.add_argument("--x-max", type=float, required=True)
        p.add_argument("--samples", type=int, default=None)

    p = command("order", "growth-order estimate", _cmd_order)
    p.add_argument("--v-min", type=float, required=True)
    p.add_argument("--v-max", type=float, required=True)
    p.add_argument("--radii", type=int, default=16)
    p.add_argument("--angular-samples", type=int, default=64)

    p = command("exponent", "zero-counting exponent estimate", _cmd_exponent)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)

    p = command("mult", "winding-number multiplicity check", _cmd_mult)
    p.add_argument("--center", type=parse_complex, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--nodes", type=int, default=512)

    p = command("verify-identity", "run one built-in identity check", _cmd_verify)
    # defaults of the options below are verify_identity's
    p.add_argument("--theorem", choices=IDENTITY_TAGS, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--draws", type=int)
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--kmax", type=int, dest="k_max", metavar="KMAX")

    return parser


# Each subcommand returns its outputs as (quantity, value) pairs in report
# order; run_command turns them into records.


def _cmd_eval(spec, ns) -> list[tuple[str, object]]:
    ev = eval_product(spec, ns.s, ns.terms)
    return [
        ("value", ev.value),
        ("tail_bound", "indeterminate" if ev.tail_bound is None else ev.tail_bound),
        ("nearest_zero_distance", ev.nearest_zero_distance),
        ("near_zero", ev.near_zero),
    ]


def _cmd_series(spec, ns) -> list[tuple[str, object]]:
    if ns.even:
        expansion = even_series(spec, ns.kmax, ns.terms)
    else:
        if ns.center is None:
            raise ValueError("series requires --center unless --even is given")
        expansion = taylor_coefficients(spec, ns.center, ns.kmax, ns.terms)
    pairs = [(f"c[{k}]", c) for k, c in enumerate(expansion.coefficients)]
    if expansion.odd_residuals is not None:
        pairs.append(("odd_residual_max", max(expansion.odd_residuals, default=0.0)))
    return pairs


def _cmd_shift(spec, ns) -> list[tuple[str, object]]:
    shifted, direct, disagreement, residual = compare_shift(spec, ns.alpha, ns.s, ns.terms)
    return [
        ("shifted_value", shifted),
        ("direct_value", direct),
        ("disagreement", disagreement),
        ("constant_residual", residual),
    ]


def _cmd_line(spec, ns) -> list[tuple[str, object]]:
    profile = critical_line_profile(spec, ns.x_min, ns.x_max, ns.samples, ns.terms)
    pairs = [("v0", profile.v0), ("imag_max", profile.imag_max)]
    for j, (x, v) in enumerate(zip(profile.grid, profile.values)):
        pairs.append((f"x[{j}]", float(x)))
        pairs.append((f"V[{j}]", complex(v)))
    return pairs


def _cmd_scan(spec, ns) -> list[tuple[str, object]]:
    profile = critical_line_profile(spec, ns.x_min, ns.x_max, ns.samples, ns.terms)
    found = scan_real_zeros(profile, spec)
    pairs = [("n_zeros", len(found.estimates))]
    for j, est in enumerate(found.estimates):
        pairs.append((f"tau_hat[{j}]", est.tau))
        pairs.append((f"residual[{j}]", est.residual))
    return pairs


def _cmd_order(spec, ns) -> list[tuple[str, object]]:
    est = estimate_order(
        spec, ns.v_min, ns.v_max, ns.radii, ns.terms, angular_samples=ns.angular_samples
    )
    return [
        ("order", est.order),
        ("rms_residual", est.rms_residual),
        ("radii_used", len(est.radii)),
    ]


def _cmd_exponent(spec, ns) -> list[tuple[str, object]]:
    seq = spec.zero_sequence
    if ns.terms < len(seq):  # count only the retained zeros, in modulus order
        seq = ZeroSequence(zeros=_retained(spec, ns.terms), pairing=seq.pairing, source=seq.source)
    est = estimate_exponent(seq, ns.r_min, ns.r_max)
    return [
        ("exponent", est.exponent),
        ("rms_residual", est.rms_residual),
        ("counting_points", len(est.counting_pairs)),
    ]


def _cmd_mult(spec, ns) -> list[tuple[str, object]]:
    res = verify_multiplicity(spec, ns.center, ns.radius, ns.nodes, ns.terms)
    return [("winding", res.winding), ("raw_integral", res.raw_integral), ("nodes", res.nodes)]


def _cmd_verify(spec, ns) -> list[tuple[str, object]]:
    names = ("seed", "draws", "x_min", "x_max", "samples", "k_max")
    options = {name: getattr(ns, name) for name in names if getattr(ns, name) is not None}
    result = verify_identity(spec, ns.theorem, ns.terms, ns.tolerance, **options)
    return [*result.quantities, ("pass", result.passed)]


def run_command(argv: Sequence[str]) -> RunReport:
    """Execute one CLI invocation and return its report (never raises)."""
    argv = tuple(str(a) for a in argv)
    start = time.perf_counter()
    digests: tuple[tuple[str, str], ...] = ()
    records: tuple[Record, ...] = ()
    errors: tuple[str, ...] = ()
    try:
        ns = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        errors = () if code == 0 else ("usage error",)
    else:
        try:
            spec, digests = load_spec_file(ns.spec)
            # --terms is a cap, not a demand: small inputs use every zero they have
            ns.terms = min(ns.terms, spec.n_zeros)
            pairs = ns.handler(spec, ns)
        except (ValueError, OSError) as exc:
            errors, code = (str(exc),), EXIT_VALIDATION
        else:
            records = tuple(Record(q, v, ns.terms, ns.tolerance) for q, v in pairs)
            # a failed identity check is a validation failure
            code = EXIT_VALIDATION if ("pass", False) in pairs else EXIT_OK
    return RunReport(
        argv=argv,
        input_digests=digests,
        records=records,
        errors=errors,
        exit_code=code,
        wall_time_s=time.perf_counter() - start,
    )


def main(argv: Sequence[str] | None = None) -> int:
    report = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
