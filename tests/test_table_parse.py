"""Zero-table ingest: the one-pass parser against the line-numbered reference.

``cli._parse_rows`` is the reference: it reads a table line by line, skips
comments and blank lines and reports the first bad row with its line number.
A clean table takes the one-pass path instead; every table must come out with
the same zeros, or the same error, either way.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entirefn import (
    ClassTag,
    EntireFunctionSpec,
    Ordering,
    Pairing,
    ZeroSequence,
    core_types,
    make_symmetric_spec,
)
from entirefn import cli
from entirefn.cli import TableFormat, ingest_zero_table, load_spec_file

XI = 0.5
HEADERS = {
    # (format, value key): spec lines before the table; a comment and a blank
    # line keep the inline line numbers away from the row indices
    ("tau_only", "s0"): "class = Y_tilde\n# zeros\n\nxi = 0.5\ns0 = 1\nzeros_format = tau_only\n",
    ("tau_only", "s_at_xi"): (
        "class = L_bar\n# zeros\n\nxi = 0.5\ns_at_xi = 2\nzeros_format = tau_only\n"
    ),
    ("complex_pairs", "s0"): "class = Y\n# zeros\n\ns0 = 1\nzeros_format = complex_pairs\n",
}


def outcome(fn):
    """What a loader gives: the comparable fields of its result, or the error.

    OverflowError counts as an outcome too: the tail fit of some valid genus-1
    tables with extreme magnitudes raises it, whichever parser ran.
    """
    try:
        result = fn()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, ZeroSequence):
        return "sequence", result.zeros.tobytes(), result.ordering, result.pairing, result.source
    spec = result
    seq = spec.zero_sequence
    return (
        "spec",
        spec.class_tag,
        repr(spec.value_at_zero),
        repr(spec.q_constant),
        spec.center_xi,
        seq.zeros.tobytes(),
        seq.ordering,
        seq.pairing,
        seq.source,
    )


def reference_sequence(rows, first_lineno, fmt, origin, source) -> ZeroSequence:
    xi = XI if fmt == "tau_only" else None
    zeros = cli._parse_rows(rows, first_lineno, TableFormat(fmt), xi, origin)
    pairing = Pairing.SYMMETRIC_ABOUT_CENTER if fmt == "tau_only" else Pairing.CONJUGATE_PAIRS
    return ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN, pairing=pairing, source=source)


def reference_spec(rows, first_lineno, fmt, key, origin, spec_file) -> EntireFunctionSpec:
    seq = reference_sequence(rows, first_lineno, fmt, origin, str(spec_file))
    if key == "s_at_xi":
        return make_symmetric_spec(XI, seq.zeros.imag, 2.0, ClassTag.L_BAR)
    tag = ClassTag.Y_TILDE if fmt == "tau_only" else ClassTag.Y
    return EntireFunctionSpec(
        class_tag=tag,
        value_at_zero=1.0,
        zero_sequence=seq.sorted_by_modulus(),
        center_xi=XI if fmt == "tau_only" else None,
    )


# ----------------------------------------------------------- row spellings --

pads = st.sampled_from(["", " ", "\t", "  \t ", " "])
seps = st.sampled_from([" ", "\t", "   ", " \t "])


@st.composite
def nonzero_token(draw) -> str:
    """A finite nonzero float in one of several spellings float() accepts."""
    kind = draw(st.sampled_from(["repr", "exp", "plus", "underscore", "int"]))
    if kind in ("underscore", "int"):
        n = draw(st.integers(min_value=1, max_value=10**7))
        text = f"{n:_}" if kind == "underscore" else str(n)
        return draw(st.sampled_from(["", "-", "+"])) + text
    value = draw(
        st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)
    )
    value *= draw(st.sampled_from([1.0, -1.0]))
    if kind == "exp":
        return f"{value:.{draw(st.integers(0, 17))}e}"
    if kind == "plus":
        return f"+{abs(value)!r}"
    return repr(value)


real_token = st.one_of(nonzero_token(), st.sampled_from(["0", "-0.0", "+0e0", "-0", "0.000"]))


@st.composite
def clean_row(draw, fmt: str) -> str:
    if fmt == "tau_only":
        body = draw(nonzero_token())
    else:
        body = draw(real_token) + draw(seps) + draw(nonzero_token())
    return draw(pads) + body + draw(pads)


DEFECTS = {
    "tau_only": ["", "   ", "# comment", "#", "1.5 2.5", "nan", "inf", "-inf", "0", "-0.0",
                 "1.2.3", "abc", "1__0", "0x10", "1e400",
                 # rows that numpy's fromstring and float() might read apart:
                 # two blank rows, a padded pair, spellings float() takes, a
                 # cut exponent, a blank row before a value
                 "\n", " 1.5 2.5\t", "+.5", "1.e5", "1e", "\n1.5"],
    "complex_pairs": ["", "\t", "# c 1", "#", "1 2 3", "1", "nan 1", "1 inf", "-inf -inf",
                      "0 0", "-0.0 0e5", "1 1.2.3", "abc 1", "1 1__0", "1e400 1",
                      # two rows whose four tokens would pair up if rows were ignored
                      "1 2 3\n4",
                      # a token fromstring reads as two values, a cut exponent,
                      # a row of blanks only
                      "1-2 3", "1e 2", " \t "],
}


@st.composite
def table(draw, fmt: str, defect: str | None) -> list[str]:
    """Clean rows, with the rows of ``defect`` inserted at a random row when given."""
    rows = draw(st.lists(clean_row(fmt), min_size=0, max_size=12))
    if defect is not None:
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        rows[at:at] = defect.split("\n")
    return rows


CASES = [
    (fmt, key, defect)
    for fmt, key in sorted(HEADERS)
    for defect in [None, *DEFECTS[fmt]]
]


def assert_loaders_agree(folder, fmt: str, key: str, body: str) -> dict:
    """Load the table ``body`` (file and inline spec, and ingest); compare with the line loop.

    Returns the outcomes.
    """
    rows = body.splitlines()
    table_path = folder / "t.zeros"
    table_path.write_bytes(body.encode())
    header = HEADERS[fmt, key]
    newline = "\r\n" if "\r\n" in body else "\n"
    file_spec = folder / "file.spec"
    file_spec.write_bytes((header + "zeros_file = t.zeros\n").encode())
    inline_spec = folder / "inline.spec"
    inline_spec.write_bytes((header + "zeros_inline:" + newline + body).encode())
    first_inline = header.count("\n") + 2

    resolved = str(table_path.resolve())
    expected = {
        "ingest": outcome(
            lambda: reference_sequence(
                rows, 1, fmt, str(table_path), f"{table_path}:{fmt}"
            ).sorted_by_modulus()
        ),
        "file": outcome(lambda: reference_spec(rows, 1, fmt, key, resolved, file_spec)),
        "inline": outcome(
            lambda: reference_spec(
                rows, first_inline, fmt, key, f"{inline_spec}:zeros_inline", inline_spec
            )
        ),
    }
    actual = {
        "ingest": outcome(lambda: ingest_zero_table(table_path, fmt, xi=XI)),
        "file": outcome(lambda: load_spec_file(file_spec)[0]),
        "inline": outcome(lambda: load_spec_file(inline_spec)[0]),
    }
    assert actual == expected

    if actual["file"][0] == "spec":
        # text mode reads "\r\n" as "\n": the digest is of the text as read
        digest = hashlib.sha256(table_path.read_text().encode()).hexdigest()
        assert load_spec_file(file_spec)[1][1] == ("zeros:t.zeros", digest)
    return actual


@pytest.mark.parametrize(("fmt", "key", "defect"), CASES)
@settings(max_examples=12)
@given(data=st.data(), newline=st.sampled_from(["\n", "\r\n"]))
def test_fast_path_matches_line_loop(tmp_path_factory, fmt, key, defect, data, newline) -> None:
    rows = data.draw(table(fmt, defect))
    body = "".join(row + newline for row in rows)
    assert_loaders_agree(tmp_path_factory.mktemp("tables"), fmt, key, body)


# Whole tau_only bodies at the edges of the one-pass gate.
EDGE_BODIES = [
    "\n", "\n\n", "\n1.5\n", "1.5\n\n", "1.5\n\n2.5\n", "1.5", "1.5\n2.5",
    "1.5 2.5\n", " 1.5 2.5 \n", "1.5\t\n", "+.5\n", "1.e5\n-.5e-3\n", "1e\n", "1e+\n",
    ".\n", "-\n", "e5\n", "1-2\n", "1..2\n", "--1\n", "+-1\n", "1e5e5\n", "1e400\n",
    "1e-400\n", "5e-324\n", "0\n", "-0\n", "00012\n", "1E5\n", "\x0c1.5\n", "1.5\x0b2.5\n",
]


@pytest.mark.parametrize("key", ["s0", "s_at_xi"])
@pytest.mark.parametrize("body", EDGE_BODIES)
def test_edge_bodies_match_line_loop(tmp_path, body, key) -> None:
    assert_loaders_agree(tmp_path, "tau_only", key, body)


# Whole complex_pairs bodies at the edges of the one-pass gate.
PAIR_EDGE_BODIES = [
    "1 2\n", "1 2", "1\t2\n", "\t1\t2\t", " 1  2 \n", "1 2\n3 4", "1 2 \n\t3 4\n",
    "\n", "1 2\n\n3 4\n", "\n1 2\n", "1 2\n\n", " \n1 2\n", "1 2\n\t\n", "1 2\n \t \n",
    "1 2 3\n", "1\n2\n", "1\n2 3 4\n", "1 2 3\n4\n", "1-2 3\n", "1 2-3\n", "1e 2\n",
    "1 2e\n", "1..2 3\n", "1e5e5 1\n", "+.5 -.5\n", "1.e5 -.5e-3\n", "0 1\n", "1 0\n",
    "0 0\n", "-0.0 0e5\n", "1e400 1\n", "1 1e-400\n", "5e-324 5e-324\n", "00012 1E5\n",
    "1 2\x0c\n", "1\x0b2\n", "1 2\n# c\n",
]


@pytest.mark.parametrize("body", PAIR_EDGE_BODIES)
def test_pair_edge_bodies_match_line_loop(tmp_path, body) -> None:
    assert_loaders_agree(tmp_path, "complex_pairs", "s0", body)


# ------------------------------------------------- guards on the fast path --


def line_table(n: int, fmt: str) -> list[str]:
    k = np.arange(1, n // 2 + 1, dtype=float)
    taus = np.empty(n)
    taus[0::2], taus[1::2] = k, -k
    taus = taus[np.random.default_rng(n).permutation(n)]
    if fmt == "tau_only":
        return [repr(t) for t in taus.tolist()]
    return [f"{XI!r} {t!r}" for t in taus.tolist()]


@pytest.mark.parametrize("fmt", ["tau_only", "complex_pairs"])
def test_clean_tables_skip_the_line_loop(tmp_path, monkeypatch, fmt) -> None:
    rows = line_table(10_000, fmt)
    body = "\n".join(rows) + "\n"
    (tmp_path / "t.zeros").write_text(body)
    head = HEADERS[fmt, "s0"]
    (tmp_path / "file.spec").write_text(head + "zeros_file = t.zeros\n")
    (tmp_path / "inline.spec").write_text(head + "zeros_inline:\n" + body)
    expected = reference_sequence(rows, 1, fmt, "t.zeros", "").sorted_by_modulus().zeros

    def line_loop(*args):
        raise AssertionError("a clean table went through the line-numbered parser")

    monkeypatch.setattr(cli, "_parse_rows", line_loop)
    loaded = [
        ingest_zero_table(tmp_path / "t.zeros", fmt, xi=XI),
        load_spec_file(tmp_path / "file.spec")[0].zero_sequence,
        load_spec_file(tmp_path / "inline.spec")[0].zero_sequence,
    ]
    for seq in loaded:
        assert seq.zeros.tobytes() == expected.tobytes()


def test_every_load_sorts_once(tmp_path, monkeypatch) -> None:
    calls = []
    original = core_types._sort_by_modulus

    def spy(zeros):
        calls.append(zeros.size)
        return original(zeros)

    monkeypatch.setattr(core_types, "_sort_by_modulus", spy)
    (tmp_path / "t.zeros").write_text("\n".join(line_table(100, "tau_only")) + "\n")
    head = "class = Y_tilde\nxi = 0.5\nzeros_format = tau_only\nzeros_file = t.zeros\n"
    for key in ("s0", "s_at_xi"):
        (tmp_path / f"{key}.spec").write_text(head + f"{key} = 1\n")
        calls.clear()
        load_spec_file(tmp_path / f"{key}.spec")
        assert calls == [100], key
    calls.clear()
    ingest_zero_table(tmp_path / "t.zeros", "tau_only", xi=XI)
    assert calls == [100]


@pytest.mark.parametrize(
    ("body", "one_pass"),
    [
        # read_text turns "\r\n" into "\n", so a CRLF table is clean as read
        ("1.5\r\n-1.5\r\n2.5\r\n-2.5\r\n", True),
        # padding is outside the gate: the line parser reads the table
        (" 1.5\n-1.5 \n2.5\n\t-2.5\n", False),
    ],
)
def test_padded_or_crlf_table_matches_line_loop(tmp_path, monkeypatch, body, one_pass) -> None:
    for key in ("s0", "s_at_xi"):
        outcomes = assert_loaders_agree(tmp_path, "tau_only", key, body)
        assert {name: result[0] for name, result in outcomes.items()} == {
            "ingest": "sequence", "file": "spec", "inline": "spec"
        }
    calls = []
    original = cli._parse_rows
    monkeypatch.setattr(cli, "_parse_rows", lambda *args: calls.append(1) or original(*args))
    load_spec_file(tmp_path / "file.spec")
    load_spec_file(tmp_path / "inline.spec")
    ingest_zero_table(tmp_path / "t.zeros", "tau_only", xi=XI)
    assert len(calls) == (0 if one_pass else 3)


@pytest.mark.parametrize("padded", [False, True])
def test_padded_pair_table_takes_one_pass_and_a_blank_row_does_not(tmp_path, monkeypatch, padded) -> None:
    body = " 1.5\t-2.5\n0.5   2.5 \n\t-1e3\t+.5\t\n" if padded else "1.5 -2.5\n\n0.5 2.5\n-1e3 +.5\n"
    outcomes = assert_loaders_agree(tmp_path, "complex_pairs", "s0", body)
    assert {name: result[0] for name, result in outcomes.items()} == {
        "ingest": "sequence", "file": "spec", "inline": "spec"
    }
    calls = []
    original = cli._parse_rows
    monkeypatch.setattr(cli, "_parse_rows", lambda *args: calls.append(1) or original(*args))
    load_spec_file(tmp_path / "file.spec")
    load_spec_file(tmp_path / "inline.spec")
    ingest_zero_table(tmp_path / "t.zeros", "complex_pairs")
    assert len(calls) == (0 if padded else 3)


@pytest.mark.parametrize(
    "body",
    [
        "\n",  # a lone blank row
        "1 2\n\n3 4\n",  # a blank row between rows
        " \t\n1 2\n",  # a row of blanks only
        "1 2 3\n",  # three tokens in a row
        "1\n2 3 4\n",  # four tokens over two rows, paired wrongly
        "1-2 3\n",  # a token that fromstring reads as two values
        "1e 2\n",  # unmatched data: ValueError
        "1 2\r\n",  # a byte outside the gate
        "1 2\n#\n",  # a comment row
        "",  # no rows
    ],
)
def test_one_pass_gate_refuses_pairs(body) -> None:
    assert cli._one_pass(body, 2) is None


def test_one_pass_reads_pairs_as_float_does() -> None:
    tokens = ["+.5", "1.e5", "-0.25e-3", "5e-324", "1E5", "00012", "1.7976931348623157e308", "-0"]
    values = cli._one_pass(" {}\t{}\n{}  {} \n\t{}\t{}\n{} {}".format(*tokens), 2)
    assert values is not None
    assert values.tobytes() == np.array([float(t) for t in tokens]).tobytes()


@pytest.mark.parametrize(
    "body",
    [
        "\n",  # a lone blank row, which fromstring reads as [-1.]
        "1.5\n\n2.5\n",  # a blank row between values
        "\n1.5\n",  # a leading blank row
        "1.5 2.5\n",  # a space, which fromstring reads as a separator
        "1e\n",  # unmatched data: ValueError
        "1.5\n#\n",  # a character outside the gate
        "",  # no rows
    ],
)
def test_one_pass_gate_refuses(body) -> None:
    assert cli._one_pass(body, 1) is None


def test_one_pass_gate_takes_a_deprecation_warning_as_unmatched_data(monkeypatch) -> None:
    # numpy before 2.x warns on unmatched data and returns what it read
    def warn_and_read(text, dtype, sep):
        import warnings

        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([1.5])

    monkeypatch.setattr(np, "fromstring", warn_and_read)
    assert cli._one_pass("1.5\n2-5\n", 1) is None


def test_one_pass_gate_counts_the_values(monkeypatch) -> None:
    monkeypatch.setattr(np, "fromstring", lambda text, dtype, sep: np.array([1.5]))
    assert cli._one_pass("1.5\n2.5\n", 1) is None
    assert cli._one_pass("1.5\n", 1) is not None


def test_one_pass_reads_as_float_does() -> None:
    rows = ["+.5", "1.e5", "-0.25e-3", "5e-324", "1E5", "00012", "1.7976931348623157e308"]
    taus = cli._one_pass("\n".join(rows), 1)
    assert taus is not None
    assert taus.tobytes() == np.array([float(r) for r in rows]).tobytes()
