from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import entirefn
from entirefn import (
    ClassTag,
    Ordering,
    Pairing,
    ZeroSequence,
    estimate_exponent,
    make_symmetric_spec,
)
from entirefn.cli import (
    TableFormat,
    _build_parser,
    format_complex,
    ingest_zero_table,
    load_spec_file,
    main,
    parse_complex,
    run_command,
    write_spec_file,
    write_zero_table,
)
from entirefn.identities import verify_identity
from entirefn.series_engine import even_series

SYMMETRIC_SPEC = """\
class = Y_tilde
xi = 1.0
s_at_xi = 1
zeros_format = tau_only
zeros_inline:
1.0
-1.0
2.0
-2.0
3.0
-3.0
"""

GENUS1_SPEC = """\
class = L
s0 = 1
zeros_inline:
0.0 1.0
0.0 -1.0
0.0 2.0
0.0 -2.0
0.0 3.0
0.0 -3.0
"""

LBAR_SPEC = """\
class = L_bar
xi = 1.0
q = 0.3
s_at_xi = 1
zeros_format = tau_only
zeros_inline:
1.0
-1.0
2.0
-2.0
3.0
-3.0
"""

DUPLICATED_SPEC = """\
class = Y_tilde
xi = 1.0
s_at_xi = 1
zeros_format = tau_only
zeros_inline:
1.0
1.0
-1.0
-1.0
"""


# numpy's z / z is not exactly 1 at the zero 0.1 + 2.9i, and s / z is 1 one ulp below it
PAIR_AT_2_9_SPEC = "class = Y\ns0 = 1\nzeros_inline:\n0.1 2.9\n0.1 -2.9\n"

# one zero at 10 and q = 800: values leave the double range on both sides
SATURATING_SPEC = "class = L\nq = 800\ns0 = 1\nzeros_inline:\n10 0\n"


def spec_path(tmp_path, content, name="func.spec"):
    path = tmp_path / name
    path.write_text(content)
    return path


def quiet_run(argv):
    """run_command's report, checking that the run emitted no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_command(argv)
    assert not caught, [str(w.message) for w in caught]
    return report


class TestParseComplex:
    def test_engineering_i_suffix(self) -> None:
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("i") == 1j
        assert parse_complex("-0.5") == -0.5 + 0j
        assert parse_complex("1 + 2i") == 1 + 2j
        assert parse_complex("(1+2j)") == 1 + 2j
        assert parse_complex("3.5e-2j") == 0.035j

    def test_rejects_garbage(self) -> None:
        with pytest.raises(ValueError, match="empty"):
            parse_complex("  ")
        with pytest.raises(ValueError, match="malformed"):
            parse_complex("spam")
        with pytest.raises(ValueError, match="non-finite"):
            parse_complex("inf")

    def test_format_round_trip(self) -> None:
        for z in (1 - 2j, -0.5 + 0j, 1e-17j, complex(0.1, -0.3), 3 + 0j):
            assert parse_complex(format_complex(z)) == z


class TestZeroTables:
    def test_ingest_complex_pairs(self, tmp_path) -> None:
        path = tmp_path / "zt.txt"
        path.write_text("1 1\n1 -1\n")
        seq = ingest_zero_table(path, "complex_pairs")
        assert np.array_equal(seq.zeros, np.array([1 + 1j, 1 - 1j]))
        assert seq.pairing is Pairing.CONJUGATE_PAIRS
        assert seq.ordering is Ordering.BY_MODULUS

    def test_ingest_tau_only_sorts_by_modulus(self, tmp_path) -> None:
        path = tmp_path / "zt.txt"
        path.write_text("2\n-2\n1\n-1\n")
        seq = ingest_zero_table(path, TableFormat.TAU_ONLY, xi=1.0)
        assert np.array_equal(seq.zeros, np.array([1 + 1j, 1 - 1j, 1 + 2j, 1 - 2j]))
        assert seq.pairing is Pairing.SYMMETRIC_ABOUT_CENTER

    def test_comments_and_blanks_preserve_line_numbers(self, tmp_path) -> None:
        path = tmp_path / "zt.txt"
        path.write_text("# header\n\n1 2\nbad line here\n")
        with pytest.raises(ValueError, match="line 4"):
            ingest_zero_table(path, "complex_pairs")

    def test_row_validation(self, tmp_path) -> None:
        path = tmp_path / "zt.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="line 1.*nonzero"):
            ingest_zero_table(path, "tau_only", xi=1.0)
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="expected two floats"):
            ingest_zero_table(path, "complex_pairs")
        path.write_text("0 0\n")
        with pytest.raises(ValueError, match="nonzero"):
            ingest_zero_table(path, "complex_pairs")
        path.write_text("inf 0\n")
        with pytest.raises(ValueError, match="non-finite"):
            ingest_zero_table(path, "complex_pairs")

    def test_tau_only_needs_xi(self, tmp_path) -> None:
        path = tmp_path / "zt.txt"
        path.write_text("1\n")
        with pytest.raises(ValueError, match="requires xi"):
            ingest_zero_table(path, "tau_only")

    def test_write_ingest_identity_complex_pairs(self, tmp_path) -> None:
        rng = np.random.default_rng(17)
        zeros = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN).sorted_by_modulus()
        path = tmp_path / "zt.txt"
        meta = write_zero_table(path, seq, "complex_pairs")
        back = ingest_zero_table(path, "complex_pairs")
        assert np.array_equal(back.zeros, seq.zeros)
        assert meta.count == 1000
        assert meta.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_write_ingest_identity_tau_only(self, tmp_path) -> None:
        rng = np.random.default_rng(18)
        taus = np.concatenate([rng.uniform(0.1, 50, 500), -rng.uniform(0.1, 50, 500)])
        seq = ZeroSequence(zeros=0.25 + 1j * taus, ordering=Ordering.AS_GIVEN).sorted_by_modulus()
        path = tmp_path / "zt.txt"
        write_zero_table(path, seq, "tau_only", xi=0.25)
        back = ingest_zero_table(path, "tau_only", xi=0.25)
        assert np.array_equal(back.zeros, seq.zeros)

    def test_write_tau_only_requires_on_line_zeros(self, tmp_path) -> None:
        seq = ZeroSequence(zeros=np.array([1 + 1j, 2 - 1j]), ordering=Ordering.AS_GIVEN)
        with pytest.raises(ValueError, match="Re z"):
            write_zero_table(tmp_path / "zt.txt", seq, "tau_only", xi=1.0)
        with pytest.raises(ValueError, match="requires xi"):
            write_zero_table(tmp_path / "zt.txt", seq, "tau_only")


class TestSpecFiles:
    def test_inline_round_trip(self, tmp_path) -> None:
        spec = make_symmetric_spec(xi=1.0, taus=[1.0, -1.0, 2.0, -2.0], value_at_center=1.0 + 0j)
        path = tmp_path / "rt.spec"
        write_spec_file(path, spec)
        loaded, digests = load_spec_file(path)
        assert loaded.class_tag is spec.class_tag
        assert loaded.value_at_zero == spec.value_at_zero
        assert loaded.center_xi == spec.center_xi
        assert np.array_equal(loaded.zero_sequence.zeros, spec.zero_sequence.zeros)
        assert len(digests) == 1
        assert digests[0][0].startswith("spec:")

    def test_zeros_file_round_trip(self, tmp_path) -> None:
        spec = make_symmetric_spec(
            xi=0.5,
            taus=[1.0, -1.0, 3.0, -3.0],
            value_at_center=2.0 + 0j,
            class_tag=ClassTag.L_BAR,
            q_constant=0.25 + 0j,
        )
        path = tmp_path / "rt.spec"
        write_spec_file(path, spec, zeros_file="rt_zeros.txt")
        assert (tmp_path / "rt_zeros.txt").exists()
        loaded, digests = load_spec_file(path)
        assert loaded.q_constant == spec.q_constant
        assert loaded.value_at_zero == spec.value_at_zero
        assert np.array_equal(loaded.zero_sequence.zeros, spec.zero_sequence.zeros)
        assert [name.split(":")[0] for name, _ in digests] == ["spec", "zeros"]

    def test_center_value_spec_reconstructs_origin_value(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        loaded, _ = load_spec_file(path)
        assert loaded.class_tag is ClassTag.Y_TILDE
        assert loaded.center_xi == 1.0
        # 6 offsets, normalized to modulus order
        assert np.array_equal(
            loaded.zero_sequence.zeros.imag, np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        )

    def test_key_validation(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="'class' is required"):
            load_spec_file(spec_path(tmp_path, "s0 = 1\n"))
        with pytest.raises(ValueError, match="unknown keys"):
            load_spec_file(spec_path(tmp_path, "class = Y\ns0 = 1\ncolor = red\n"))
        with pytest.raises(ValueError, match="duplicate key"):
            load_spec_file(spec_path(tmp_path, "class = Y\nclass = L\ns0 = 1\n"))
        with pytest.raises(ValueError, match="unknown class"):
            load_spec_file(spec_path(tmp_path, "class = Z\ns0 = 1\n"))
        with pytest.raises(ValueError, match="exactly one of s0 / s_at_xi"):
            load_spec_file(spec_path(tmp_path, "class = Y\n"))
        with pytest.raises(ValueError, match="exactly one of s0 / s_at_xi"):
            load_spec_file(spec_path(tmp_path, "class = Y\ns0 = 1\ns_at_xi = 1\n"))
        with pytest.raises(ValueError, match="expected 'key = value'"):
            load_spec_file(spec_path(tmp_path, "class = Y\ns0 = 1\nnot a key line\n"))
        bad_values = [
            ("class = Y_tilde\nxi = abc\ns0 = 1\n", "line 2: could not convert"),
            ("class = L\nq = zz\ns0 = 1\n", "line 2: malformed complex literal 'zz'"),
            ("class = Y\ns0 = 1+xi\n", "line 2: malformed complex literal"),
            ("class = Y_tilde\nxi = 1\ns_at_xi = no\n", "line 3: malformed complex literal"),
            ("class = Y\ns0 = 1\nzeros_format = bogus\n", "line 3: 'bogus' is not a valid"),
        ]
        for content, message in bad_values:
            path = spec_path(tmp_path, content)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))} {message}"):
                load_spec_file(path)

    def test_s_at_xi_validation(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="Y_tilde or L_bar"):
            load_spec_file(spec_path(tmp_path, "class = Y\ns_at_xi = 1\n"))
        content = "class = Y_tilde\ns_at_xi = 1\nzeros_format = tau_only\nzeros_inline:\n1\n-1\n"
        with pytest.raises(ValueError, match="requires xi"):
            load_spec_file(spec_path(tmp_path, content))
        # complex_pairs rows parse without xi; the center value still needs it
        content = "class = Y_tilde\ns_at_xi = 1\nzeros_inline:\n1 1\n1 -1\n"
        with pytest.raises(ValueError, match="s_at_xi requires xi$"):
            load_spec_file(spec_path(tmp_path, content))

    def test_s_at_xi_rejects_zeros_off_the_line(self, tmp_path) -> None:
        # complex_pairs rows with Re z != xi cannot be line offsets
        content = "class = Y_tilde\nxi = 1.0\ns_at_xi = 1\nzeros_inline:\n5.0 1.0\n5.0 -1.0\n"
        path = spec_path(tmp_path, content)
        report = run_command(["eval", "--spec", str(path), "--s", "5+1i"])
        assert report.exit_code == 1
        assert report.errors == (
            f"{path}: s_at_xi requires every zero on Re s = xi, got 5.0+1.0j",
        )

    def test_s_at_xi_complex_pairs_on_the_line_match_tau_only(self, tmp_path) -> None:
        taus = ["1.0", "-1.0", "2.5", "-2.5"]
        head = "class = L_bar\nxi = 1.0\nq = 0.3\ns_at_xi = 2\n"
        pairs = head + "zeros_format = complex_pairs\nzeros_inline:\n"
        pairs += "".join(f"1.0 {t}\n" for t in taus)
        offsets = head + "zeros_format = tau_only\nzeros_inline:\n" + "\n".join(taus) + "\n"
        from_pairs, _ = load_spec_file(spec_path(tmp_path, pairs, "pairs.spec"))
        from_offsets, _ = load_spec_file(spec_path(tmp_path, offsets, "offsets.spec"))
        assert np.array_equal(from_pairs.zero_sequence.zeros, from_offsets.zero_sequence.zeros)
        assert from_pairs.value_at_zero == from_offsets.value_at_zero

    def test_zeros_file_and_inline_conflict(self, tmp_path) -> None:
        (tmp_path / "zt.txt").write_text("1 1\n")
        head = "class = Y\ns0 = 1\nzeros_file = zt.txt\n"
        # the marker alone conflicts, with or without rows after it
        for content in (head + "zeros_inline:\n1 1\n", head + "zeros_inline:\n"):
            with pytest.raises(ValueError, match="mutually exclusive"):
                load_spec_file(spec_path(tmp_path, content))

    def test_inline_error_line_number(self, tmp_path) -> None:
        content = (
            "class = Y_tilde\n# offsets along Re s = 1\n\nxi = 1.0\ns_at_xi = 1\n"
            "zeros_format = tau_only\nzeros_inline:\n1.0\n-1.0 oops\n2.0\n"
        )
        path = spec_path(tmp_path, content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:zeros_inline line 9: "):
            load_spec_file(path)


class TestRunCommand:
    def test_eval_report_shape(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command(["eval", "--spec", str(path), "--s", "1+0.5i"])
        assert report.exit_code == 0
        assert report.errors == ()
        assert [r.quantity for r in report.records] == [
            "value",
            "tail_bound",
            "nearest_zero_distance",
            "near_zero",
        ]
        # all six zeros retained under the default cap
        assert report.records[0].truncation == 6
        value = report.records[0].value
        assert abs(value - 0.68359375) <= 1e-12

    def test_terms_is_a_cap_not_a_demand(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command(["eval", "--spec", str(path), "--s", "0.5", "--terms", "999999"])
        assert report.exit_code == 0
        assert report.records[0].truncation == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--x-min", "0.1", "--x-max", "10.1"],
            ["eval", "--s", "0.5"],
            ["series", "--even"],
            ["exponent", "--r-min", "1", "--r-max", "3"],
        ],
    )
    def test_terms_that_split_a_pair_exit_1(self, tmp_path, argv) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = quiet_run([argv[0], "--spec", str(path), *argv[1:], "--terms", "3"])
        assert report.exit_code == 1
        assert report.errors == ("truncation N = 3 splits a +-tau pair: use N = 2 or N = 4",)

    def test_deterministic_reports(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        argv = ["scan", "--spec", str(path), "--x-min", "0.5", "--x-max", "2.5"]
        first = run_command(argv)
        second = run_command(argv)
        assert first.deterministic_lines() == second.deterministic_lines()
        assert first.digest == second.digest
        lines_a = first.render().splitlines()
        lines_b = second.render().splitlines()
        assert lines_a[:-1] == lines_b[:-1]
        assert lines_a[-1].startswith("time wall_s = ")
        assert lines_b[-1].startswith("time wall_s = ")

    def test_digest_tracks_command_content(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        a = run_command(["eval", "--spec", str(path), "--s", "0.5"])
        b = run_command(["eval", "--spec", str(path), "--s", "0.25"])
        assert a.digest != b.digest

    def test_scan_records(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command(["scan", "--spec", str(path), "--x-min", "0.5", "--x-max", "2.5"])
        assert report.exit_code == 0
        assert report.records[0].quantity == "n_zeros"
        assert report.records[0].value == 2
        taus = [r.value for r in report.records if r.quantity.startswith("tau_hat")]
        assert abs(taus[0] - 1.0) <= 1e-9
        assert abs(taus[1] - 2.0) <= 1e-9

    def test_line_records(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command(
            ["line", "--spec", str(path), "--x-min", "-0.5", "--x-max", "0.5", "--samples", "5"]
        )
        assert report.exit_code == 0
        quantities = [r.quantity for r in report.records]
        assert quantities[:2] == ["v0", "imag_max"]
        assert quantities.count("x[0]") == 1
        assert quantities.count("V[4]") == 1

    def test_mult_records(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command(
            ["mult", "--spec", str(path), "--center", "1+1i", "--radius", "0.4"]
        )
        assert report.exit_code == 0
        assert report.records[0].quantity == "winding"
        assert report.records[0].value == 1

    def test_series_records(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command(
            ["series", "--spec", str(path), "--even", "--kmax", "6"]
        )
        assert report.exit_code == 0
        assert report.records[0].quantity == "c[0]"
        assert report.records[-1].quantity == "odd_residual_max"

    def test_series_requires_center_or_even(self, tmp_path) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command(["series", "--spec", str(path)])
        assert report.exit_code == 1
        assert "requires --center" in report.errors[0]

    def test_order_on_zero_free_exponential(self, tmp_path) -> None:
        path = spec_path(tmp_path, "class = L\nq = 1\ns0 = 1\n")
        report = run_command(
            ["order", "--spec", str(path), "--v-min", "2", "--v-max", "50"]
        )
        assert report.exit_code == 0
        order = report.records[0].value
        assert abs(order - 1.0) <= 1e-9

    def test_exponent_via_zeros_file(self, tmp_path) -> None:
        taus = np.arange(1, 1001, dtype=float)
        zeros = np.empty(2000, dtype=np.complex128)
        zeros[0::2] = 1.0 + 1j * taus
        zeros[1::2] = 1.0 - 1j * taus
        seq = ZeroSequence(zeros=zeros, ordering=Ordering.AS_GIVEN).sorted_by_modulus()
        write_zero_table(tmp_path / "zt.txt", seq, "tau_only", xi=1.0)
        content = (
            "class = Y_tilde\nxi = 1.0\ns_at_xi = 1\n"
            "zeros_format = tau_only\nzeros_file = zt.txt\n"
        )
        path = spec_path(tmp_path, content)
        report = run_command(
            ["exponent", "--spec", str(path), "--r-min", "5", "--r-max", "500"]
        )
        assert report.exit_code == 0
        assert 0.9 <= report.records[0].value <= 1.1
        assert [name.split(":")[0] for name, _ in report.input_digests] == ["spec", "zeros"]
        # --terms N counts only the first N zeros in modulus order
        report = run_command(
            ["exponent", "--spec", str(path), "--terms", "400", "--r-min", "5", "--r-max", "500"]
        )
        head = ZeroSequence(zeros=seq.zeros[:400])
        expected = estimate_exponent(head, 5.0, 500.0)
        by_name = {r.quantity: r.value for r in report.records}
        assert by_name["exponent"] == expected.exponent
        assert by_name["counting_points"] == len(expected.counting_pairs)
        assert report.records[0].truncation == 400

    def test_identity_suite_passes(self, tmp_path) -> None:
        sym = spec_path(tmp_path, SYMMETRIC_SPEC, "sym.spec")
        genus1 = spec_path(tmp_path, GENUS1_SPEC, "genus1.spec")
        lbar = spec_path(tmp_path, LBAR_SPEC, "lbar.spec")
        cases = [
            ("T1", genus1),
            ("T2", sym),
            ("T3", lbar),
            ("T4", sym),
            ("T5", sym),
            ("T6", lbar),
            ("T7", sym),
            ("T8", sym),
            ("T9", lbar),
        ]
        for tag, path in cases:
            report = run_command(
                ["verify-identity", "--spec", str(path), "--theorem", tag]
            )
            assert report.exit_code == 0, (tag, report.errors)
            assert report.records[-1].quantity == "pass"
            assert report.records[-1].value is True
            # the same check from Python, without the CLI
            result = verify_identity(load_spec_file(path)[0], tag)
            assert result.passed
            assert [(r.quantity, r.value) for r in report.records[:-1]] == list(result.quantities)

    def test_identity_failure_sets_exit_code(self, tmp_path) -> None:
        # duplicated offsets: V = (1-x^2)^2 has no sign changes, the scan
        # finds nothing to audit, and the simplicity check fails honestly
        path = spec_path(tmp_path, DUPLICATED_SPEC)
        report = run_command(["verify-identity", "--spec", str(path), "--theorem", "T8"])
        assert report.exit_code == 1
        by_name = {r.quantity: r.value for r in report.records}
        assert by_name["audited_zeros"] == 0
        assert by_name["pass"] is False

    def test_identity_that_measures_nothing_is_refused(self, tmp_path) -> None:
        sym = spec_path(tmp_path, SYMMETRIC_SPEC, "sym.spec")
        genus1 = spec_path(tmp_path, GENUS1_SPEC, "genus1.spec")
        lbar = spec_path(tmp_path, LBAR_SPEC, "lbar.spec")
        cases = [
            ("T1", genus1, "--draws", "draws", 0),
            ("T2", sym, "--draws", "draws", 0),
            ("T3", lbar, "--draws", "draws", -3),
            ("T4", sym, "--draws", "draws", -3),
            ("T5", sym, "--kmax", "k_max", 0),
        ]
        for tag, path, flag, option, value in cases:
            message = f"{tag} needs {option} >= 1, got {value}"
            report = run_command(["verify-identity", "--spec", str(path), "--theorem", tag, flag, str(value)])
            assert (report.exit_code, report.errors, report.records) == (1, (message,), ())
            with pytest.raises(ValueError, match=re.escape(message)):
                verify_identity(load_spec_file(path)[0], tag, **{option: value})
        # one draw and one odd coefficient are enough; the expansion itself takes k_max = 0
        for tag, options in (("T2", ["--draws", "1"]), ("T5", ["--kmax", "1"])):
            report = run_command(["verify-identity", "--spec", str(sym), "--theorem", tag, *options])
            assert report.exit_code == 0, report.errors
        assert len(even_series(load_spec_file(sym)[0], 0).coefficients) == 1

    def test_identity_class_mismatch(self, tmp_path) -> None:
        sym = spec_path(tmp_path, SYMMETRIC_SPEC, "sym.spec")
        lbar = spec_path(tmp_path, LBAR_SPEC, "lbar.spec")
        genus1 = spec_path(tmp_path, GENUS1_SPEC, "genus1.spec")
        cases = [
            ("T1", sym, "T1 requires a genus-1 spec"),
            ("T2", lbar, "T2 requires a genus-0 spec"),
            ("T3", sym, "T3 requires an L_bar spec"),
            ("T4", lbar, "T4 requires a Y_tilde spec"),
            ("T5", genus1, "even series requires a Y_tilde spec"),
            ("T6", sym, "T6 requires an L_bar spec"),
            ("T7", lbar, "T7 requires a Y_tilde spec"),
            ("T8", genus1, "T8 requires a Y_tilde spec"),
            ("T9", sym, "T9 requires an L_bar spec"),
        ]
        for tag, path, message in cases:
            report = run_command(["verify-identity", "--spec", str(path), "--theorem", tag])
            assert report.exit_code == 1
            assert report.errors == (message,)
        with pytest.raises(ValueError, match="unknown identity check"):
            verify_identity(load_spec_file(sym)[0], "T10")

    def test_overflowing_tail_fit_intercept(self, tmp_path) -> None:
        # e^intercept of the tail fit overflows a double for these offsets
        rows = ["1.0"] * 6 + ["1028001607991.0", "2.104724618777498e+45"]
        content = "class = L_bar\nxi = 0.5\ns_at_xi = 1\nzeros_format = tau_only\nzeros_inline:\n"
        path = spec_path(tmp_path, content + "\n".join(rows) + "\n")
        tails = {}
        for s in ("0.3", "0"):
            report = run_command(["eval", "--spec", str(path), "--s", s])
            assert report.exit_code == 0, report.errors
            tails[s] = {r.quantity: r.value for r in report.records}["tail_bound"]
        # taken in the log domain, the extrapolated tail is tiny, not an overflow
        assert 0.0 < tails["0.3"] < 1e-60
        assert tails["0"] == 0.0

    def test_overflowing_tail_sum_reports_a_bound(self, tmp_path) -> None:
        # the sum of |z|^-2 over these zeros passes the double range
        rows = ["1e-150 0.0"] * 8 + [
            f"{math.exp(-(712 - 1.2 * math.log(j)) / 2)!r} 0.0" for j in range(9, 17)
        ]
        path = spec_path(tmp_path, "class = L\ns0 = 1\nzeros_inline:\n" + "\n".join(rows) + "\n")
        for s in ("0.3", "0"):
            report = run_command(["eval", "--spec", str(path), "--s", s])
            assert report.exit_code == 0, report.errors
            tail = {r.quantity: r.value for r in report.records}["tail_bound"]
            assert tail == "indeterminate" or tail == math.inf

    def test_underflowed_value_is_a_result(self, tmp_path) -> None:
        # S(-1) = exp(-800) * 1.1 * exp(-0.1) underflows to 0; its log is finite
        path = spec_path(tmp_path, SATURATING_SPEC)
        report = run_command(["eval", "--spec", str(path), "--s", "-1"])
        assert report.exit_code == 0, report.errors
        assert {r.quantity: r.value for r in report.records}["value"] == 0j
        argv = ["verify-identity", "--spec", str(path), "--theorem", "T1"]
        report = run_command(argv + ["--seed", "1", "--draws", "3"])
        assert report.exit_code == 0, report.errors

    @pytest.mark.parametrize("alpha, s", [("1.5", "0.2+0.9i"), ("0.4+0.3i", "1.1-0.2i")])
    def test_saturated_shift_residuals_are_finite(self, tmp_path, alpha, s) -> None:
        # S(1.5) and S(1.1 - 0.2i) pass the double range
        path = spec_path(tmp_path, SATURATING_SPEC)
        report = run_command(["shift", "--spec", str(path), "--alpha", alpha, "--s", s])
        assert report.exit_code == 0, report.errors
        values = {r.quantity: r.value for r in report.records}
        for quantity in ("disagreement", "constant_residual"):
            assert math.isfinite(values[quantity])
            assert values[quantity] <= 1e-6

    def test_saturated_line_window_is_an_error(self, tmp_path) -> None:
        # |V(x)| ~ x^6 / 36 passes the double range on this window
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        window = ["--x-min", "1e60", "--x-max", "2e60", "--samples", "4"]
        report = quiet_run(["verify-identity", "--spec", str(path), "--theorem", "T7", *window])
        assert report.exit_code == 1
        assert report.errors == ("line values pass the double range on [1e+60, 2e+60]",)

    def test_saturated_literal_line_product_fails_t6(self, tmp_path) -> None:
        # the literal product saturates; the residual is inf, not nan
        path = spec_path(tmp_path, LBAR_SPEC)
        window = ["--x-min", "1e60", "--x-max", "2e60", "--samples", "4"]
        report = quiet_run(["verify-identity", "--spec", str(path), "--theorem", "T6", *window])
        assert report.exit_code == 1
        values = {r.quantity: r.value for r in report.records}
        assert values == {"line_form_residual_max": math.inf, "pass": False}

    def test_series_about_a_saturated_center(self, tmp_path) -> None:
        path = spec_path(tmp_path, SATURATING_SPEC)
        center = "--center=1.3+0.2i"
        report = quiet_run(["series", "--spec", str(path), center, "--kmax", "3"])
        assert report.exit_code == 0, report.errors
        coefficients = [r.value for r in report.records]
        assert len(coefficients) == 4
        value = quiet_run(["eval", "--spec", str(path), "--s=1.3+0.2i"]).records[0].value
        assert coefficients[0] == value == complex(-math.inf, math.inf)
        # c_k / c_0 is near (q + 1/10 - 1/(10 - 1.3 - 0.2i))^k / k!: every phase is small
        assert coefficients[1:] == [complex(-math.inf, math.inf)] * 3

    def test_shift_with_a_log_past_the_range(self, tmp_path) -> None:
        # q * alpha passes the double range: log S(alpha) has no phase, or no real part
        content = "class = L\nq = 5.8e299i\ns0 = 1\nzeros_inline:\n0 1\n0 -1\n"
        path = spec_path(tmp_path, content)
        report = quiet_run(["shift", "--spec", str(path), "--alpha=9e149", "--s=1"])
        assert report.exit_code == 1
        assert report.errors == (
            "product log (690.564806866898+infj) has no phase: its terms pass the double range",
        )
        report = quiet_run(["shift", "--spec", str(path), "--alpha=6e149+7e149i", "--s=1"])
        assert report.exit_code == 1
        assert report.errors == (
            "q*s = (-inf+infj) passes the double range at s = (6e+149+7e+149j)",
        )

    def test_shift_where_alpha_over_z_overflows(self, tmp_path) -> None:
        # alpha / z = 1e310 passes the double range, but log S(alpha) does not:
        # the shift recentres at S(alpha) = -1e310 and its identity holds
        path = spec_path(tmp_path, "class = Y\ns0 = 1\nzeros_inline:\n1e-10 0\n")
        report = quiet_run(["shift", "--spec", str(path), "--alpha=1e300", "--s=1"])
        assert report.exit_code == 0, report.errors
        values = {r.quantity: r.value for r in report.records}
        assert abs(values["shifted_value"] - (1 - 1e10)) <= 1e-13 * 1e10
        assert values["disagreement"] <= 1e-13
        assert values["constant_residual"] == 0.0

    def test_genus1_shift_where_log_s_alpha_passes_the_range(self, tmp_path) -> None:
        # log S(alpha) = log(1 - alpha/z) + alpha/z is about 1e310: no double holds it
        path = spec_path(tmp_path, "class = L\ns0 = 1\nzeros_inline:\n1e-10 0\n")
        report = quiet_run(["shift", "--spec", str(path), "--alpha=1e300", "--s=1"])
        assert report.exit_code == 1
        assert report.errors == ("log S(alpha) at alpha = (1e+300+0j) passes the double range",)

    def test_tail_bound_far_past_the_zeros(self, tmp_path) -> None:
        # |s|^2 overflows; the tail beyond both zeros is 0, so the bound is too
        path = spec_path(tmp_path, "class = L\ns0 = 1\nzeros_inline:\n0 1\n0 -1\n")
        report = quiet_run(["eval", "--spec", str(path), "--s=1e160"])
        assert report.exit_code == 0, report.errors
        values = {r.quantity: r.value for r in report.records}
        assert values["value"] == complex(math.inf, 0.0)
        assert values["tail_bound"] == 0.0

    def test_inverted_origin_value_past_the_range(self, tmp_path) -> None:
        # the center product is exp(-1379.6): its inverse has no double
        content = "class = L_bar\nxi = 1e300\ns_at_xi = 1\nzeros_format = tau_only\nzeros_inline:\n1\n-1\n"
        path = spec_path(tmp_path, content)
        report = quiet_run(["exponent", "--spec", str(path), "--r-min", "1", "--r-max", "1e3"])
        assert report.exit_code == 1
        assert report.errors == (
            "inverted origin value inf is out of range: P = exp((-1379.5510557964274+0j))",
        )

    def test_non_finite_winding_integral(self, tmp_path) -> None:
        content = "class = L\nq = 1e300\ns0 = 1\nzeros_inline:\n0 1\n0 -1\n"
        path = spec_path(tmp_path, content)
        argv = ["mult", "--spec", str(path), "--center", "0", "--radius", "1e160", "--nodes", "32"]
        report = quiet_run(argv)
        assert report.exit_code == 1
        assert report.errors == (
            "winding quadrature unresolved: raw integral (inf+0j) is not finite",
        )

    def test_eval_on_a_retained_zero_is_exactly_zero(self, tmp_path) -> None:
        # numpy's z / z is not exactly 1 for this zero
        path = spec_path(tmp_path, PAIR_AT_2_9_SPEC)
        report = quiet_run(["eval", "--spec", str(path), "--s", "0.1+2.9i"])
        values = {r.quantity: r.value for r in report.records}
        assert (values["value"], values["nearest_zero_distance"], values["near_zero"]) == (0j, 0.0, 1)

    def test_eval_one_ulp_beside_a_retained_zero_is_not_zero(self, tmp_path) -> None:
        # s / z rounds to exactly 1 here, at s != z
        path = spec_path(tmp_path, PAIR_AT_2_9_SPEC)
        s = 0.09999999999999999 + 2.9j
        report = quiet_run(["eval", "--spec", str(path), "--s=0.09999999999999999+2.9i"])
        values = {r.quantity: r.value for r in report.records}
        assert values["nearest_zero_distance"] == pytest.approx(1.39e-17, rel=1e-2)
        expected = (0.1 + 2.9j - s) / (0.1 + 2.9j) * (0.1 - 2.9j - s) / (0.1 - 2.9j)
        assert values["value"] != 0
        assert abs(values["value"] - expected) <= 1e-14 * abs(expected)

    def test_shifted_product_off_a_zero_is_not_zero(self, tmp_path) -> None:
        # (s - alpha) / (z - alpha) rounds to 1 one ulp below the zero 0.1 + 0.1i
        path = spec_path(tmp_path, "class = Y\ns0 = 1\nzeros_inline:\n0.1 0.1\n0.1 -0.1\n")
        argv = ["shift", "--spec", str(path), "--alpha", "0.5+0.5i", "--s", "0.09999999999999999+0.1i"]
        report = quiet_run(argv)
        assert report.exit_code == 0, report.errors
        values = {r.quantity: r.value for r in report.records}
        s, z1, z2 = 0.09999999999999999 + 0.1j, 0.1 + 0.1j, 0.1 - 0.1j
        expected = (z1 - s) * (z2 - s) / (z1 * z2)
        assert abs(values["shifted_value"] - expected) <= 1e-14 * abs(expected)
        assert values["disagreement"] <= 1e-15

    def test_series_about_an_underflowed_center(self, tmp_path) -> None:
        # S is 1e-320 (1 - s)(1 - s/3): its value 1e-11 from the zero at 1 underflows
        path = spec_path(tmp_path, "class = Y\ns0 = 1e-320\nzeros_inline:\n1 0\n3 0\n")
        value = quiet_run(["eval", "--spec", str(path), "--s", "1.00000000001"]).records[0].value
        report = quiet_run(["series", "--spec", str(path), "--center", "1.00000000001", "--kmax", "2"])
        assert report.exit_code == 0, report.errors
        coefficients = [r.value for r in report.records]
        assert coefficients[0] == value == 0j
        # subnormal results: about 11 significant bits
        assert coefficients[1:] == pytest.approx([-2e-320 / 3, 1e-320 / 3], rel=1e-3, abs=0)

    @pytest.mark.parametrize("content, window, cell", [
        # |V(-1e21)| = e^(1e21) saturates; no zero is retained
        ("class = L_bar\nxi = 1.0000000000000001e+23\nq = 1i\ns0 = -1\n"
         "zeros_format = tau_only\nzeros_inline:\n1.0\n",
         ["--terms", "0", "--x-min=-1e21", "--x-max", "0", "--samples", "2"], "[-1e+21, 0.0]"),
        # V(1.26) underflows to 0 beside the zero at 1.5
        ("class = Y_tilde\nxi = 1.0\ns0 = 1e-323\nzeros_format = tau_only\nzeros_inline:\n1.5\n-1.5\n",
         ["--x-min", "0.1", "--x-max", "3.0", "--samples", "6"], "[0.6799999999999999, 1.26]"),
    ], ids=["overflow", "underflow"])
    def test_scan_refuses_a_profile_past_the_range(self, tmp_path, content, window, cell) -> None:
        path = spec_path(tmp_path, content)
        report = quiet_run(["scan", "--spec", str(path), *window])
        assert report.exit_code == 1
        assert report.errors == (f"profile leaves the double range on the cell {cell}",)

    def test_usage_errors(self, tmp_path) -> None:
        report = run_command(["frobnicate", "--spec", "x"])
        assert report.exit_code == 2
        assert report.errors == ("usage error",)
        report = run_command(["eval", "--s", "1"])
        assert report.exit_code == 2
        report = run_command(["eval", "--spec", "x", "--s", "not-a-number"])
        assert report.exit_code == 2
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        for argv in (
            ["eval", "--spec", str(path), "--terms", "-3", "--s", "1"],
            ["exponent", "--spec", str(path), "--terms", "-3", "--r-min", "1", "--r-max", "3"],
        ):
            report = run_command(argv)
            assert (report.exit_code, report.errors) == (2, ("usage error",))

    @pytest.mark.parametrize("tolerance, exit_code", [
        ("nan", 2), ("inf", 2), ("-inf", 2), ("-1", 2), ("-0.0", 0), ("0", 0), ("1e-3", 0),
    ])
    def test_tolerance_is_finite_and_not_negative(self, tmp_path, tolerance, exit_code) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command(["eval", "--spec", str(path), "--s", "0.3", "--tolerance", tolerance])
        assert report.exit_code == exit_code, report.errors
        if exit_code == 2:
            assert report.errors == ("usage error",)
        else:
            assert report.records[0].tolerance == float(tolerance)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_library_tolerance_is_finite_and_not_negative(self, tmp_path, tolerance) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        spec = load_spec_file(path)[0]
        message = f"tolerance must be finite and >= 0, got {float(tolerance)!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_identity(spec, "T4", tolerance=float(tolerance), draws=3)
        report = run_command(["verify-identity", "--spec", str(path), "--theorem", "T4",
                              "--draws", "3", "--tolerance", tolerance])
        assert (report.exit_code, report.errors) == (2, ("usage error",))
        # -0.0 and 0 are tolerances, as on the command line
        for accepted in (-0.0, 0.0):
            assert verify_identity(spec, "T4", tolerance=accepted, draws=3).quantities
        assert verify_identity(spec, "T4", tolerance=1e-6, draws=3).passed

    def test_parser_is_built_once(self, tmp_path, capsys) -> None:
        _build_parser.cache_clear()
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        first = run_command(["eval", "--spec", str(path), "--s", "0.3"])
        assert run_command(["eval", "--spec", str(path), "--s", "x"]).exit_code == 2
        assert run_command(["eval", "--help"]).exit_code == 0
        assert "--spec SPEC" in capsys.readouterr().out
        again = run_command(["eval", "--spec", str(path), "--s", "0.3"])
        assert again.deterministic_lines() == first.deterministic_lines()
        assert _build_parser.cache_info().misses == 1

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["line", "--x-min", "0", "--x-max", "inf"], "x_max must be finite, got inf"),
            (["line", "--x-min", "0", "--x-max", "nan"], "x_max must be finite, got nan"),
            (
                ["verify-identity", "--theorem", "T7", "--x-max", "inf"],
                "x_max must be finite, got inf",
            ),
            (
                ["mult", "--center", "1+1i", "--radius", "inf"],
                "radius must be positive and finite, got inf",
            ),
            (
                ["mult", "--center", "1+1i", "--radius", "nan"],
                "radius must be positive and finite, got nan",
            ),
            (["order", "--v-min", "2", "--v-max", "inf"], "v_max must be finite, got inf"),
            (
                ["exponent", "--r-min", "1", "--r-max", "nan"],
                "need finite 0 < r_min < r_max, got 1.0 and nan",
            ),
        ],
        ids=["line-inf", "line-nan", "T7-inf", "mult-inf", "mult-nan", "order-inf", "exponent-nan"],
    )
    def test_non_finite_bounds(self, tmp_path, argv, message) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        report = run_command([argv[0], "--spec", str(path), *argv[1:]])
        assert (report.exit_code, report.errors) == (1, (message,))

    def test_missing_spec_file(self, tmp_path) -> None:
        report = run_command(["eval", "--spec", str(tmp_path / "nope.spec"), "--s", "1"])
        assert report.exit_code == 1
        assert report.errors

    def test_main_prints_digest_consistent_report(self, tmp_path, capsys) -> None:
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        code = main(["eval", "--spec", str(path), "--s", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("time wall_s = ")
        assert lines[-2].startswith("meta report_digest = sha256:")
        body = "\n".join(lines[:-2]) + "\n"
        assert lines[-2].endswith(hashlib.sha256(body.encode()).hexdigest())

    def test_module_entry_point(self, tmp_path) -> None:
        # python -m entirefn.cli, in a child process that finds the package as this one does
        path = spec_path(tmp_path, SYMMETRIC_SPEC)
        package_root = str(Path(entirefn.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "entirefn.cli", "eval", "--spec", str(path), "--s", "0.5"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert any(line.startswith("meta report_digest = sha256:") for line in done.stdout.splitlines())
