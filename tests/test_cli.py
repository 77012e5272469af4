from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

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


def spec_path(tmp_path, content, name="func.spec"):
    path = tmp_path / name
    path.write_text(content)
    return path


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

    def test_zeros_file_and_inline_conflict(self, tmp_path) -> None:
        (tmp_path / "zt.txt").write_text("1 1\n")
        content = "class = Y\ns0 = 1\nzeros_file = zt.txt\nzeros_inline:\n1 1\n"
        with pytest.raises(ValueError, match="mutually exclusive"):
            load_spec_file(spec_path(tmp_path, content))


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
