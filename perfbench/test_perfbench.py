"""Tests of the benchmark itself: fixtures, references, span recorder, runner.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from entirefn import cli, product_engine  # noqa: E402

import refs as R  # noqa: E402
import run  # noqa: E402
from fixtures import FIXTURES, write_fixtures  # noqa: E402
from hostspeed import HostSpeedClock  # noqa: E402
from spans import PER_LAYER, SpanRecorder  # noqa: E402
from workloads import Command  # noqa: E402


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_fixtures_are_byte_identical_for_a_seed(tmp_path):
    write_fixtures(tmp_path / "a", FIXTURES, seed=7)
    write_fixtures(tmp_path / "b", FIXTURES, seed=7)
    first = _tree(tmp_path / "a")
    assert len(first) == 7  # four specs, three separate tables
    assert first == _tree(tmp_path / "b")


def test_seed_changes_row_order_only(tmp_path):
    a = write_fixtures(tmp_path / "a", ["lbar", "genus1_L"], seed=1)
    b = write_fixtures(tmp_path / "b", ["lbar", "genus1_L"], seed=2)
    assert _tree(tmp_path / "a") != _tree(tmp_path / "b")
    for name in a:
        spec_a, _ = cli.load_spec_file(a[name])
        spec_b, _ = cli.load_spec_file(b[name])
        assert np.array_equal(spec_a.zero_sequence.zeros, spec_b.zero_sequence.zeros)
        assert spec_a.value_at_zero == spec_b.value_at_zero
        assert spec_a.n_zeros == 2 * FIXTURES[name].k_max


def _close(a, b, rel=1e-30) -> bool:
    with mpmath.workprec(R.PREC):
        return abs(a - b) <= rel * abs(b)


def test_stored_references_recompute():
    stored = R.load_refs()
    with mpmath.workprec(R.PREC):
        grid = R.line_grid()
        for j in (0, 17, 95):
            fresh = R.pair_product(1j * mpmath.mpf(float(grid[j])), R.K_LINE)
            assert _close(stored["line1e4.line"][j], fresh)
        fresh = R.pair_product(R._mp(R.GENUS1_POINT), R.K_GENUS1)
        assert _close(stored["genus1_L.eval"][0], fresh)
        # The 10^6-zero product against its closed form, an independent route.
        fresh = R.gamma_pair_product(R._mp(R.BULK_POINT) - 1, R.K_BULK)
        assert _close(stored["line1e6.eval"][0], fresh, rel=1e-25)
        e1 = mpmath.zeta(2) - mpmath.zeta(2, R.K_BULK + 1)
        assert _close(stored["line1e6.even"][1], e1, rel=1e-25)
        # c1 / c0 of the line series is the log-derivative of the product.
        u0 = R._mp(R.SERIES_CENTER) - 1
        c0, c1, _ = stored["line1e4.series"]
        iu, k1 = 1j * u0, R.K_LINE + 1
        psi = mpmath.digamma
        logderiv = 1j * (psi(k1 + iu) - psi(k1 - iu) + psi(1 - iu) - psi(1 + iu))
        assert _close(c1 / c0, logderiv, rel=1e-20)


def test_line_references_skip_points_near_zeros():
    grid = R.line_grid()
    stored = R.load_refs()["line1e4.line"]
    assert len(stored) == grid.size
    for x, ref in zip(grid, stored):
        near = abs(x - round(x)) < R.MIN_ZERO_DISTANCE
        assert (ref is None) == near


def test_span_recorder_restores_and_accounts(tmp_path):
    spec = write_fixtures(tmp_path, ["line1e4"], seed=3)["line1e4"]
    originals = (cli.run_command, cli.eval_product, product_engine.eval_product)
    argvs = [
        ("scan", "--spec", str(spec), "--x-min", "0.55", "--x-max", "2.45", "--samples", "64"),
        ("mult", "--spec", str(spec), "--center", "1+3i", "--radius", "0.3", "--nodes", "32"),
    ]
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert cli.run_command is not originals[0]
        assert cli.eval_product is product_engine.eval_product is not originals[2]
        commands = [Command(argv, lambda report: []) for argv in argvs]
        with HostSpeedClock() as clock:
            times = run.run_pass(cli, clock, commands, run.Tally(), {}, warm_up=True)
        passes = [sum(raw for raw, _ in times)]
    finally:
        recorder.uninstall()
    assert (cli.run_command, cli.eval_product, product_engine.eval_product) == originals

    metrics = recorder.metrics(passes, passes)
    assert set(metrics) == {name for name, _ in PER_LAYER}
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["cli.load_spec_file.calls"] == 2
    assert value["analysis.verify_multiplicity.logderiv_calls"] == 32
    assert value["critical_line.scan_real_zeros.evals_per_root"] > 10
    assert value["product_engine.eval_product.factors"] == 10_000 * value[
        "product_engine.eval_product.calls"
    ]
    layer_time = sum(
        v for name, v in value.items()
        if name.endswith(".self_s") or (name.endswith(".s") and not name.startswith("cli.cmd."))
    )
    assert layer_time + value["trace.remainder_s"] == pytest.approx(value["trace.wall_s"])
    assert 0 <= value["trace.remainder_s"] < 0.05 * value["trace.wall_s"]


def test_runner_prints_result_line(capsys):
    assert run.main(["--workload", "genus1-growth", "--seed", "5", "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "err_max", "peak_rss_mb"}
    assert 0 < result["metrics"]["err_max"]["value"] < 1e-10


def test_runner_rejects_unknown_workload(capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
