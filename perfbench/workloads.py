"""The benchmark's three workloads: CLI command mixes and their output checks.

Each workload is one list of CLI invocations (a "pass"), run in order by a
single closed-loop caller through ``entirefn.cli.run_command``.  The seed
picks the identity-check ``--seed`` values and the windows and centres of the
structurally checked commands (winding numbers, pass records, growth
exponents), with the same amount of work for every seed.  Commands whose
values are compared against the stored mpmath references use the fixed
points in ``refs.py``, so ``err_max`` does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refs as R


class CheckFailed(Exception):
    """An output of a command is wrong."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # Returns the relative errors of the reference-checked outputs; raises
    # CheckFailed when an output is wrong.
    check: Callable[[object], list[float]]


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: tuple[str, ...]
    build: Callable[[np.random.Generator, dict[str, Path], dict], list[Command]]


# Relative tolerance of a value record against its mpmath reference.
VALUE_TOLERANCE = 1e-10
# Relative tolerance of a scanned line zero against its exact integer.
TAU_TOLERANCE = 1e-9
# Gate on shift disagreement and constant residual: the CLI's --tolerance default.
SHIFT_TOLERANCE = 1e-6


def _records(report) -> dict[str, object]:
    if report.exit_code != 0 or report.errors:
        raise CheckFailed(f"exit {report.exit_code}: {report.errors}")
    return {r.quantity: r.value for r in report.records}


def _checked(value, ref, what: str) -> float:
    err = R.rel_error(value, ref)
    if not err <= VALUE_TOLERANCE:
        raise CheckFailed(f"{what}: relative error {err:.3e} against the mpmath reference")
    return err


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _check_passed(report) -> list[float]:
    recs = _records(report)
    _require(recs.get("pass") is True, f"identity check did not pass: {recs}")
    return []


def _check_winding(expected: int) -> Callable:
    def check(report) -> list[float]:
        winding = _records(report)["winding"]
        _require(winding == expected, f"winding {winding}, expected {expected}")
        return []

    return check


def _check_order(report) -> list[float]:
    order = _records(report)["order"]
    _require(0.8 < order < 1.2, f"growth order {order} is not near 1")
    return []


def _check_exponent(report) -> list[float]:
    recs = _records(report)
    _require(abs(recs["exponent"] - 1.0) < 0.05, f"exponent {recs['exponent']} is not near 1")
    _require(recs["counting_points"] == 32, f"counting points {recs['counting_points']}")
    return []


def _check_line(refs: list) -> Callable:
    def check(report) -> list[float]:
        recs = _records(report)
        return [
            _checked(recs[f"V[{j}]"], ref, f"V[{j}]")
            for j, ref in enumerate(refs)
            if ref is not None
        ]

    return check


def _check_scan(expected: list[int]) -> Callable:
    def check(report) -> list[float]:
        recs = _records(report)
        _require(recs["n_zeros"] == len(expected), f"found {recs['n_zeros']} zeros")
        errs = []
        for j, k in enumerate(expected):
            err = abs(recs[f"tau_hat[{j}]"] - k) / k
            _require(err <= TAU_TOLERANCE, f"tau_hat[{j}] is {recs[f'tau_hat[{j}]']!r}, not {k}")
            errs.append(err)
        return errs

    return check


def _check_coefficients(refs: list, indices: list[int]) -> Callable:
    def check(report) -> list[float]:
        recs = _records(report)
        return [_checked(recs[f"c[{i}]"], ref, f"c[{i}]") for i, ref in zip(indices, refs)]

    return check


def _check_eval(ref) -> Callable:
    def check(report) -> list[float]:
        recs = _records(report)
        _require(recs["near_zero"] is False, "point flagged near a zero")
        return [_checked(recs["value"], ref, "value")]

    return check


def _check_shift(ref) -> Callable:
    def check(report) -> list[float]:
        recs = _records(report)
        _require(recs["disagreement"] <= SHIFT_TOLERANCE, f"disagreement {recs['disagreement']}")
        _require(
            recs["constant_residual"] <= SHIFT_TOLERANCE,
            f"constant residual {recs['constant_residual']}",
        )
        return [
            _checked(recs["shifted_value"], ref, "shifted_value"),
            _checked(recs["direct_value"], ref, "direct_value"),
        ]

    return check


def _c(z: complex) -> str:
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


def _cmd(*argv, check) -> Command:
    return Command(tuple(str(a) for a in argv), check)


def _line_dense(rng, paths, refs) -> list[Command]:
    spec = paths["line1e4"]
    x_min, x_max, samples = R.LINE_WINDOW
    s_min, s_max, s_samples = R.SCAN_WINDOW
    k_mult = int(rng.integers(2, 60))
    t4_seed = int(rng.integers(0, 2**31))
    t7_start = round(float(rng.uniform(0.1, 40.0)), 6)
    k_t8 = int(rng.integers(2, 60))
    return [
        _cmd("line", "--spec", spec, "--x-min", x_min, "--x-max", x_max, "--samples", samples,
             check=_check_line(refs["line1e4.line"])),
        _cmd("scan", "--spec", spec, "--x-min", s_min, "--x-max", s_max, "--samples", s_samples,
             check=_check_scan([1, 2])),
        _cmd("mult", "--spec", spec, "--center", f"1+{k_mult}i", "--radius", 0.3,
             "--nodes", 128, check=_check_winding(1)),
        _cmd("order", "--spec", spec, "--v-min", 2, "--v-max", 40, "--radii", 6,
             "--angular-samples", 16, check=_check_order),
        _cmd("series", "--spec", spec, "--center", _c(R.SERIES_CENTER), "--kmax", R.SERIES_KMAX,
             check=_check_coefficients(refs["line1e4.series"], [0, 1, 2])),
        _cmd("verify-identity", "--spec", spec, "--theorem", "T4", "--seed", t4_seed,
             "--draws", 10, check=_check_passed),
        _cmd("verify-identity", "--spec", spec, "--theorem", "T7", "--x-min", t7_start,
             "--x-max", t7_start + 1.5, "--samples", 48, check=_check_passed),
        # An off-centre window: bisection of a window centred on the root
        # lands on it exactly after one step and skips the refinement work.
        _cmd("verify-identity", "--spec", spec, "--theorem", "T8", "--x-min", k_t8 - 0.43,
             "--x-max", k_t8 + 0.61, "--samples", 32, check=_check_passed),
    ]


def _bulk(rng, paths, refs) -> list[Command]:
    spec = paths["line1e6"]
    terms = ("--terms", 2 * R.K_BULK)
    r_min = round(float(rng.uniform(5.0, 50.0)), 6)
    value = refs["line1e6.eval"][0]
    return [
        _cmd("eval", "--spec", spec, *terms, "--s", _c(R.BULK_POINT), check=_check_eval(value)),
        _cmd("shift", "--spec", spec, *terms, "--alpha", _c(R.BULK_ALPHA), "--s", _c(R.BULK_POINT),
             check=_check_shift(value)),
        _cmd("series", "--spec", spec, *terms, "--even", "--kmax", R.EVEN_KMAX,
             check=_check_coefficients(refs["line1e6.even"], [0, 2, 4])),
        _cmd("exponent", "--spec", spec, *terms, "--r-min", r_min, "--r-max", r_min * 1000,
             check=_check_exponent),
    ]


def _genus1(rng, paths, refs) -> list[Command]:
    l_spec = paths["genus1_L"]
    lbar = paths["lbar"]
    k_mult = int(rng.integers(1, 60))
    t1_seed = int(rng.integers(0, 2**31))
    t3_seed = int(rng.integers(0, 2**31))
    t6_start = round(float(rng.uniform(0.1, 40.0)), 6)
    k_t9 = int(rng.integers(2, 60))
    return [
        _cmd("order", "--spec", l_spec, "--v-min", 2, "--v-max", 40, "--radii", 8,
             "--angular-samples", 32, check=_check_order),
        _cmd("mult", "--spec", l_spec, "--center", f"{k_mult}i", "--radius", 0.3,
             "--nodes", 256, check=_check_winding(1)),
        _cmd("shift", "--spec", l_spec, "--alpha", _c(R.GENUS1_ALPHA), "--s", _c(R.GENUS1_POINT),
             check=_check_shift(refs["genus1_L.eval"][0])),
        _cmd("verify-identity", "--spec", l_spec, "--theorem", "T1", "--seed", t1_seed,
             "--draws", 20, check=_check_passed),
        _cmd("verify-identity", "--spec", lbar, "--theorem", "T3", "--seed", t3_seed,
             "--draws", 20, check=_check_passed),
        _cmd("verify-identity", "--spec", lbar, "--theorem", "T6", "--x-min", t6_start,
             "--x-max", t6_start + 1.5, "--samples", 96, check=_check_passed),
        _cmd("verify-identity", "--spec", lbar, "--theorem", "T9", "--x-min", k_t9 - 0.5,
             "--x-max", k_t9 + 0.5, check=_check_passed),
    ]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("line-dense", ("line1e4",), _line_dense),
        Workload("bulk-1e6", ("line1e6",), _bulk),
        Workload("genus1-growth", ("genus1_L", "lbar"), _genus1),
    )
}
