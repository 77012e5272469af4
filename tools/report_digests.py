"""Report digests of a fixed corpus of CLI runs, one ``digest argv`` line per run.

    python3 tools/report_digests.py [--seeds 5 6 7] [--out DIR]

Run from the repository root.  The corpus is

* the ``line-dense`` and ``genus1-growth`` command mixes of ``perfbench`` at
  each seed, on the fixtures that seed writes;
* about three dozen commands on small specs (the fixtures of ``tests/conftest.py``
  and a few edge inputs), at the default and at a reduced ``--terms``.

Each line is the run's ``meta report_digest`` (a hash of every deterministic
report line: argv, input digests, errors, records and exit code) followed
by its argv.  Spec files are written under ``--out`` and the runs execute
there, so argv and input digests name no checkout path: two checkouts print
the same lines exactly when every report is byte-identical.  Diff the
outputs of two trees to show that a change keeps every report.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Mixes of perfbench/workloads.py that run in a second or two each.
MIXES = ("line-dense", "genus1-growth")
DEFAULT_SEEDS = (5, 6, 7)
# The reduced truncation of the small-spec commands; it splits no pair.
REDUCED_TERMS = 40


def _interleaved(k_max: int) -> list[float]:
    """+1, -1, +2, -2, ..., +k_max, -k_max."""
    return [float(sign * k) for k in range(1, k_max + 1) for sign in (1, -1)]


def _line_spec(xi: float, taus, class_tag: str = "Y_tilde", q: str | None = None) -> str:
    head = [f"class = {class_tag}", f"xi = {xi!r}", "s_at_xi = 1", "zeros_format = tau_only"]
    if q is not None:
        head.append(f"q = {q}")
    return "\n".join(head + ["zeros_inline:"] + [repr(t) for t in taus]) + "\n"


def _pairs_spec(class_tag: str, zeros, s0: str = "1") -> str:
    rows = [f"{z.real!r} {z.imag!r}" for z in zeros]
    return "\n".join([f"class = {class_tag}", f"s0 = {s0}", "zeros_inline:"] + rows) + "\n"


# The fixtures of tests/conftest.py as spec files, and edge inputs.
SMALL_SPECS = {
    "sinh_line.spec": lambda: _line_spec(1.0, _interleaved(5000)),
    "sinh_genus1.spec": lambda: _pairs_spec("L", [complex(0.0, t) for t in _interleaved(2000)]),
    "lbar.spec": lambda: _line_spec(1.0, _interleaved(200), "L_bar", "0.3"),
    "poly.spec": lambda: _pairs_spec("Y", [2.0 + 0j]),
    "duplicated.spec": lambda: _line_spec(1.0, [1.0, 1.0, -1.0, -1.0]),
    "tiny_zero_g0.spec": lambda: _pairs_spec("Y", [1e-10 + 0j]),
    "tiny_zero_g1.spec": lambda: _pairs_spec("L", [1e-10 + 0j]),
    "far_pair.spec": lambda: _line_spec(1.0, [1e30, -1e30]),
    # offsets that fall between the doubles a bisection reaches
    "fractional_line.spec": lambda: _line_spec(1.0, [0.3712345 * t for t in _interleaved(5000)]),
    # S(-1) = -(1 + 1e200)^2: a negative real product past the double range
    "negative_s0.spec": lambda: _pairs_spec("Y", [1e-200 + 0j, 1e-200 + 0j], s0="-1"),
    # a tiny conjugate pair ahead of +-ik: batch points lie past the pair range
    "tiny_pair.spec": lambda: _pairs_spec(
        "Y", [complex(1e-100, t) for t in (1e-100, -1e-100)] + [complex(0.0, t) for t in _interleaved(30)]
    ),
    # 1 +- ik, k <= 1000: rings out to |s| = 150 keep a far series
    "lbar_wide.spec": lambda: _line_spec(1.0, _interleaved(1000), "L_bar", "0.3"),
}

SMALL_COMMANDS = (
    ("eval", "--spec", "sinh_line.spec", "--s", "1.3+0.2i"),
    ("series", "--spec", "sinh_line.spec", "--center", "1+0.5i", "--kmax", "6"),
    ("series", "--spec", "sinh_line.spec", "--even", "--kmax", "6"),
    # power sums past their first head: the halved sums with the parity rule
    # (5000 pairs about the line's centre), and the full complex sums at genus 1
    ("series", "--spec", "sinh_line.spec", "--even", "--kmax", "60"),
    ("series", "--spec", "sinh_genus1.spec", "--center", "0.3+0.1i", "--kmax", "120"),
    ("shift", "--spec", "sinh_line.spec", "--alpha", "0.6+0.4i", "--s", "1.3+0.2i"),
    ("line", "--spec", "sinh_line.spec", "--x-min", "0.5", "--x-max", "3.5", "--samples", "40"),
    ("scan", "--spec", "sinh_line.spec", "--x-min", "0.5", "--x-max", "3.5", "--samples", "40"),
    ("order", "--spec", "sinh_line.spec", "--v-min", "2", "--v-max", "40", "--radii", "6",
     "--angular-samples", "16"),
    ("verify-identity", "--spec", "sinh_line.spec", "--theorem", "T7", "--x-min", "0.3",
     "--x-max", "1.8", "--samples", "24"),
    ("verify-identity", "--spec", "sinh_line.spec", "--theorem", "T8", "--x-min", "0.5",
     "--x-max", "3.5", "--samples", "40"),
    # off-centre shift points at genus 0, and the centre, over far zeros
    ("verify-identity", "--spec", "sinh_line.spec", "--theorem", "T2", "--seed", "4", "--draws", "5"),
    ("verify-identity", "--spec", "sinh_line.spec", "--theorem", "T4", "--seed", "4", "--draws", "5"),
    ("eval", "--spec", "sinh_genus1.spec", "--s", "0.3+0.7i"),
    # a real point over conjugate pairs, where the reducer halves each pair
    ("eval", "--spec", "sinh_genus1.spec", "--s", "9.6"),
    ("order", "--spec", "sinh_genus1.spec", "--v-min", "2", "--v-max", "30", "--radii", "6",
     "--angular-samples", "16"),
    ("mult", "--spec", "sinh_genus1.spec", "--center", "3i", "--radius", "0.3", "--nodes", "64"),
    ("verify-identity", "--spec", "sinh_genus1.spec", "--theorem", "T1", "--seed", "3",
     "--draws", "5"),
    ("exponent", "--spec", "sinh_genus1.spec", "--r-min", "5", "--r-max", "500"),
    ("line", "--spec", "lbar.spec", "--x-min", "-2", "--x-max", "2", "--samples", "33"),
    # mirrored pairs and a real q: each ring evaluates its upper half
    ("order", "--spec", "lbar.spec", "--v-min", "2", "--v-max", "40", "--radii", "6",
     "--angular-samples", "24"),
    ("verify-identity", "--spec", "lbar.spec", "--theorem", "T3", "--seed", "2", "--draws", "5"),
    ("verify-identity", "--spec", "lbar.spec", "--theorem", "T6", "--x-min", "0.3",
     "--x-max", "1.8", "--samples", "24"),
    ("verify-identity", "--spec", "lbar.spec", "--theorem", "T9", "--x-min", "1.5",
     "--x-max", "2.5"),
    # twelve retained zeros in the window: the first eight are audited
    ("verify-identity", "--spec", "lbar.spec", "--theorem", "T9", "--x-min", "-6.5",
     "--x-max", "6.5"),
    ("eval", "--spec", "poly.spec", "--s", "2"),
    # a lone real zero: every node of each ring is evaluated
    ("order", "--spec", "poly.spec", "--v-min", "4", "--v-max", "400", "--radii", "5",
     "--angular-samples", "16"),
    ("shift", "--spec", "poly.spec", "--alpha", "1+1i", "--s", "0.5"),
    # s at a retained zero: the shifted value is the exact 0, at genus 0 and 1
    ("shift", "--spec", "poly.spec", "--alpha", "1+1i", "--s", "2"),
    ("shift", "--spec", "sinh_genus1.spec", "--alpha", "0.5+0.5i", "--s", "1i"),
    # a zero inside every batch's cut: the batch has no far zeros
    ("verify-identity", "--spec", "poly.spec", "--theorem", "T2", "--seed", "4", "--draws", "5"),
    ("mult", "--spec", "duplicated.spec", "--center", "1+1i", "--radius", "0.2", "--nodes", "64"),
    # repeated offsets in modulus order, +1, +1, -1, -1: real line values
    ("line", "--spec", "duplicated.spec", "--x-min", "-1.5", "--x-max", "1.5", "--samples", "16"),
    ("shift", "--spec", "tiny_zero_g0.spec", "--alpha=1e300", "--s=1"),
    ("shift", "--spec", "tiny_zero_g1.spec", "--alpha=1e300", "--s=1"),
    # every zero far from every draw and from alpha: the shifted products are the far series alone
    ("verify-identity", "--spec", "far_pair.spec", "--theorem", "T4", "--seed", "4", "--draws", "5"),
    # line points past 2^255 times the least tau: real, with the sign of the taus below |x|
    ("line", "--spec", "far_pair.spec", "--x-min=-1e110", "--x-max=1e110", "--samples", "3"),
    # residuals of |V'| times up to half the stop width pass the scan's gate
    ("scan", "--spec", "fractional_line.spec", "--x-min", "100.1", "--x-max", "150.3"),
    # a saturated real value is a real infinity, imaginary part 0
    ("eval", "--spec", "negative_s0.spec", "--s", "-1"),
    # every batch point past the tiny pair's range: one log per factor, not per pair
    ("verify-identity", "--spec", "tiny_pair.spec", "--theorem", "T2", "--seed", "4", "--draws", "5"),
    # genus-1 rings of one log per pair out to 150, the zeros beyond 600 from power sums
    ("order", "--spec", "lbar_wide.spec", "--v-min", "10", "--v-max", "150", "--radii", "6",
     "--angular-samples", "16"),
    # checks that would measure nothing are refused
    ("verify-identity", "--spec", "poly.spec", "--theorem", "T2", "--draws", "0"),
    ("verify-identity", "--spec", "sinh_line.spec", "--theorem", "T5", "--kmax", "0"),
)


def small_corpus(terms=(None, REDUCED_TERMS)) -> list[tuple[str, ...]]:
    """argv of the small-spec commands at each truncation (None: the default)."""
    return [
        argv if n is None else (*argv, "--terms", str(n)) for n in terms for argv in SMALL_COMMANDS
    ]


def write_small_specs(out: Path) -> None:
    for name, text in SMALL_SPECS.items():
        (out / name).write_text(text())


def mix_corpus(out: Path, seed: int) -> list[tuple[str, ...]]:
    """Write the fixtures of each mix for ``seed`` into ``out``; return the mixes' argv."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from fixtures import write_fixtures
    from refs import load_refs
    from workloads import WORKLOADS

    refs = load_refs()
    argvs = []
    for name in MIXES:
        workload = WORKLOADS[name]
        paths = write_fixtures(out, workload.fixtures, seed)
        rel = {key: os.path.relpath(path, out) for key, path in paths.items()}
        argvs += [c.argv for c in workload.build(np.random.default_rng(seed), rel, refs)]
    return argvs


def digests(argvs, out: Path) -> list[str]:
    """One ``digest argv`` line per CLI run, each run made in ``out``."""
    sys.path.insert(0, str(ROOT / "src"))
    from entirefn.cli import run_command

    here = os.getcwd()
    os.chdir(out)
    try:
        return [f"{run_command(argv).digest} {' '.join(argv)}" for argv in argvs]
    finally:
        os.chdir(here)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=list(DEFAULT_SEEDS))
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "report_digests")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for seed in args.seeds:
        # each seed rewrites the mixes' fixtures, so its runs come before the next seed's
        lines += digests(mix_corpus(out, seed), out)
    write_small_specs(out)
    lines += digests(small_corpus(), out)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
