"""Benchmark runner for entirefn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs one workload with a single
closed-loop caller: each CLI invocation (``entirefn.cli.run_command`` plus
``RunReport.render``, as ``entirefn`` does minus the write to stdout) starts
after the previous one has finished.  The run

1. writes the workload's fixtures for the seed under .bench_build/perfbench/;
2. runs one warm-up pass of the command mix, checks every output and keeps
   each command's report digest;
3. times ``load_spec_file`` of the workload's specs several times (setup_s);
4. runs timed passes until ``--seconds`` have passed, checking each command
   again, digest included.  With ``--trace 1`` every other pass runs with the
   span recorder installed, and the per-layer metrics come from those passes.

wall_s and setup_s are rescaled to a reference host speed (hostspeed.py).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it describes the machine and the run, raw times
included.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from fixtures import write_fixtures
from hostspeed import HostSpeedClock
from refs import load_refs
from spans import SpanRecorder
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
# A run measures at least this many passes, even past --seconds.
MIN_PASSES = 3
# setup_s: at least this many loads, and more while they take under 1 s.
MIN_SETUP_LOADS = 3
MAX_SETUP_LOADS = 25


def _cache_size(level: str) -> str | None:
    """L2/L3 size from sysfs, e.g. '4096K'; None where unavailable."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if not base.is_dir():
        return None
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == level:
                return (index / "size").read_text().strip()
        except OSError:
            return None
    return None


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "l2": _cache_size("2"),
        "l3": _cache_size("3"),
        "note": "bulk-1e6 holds 16 MB of zeros, which fits in L3: not a memory-bandwidth test",
    }


class Tally:
    """Counts attempted and failed commands and the largest checked error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.err_max = 0.0
        self.failures: list[str] = []

    def check(self, command, report, digest: str, warm_digest: str | None) -> None:
        self.attempted += 1
        try:
            if warm_digest is not None and digest != warm_digest:
                raise CheckFailed("report digest differs from the warm-up pass")
            errors = command.check(report)
        except (CheckFailed, KeyError, TypeError) as exc:
            self.failed += 1
            self.failures.append(f"{' '.join(command.argv)}: {exc!r}")
            return
        self.err_max = max([self.err_max, *errors])


def _invoke(cli, argv) -> tuple[object, str]:
    report = cli.run_command(argv)
    return report, report.render()


def run_pass(
    cli, clock: HostSpeedClock, commands, tally: Tally, digests: dict, warm_up: bool = False
) -> list[tuple[float, float]]:
    """Run the mix once; return (raw, rescaled) time of each CLI invocation.

    The warm-up pass stores each command's report digest in ``digests``;
    later passes must reproduce it.
    """
    gc.collect()
    elapsed = []
    for command in commands:
        (report, rendered), raw, scaled = clock.time(_invoke, cli, command.argv)
        elapsed.append((raw, scaled))
        digest = rendered.splitlines()[-2]  # "meta report_digest = sha256:..."
        if warm_up:
            digests[command.argv] = digest
        tally.check(command, report, digest, None if warm_up else digests[command.argv])
    return elapsed


def _load(cli, path) -> None:
    cli.load_spec_file(path)  # dropped at once: no two loaded specs coexist


def measure_setup(cli, clock: HostSpeedClock, spec_paths) -> float:
    """Median over repeats of the summed, rescaled load time of every spec."""
    times: list[float] = []
    spent = 0.0
    while len(times) < MIN_SETUP_LOADS or (spent < 1.0 and len(times) < MAX_SETUP_LOADS):
        gc.collect()
        total = 0.0
        for path in spec_paths:
            _, raw, scaled = clock.time(_load, cli, path)
            spent += raw
            total += scaled
        times.append(total)
    return statistics.median(times)


def _pass_times(passes, column: int) -> list[float]:
    return [sum(t[column] for t in p) for p in passes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entirefn benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entirefn" / "__init__.py").is_file():
        print(f"entirefn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from entirefn import cli

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_build" / "perfbench" / workload.name
    paths = write_fixtures(out_dir, workload.fixtures, args.seed)
    # Relative paths keep the echoed argv independent of the checkout location.
    rel_paths = {name: os.path.relpath(path, Path.cwd()) for name, path in paths.items()}
    commands = workload.build(np.random.default_rng(args.seed), rel_paths, load_refs())

    tally = Tally()
    digests: dict = {}
    recorder = SpanRecorder() if args.trace else None
    untraced: list[list[tuple[float, float]]] = []
    traced: list[list[tuple[float, float]]] = []
    with HostSpeedClock() as clock:
        run_pass(cli, clock, commands, tally, digests, warm_up=True)
        setup_s = measure_setup(cli, clock, list(paths.values()))
        deadline = time.perf_counter() + args.seconds
        while True:
            if recorder is not None and len(untraced) > len(traced):
                recorder.install()
                try:
                    traced.append(run_pass(cli, clock, commands, tally, digests))
                finally:
                    recorder.uninstall()
            else:
                untraced.append(run_pass(cli, clock, commands, tally, digests))
            done = len(untraced) + len(traced)
            if time.perf_counter() >= deadline and done >= MIN_PASSES and (not args.trace or traced):
                break

    if recorder is not None:
        # Per-layer times are raw: spans and passes are timed by one clock,
        # and the probes' time sits inside both.
        metrics = recorder.metrics(_pass_times(traced, 0), _pass_times(untraced, 0))
        recorder.dump(out_dir / "spans.json")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(_pass_times(untraced, 1)), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "err_max": {"value": tally.err_max, "unit": "rel"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "raw_wall_s": statistics.median(_pass_times(untraced, 0)),
        "raw_command_s": [[round(t[0], 5) for t in p] for p in untraced],
        "scaled_command_s": [[round(t[1], 5) for t in p] for p in untraced],
        "machine": machine_info(),
    }
    print(json.dumps(info))
    result = {
        "correct": tally.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
