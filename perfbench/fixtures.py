"""Deterministic fixture generator for the entirefn benchmark.

Four spec files describe the zero sets the workloads run on.  All zeros sit
at exact small integers, so the truncated products have closed forms that
``refs.py`` evaluates with mpmath:

    line1e4   Y_tilde, xi = 1, zeros 1 +- ik, k <= 5000    (tau_only table)
    line1e6   Y_tilde, xi = 1, zeros 1 +- ik, k <= 500000  (tau_only table)
    genus1_L  L, s0 = 1, zeros +- ik, k <= 2000            (complex_pairs table)
    lbar      L_bar, xi = 1, q = 0.3, zeros 1 +- ik, k <= 2000 (inline tau_only)

The seed only permutes the table rows.  Ingest sorts zeros by modulus with a
deterministic tie-break, so every numeric output is the same for every seed,
while the parser and the sort see a different row order each time.

Usage: python3 perfbench/fixtures.py OUT_DIR [--seed N]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Rows written per chunk, so writing the 10^6-row table stays small in memory.
_CHUNK = 65536


@dataclass(frozen=True)
class Fixture:
    name: str
    class_tag: str
    k_max: int
    xi: float | None
    q: float
    inline: bool

    @property
    def n_zeros(self) -> int:
        return 2 * self.k_max


FIXTURES = {
    f.name: f
    for f in (
        Fixture("line1e4", "Y_tilde", 5000, 1.0, 0.0, inline=False),
        Fixture("line1e6", "Y_tilde", 500_000, 1.0, 0.0, inline=False),
        Fixture("genus1_L", "L", 2000, None, 0.0, inline=False),
        Fixture("lbar", "L_bar", 2000, 1.0, 0.3, inline=True),
    )
}


def _rows(fixture: Fixture, seed: int) -> list[str]:
    """Table rows for ``fixture`` in a seed-dependent order, one string per zero."""
    k = np.arange(1, fixture.k_max + 1, dtype=float)
    taus = np.empty(fixture.n_zeros)
    taus[0::2] = k
    taus[1::2] = -k
    taus = taus[np.random.default_rng(seed).permutation(taus.size)]
    if fixture.xi is None:
        return [f"0.0 {t!r}" for t in taus.tolist()]
    return [repr(t) for t in taus.tolist()]


def _header(fixture: Fixture) -> list[str]:
    lines = [f"# entirefn benchmark fixture {fixture.name}", f"class = {fixture.class_tag}"]
    if fixture.xi is not None:
        lines.append(f"xi = {fixture.xi!r}")
        lines.append("zeros_format = tau_only")
        lines.append("s_at_xi = 1")
    else:
        lines.append("zeros_format = complex_pairs")
        lines.append("s0 = 1")
    if fixture.q:
        lines.append(f"q = {fixture.q!r}")
    return lines


def _write_rows(handle, rows: list[str]) -> None:
    for start in range(0, len(rows), _CHUNK):
        handle.write("\n".join(rows[start : start + _CHUNK]))
        handle.write("\n")


def write_fixture(out_dir: Path, name: str, seed: int) -> Path:
    """Write one fixture's spec (and table) into ``out_dir``; return the spec path."""
    fixture = FIXTURES[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / f"{name}.spec"
    header = _header(fixture)
    rows = _rows(fixture, seed)
    if fixture.inline:
        with open(spec_path, "w") as handle:
            handle.write("\n".join(header + ["zeros_inline:"]) + "\n")
            _write_rows(handle, rows)
    else:
        table_name = f"{name}.zeros"
        with open(out_dir / table_name, "w") as handle:
            _write_rows(handle, rows)
        spec_path.write_text("\n".join(header + [f"zeros_file = {table_name}"]) + "\n")
    return spec_path


def write_fixtures(out_dir: Path, names, seed: int) -> dict[str, Path]:
    """Write the named fixtures; return a map from fixture name to spec path."""
    return {name: write_fixture(Path(out_dir), name, seed) for name in names}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for name, path in write_fixtures(args.out_dir, FIXTURES, args.seed).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
