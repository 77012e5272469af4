"""High-precision references for the outputs the benchmark checks.

Every fixture has zeros at exact integers, so each truncated product reduces
to pairwise factors evaluated here with mpmath at 128 bits:

    Y_tilde line fixtures, s = 1 + u:   S(s) = prod_{k<=K} (1 + u^2/k^2)
    class L, zeros +- ik:               S(s) = prod_{k<=K} (1 + s^2/k^2)

(The line fixtures have S(xi) = 1, and the genus-1 exponentials of a
conjugate pair cancel.)  The Taylor coefficients the workloads check follow
from the same factors.  References are stored in ``refs.json`` next to this
file; regenerate them with

    python3 perfbench/refs.py

which takes about 20 seconds on one core, most of it in the 10^6-zero product.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

PREC = 128
REFS_PATH = Path(__file__).with_name("refs.json")
# Value records are checked only at points at least this far from every zero.
MIN_ZERO_DISTANCE = 1e-3

# Fixed evaluation points of the reference-checked commands.  They do not
# depend on the run seed, so err_max is the same on every run.
LINE_WINDOW = (0.25, 6.25, 96)  # line --x-min --x-max --samples on line1e4
SCAN_WINDOW = (0.55, 2.45, 64)  # scan window on line1e4: roots at 1 and 2
SERIES_CENTER = 1.3 + 0.2j  # series --center on line1e4
SERIES_KMAX = 200
BULK_POINT = 1.3 + 0.2j  # eval --s and shift --s on line1e6
BULK_ALPHA = 0.6 + 0.4j  # shift --alpha on line1e6
EVEN_KMAX = 20
GENUS1_POINT = 1.3 + 0.2j  # shift --s on genus1_L
GENUS1_ALPHA = 0.6 + 0.4j  # shift --alpha on genus1_L

K_LINE = 5000
K_BULK = 500_000
K_GENUS1 = 2000


def _mp(x) -> mpmath.mpc:
    """Exact conversion of a double or complex double to mpmath."""
    x = complex(x)
    return mpmath.mpc(mpmath.mpf(x.real), mpmath.mpf(x.imag))


def pair_product(u, k_max: int):
    """prod_{k<=k_max} (1 + u^2/k^2), accumulated factor by factor."""
    u2 = u * u
    total = mpmath.mpf(1)
    for k in range(1, k_max + 1):
        total *= 1 + u2 / (k * k)
    return total


def gamma_pair_product(u, k_max: int):
    """Closed form of ``pair_product`` through Gamma functions (cross-check).

    prod_{k<=K} (k - iu)(k + iu) / k^2
        = Gamma(K+1-iu) Gamma(K+1+iu) / (Gamma(1-iu) Gamma(1+iu) Gamma(K+1)^2)
    """
    iu = 1j * u
    return mpmath.exp(
        mpmath.loggamma(k_max + 1 - iu)
        + mpmath.loggamma(k_max + 1 + iu)
        - mpmath.loggamma(1 - iu)
        - mpmath.loggamma(1 + iu)
        - 2 * mpmath.loggamma(k_max + 1)
    )


def taylor_refs(u0, k_max: int):
    """c0, c1, c2 of prod (1 + u^2/k^2) about u0 (h = u - u0)."""
    p = pair_product(u0, k_max)
    d1 = mpmath.mpf(0)
    d2 = mpmath.mpf(0)
    u2 = u0 * u0
    for k in range(1, k_max + 1):
        denom = k * k + u2
        d1 += 2 * u0 / denom
        d2 += 2 * (k * k - u2) / (denom * denom)
    return [p, p * d1, p * (d1 * d1 + d2) / 2]


def even_refs(k_max: int):
    """c0, c2, c4 of prod (1 + u^2/k^2) about u = 0."""
    e1 = mpmath.mpf(0)
    p2 = mpmath.mpf(0)
    for k in range(1, k_max + 1):
        inv = mpmath.mpf(1) / (k * k)
        e1 += inv
        p2 += inv * inv
    return [mpmath.mpf(1), e1, (e1 * e1 - p2) / 2]


def line_grid() -> np.ndarray:
    """The grid ``line`` samples: np.linspace, exactly as the CLI builds it."""
    x_min, x_max, samples = LINE_WINDOW
    return np.linspace(x_min, x_max, samples)


def _line_values(k_max: int):
    values = []
    for x in line_grid().tolist():
        if abs(x - round(x)) < MIN_ZERO_DISTANCE and round(x) >= 1:
            values.append(None)  # too close to a zero for a relative check
        else:
            values.append(pair_product(1j * mpmath.mpf(x), k_max))
    return values


def compute_refs() -> dict[str, list]:
    """Every reference the workloads check, keyed by reference id."""
    with mpmath.workprec(PREC):
        bulk_u = _mp(BULK_POINT) - 1
        return {
            "line1e4.line": _line_values(K_LINE),
            "line1e4.series": taylor_refs(_mp(SERIES_CENTER) - 1, K_LINE),
            "line1e6.eval": [pair_product(bulk_u, K_BULK)],
            "line1e6.even": even_refs(K_BULK),
            "genus1_L.eval": [pair_product(_mp(GENUS1_POINT), K_GENUS1)],
        }


def _encode(value):
    if value is None:
        return None
    with mpmath.workprec(PREC):
        value = mpmath.mpc(value)
        return [mpmath.nstr(value.real, 40), mpmath.nstr(value.imag, 40)]


def _decode(item):
    if item is None:
        return None
    with mpmath.workprec(PREC):
        return mpmath.mpc(mpmath.mpf(item[0]), mpmath.mpf(item[1]))


def write_refs(path: Path = REFS_PATH) -> None:
    refs = compute_refs()
    body = {"precision_bits": PREC, "refs": {k: [_encode(v) for v in vs] for k, vs in refs.items()}}
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")


def load_refs(path: Path = REFS_PATH) -> dict[str, list]:
    body = json.loads(path.read_text())
    return {k: [_decode(v) for v in vs] for k, vs in body["refs"].items()}


def rel_error(computed, ref) -> float:
    """|computed - ref| / |ref|, evaluated without rounding the reference."""
    with mpmath.workprec(PREC):
        return float(abs(_mp(computed) - ref) / abs(ref))


if __name__ == "__main__":
    write_refs()
    print(f"wrote {REFS_PATH}")
