"""``run_command`` never raises: generated spec files and arguments over the double range."""

from __future__ import annotations

import cmath
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from entirefn.cli import run_command
from entirefn.identities import IDENTITY_TAGS

SUBCOMMANDS = ("eval", "series", "shift", "line", "scan", "order", "exponent", "mult", "verify-identity")


def magnitudes():
    """Signed reals of magnitude 1e-300 to 1e300."""
    size = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300))
    return st.builds(lambda v, neg: -v if neg else v, size, st.booleans())


reals = st.one_of(magnitudes(), st.just(0.0))
complexes = st.builds(complex, reals, reals)


def literal(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


@st.composite
def spec_files(draw) -> str:
    tag = draw(st.sampled_from(["Y", "L", "Y_tilde", "L_bar"]))
    symmetric = tag in ("Y_tilde", "L_bar")
    lines = [f"class = {tag}"]
    if symmetric:
        lines.append(f"xi = {draw(magnitudes())!r}")
    if tag in ("L", "L_bar") and draw(st.booleans()):
        lines.append(f"q = {literal(draw(complexes))}")
    key = "s_at_xi" if symmetric and draw(st.booleans()) else "s0"
    lines.append(f"{key} = {literal(draw(complexes.filter(bool)))}")
    paired = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if symmetric:
            tau = draw(magnitudes())
            rows += [repr(tau), repr(-tau)] if paired else [repr(tau)]
        else:
            z = complex(draw(reals), draw(magnitudes() if paired else reals)) or 1.0
            rows.append(f"{z.real!r} {z.imag!r}")
            if paired:
                rows.append(f"{z.real!r} {-z.imag!r}")
    if symmetric:
        lines.append("zeros_format = tau_only")
    return "\n".join([*lines, "zeros_inline:", *rows]) + "\n"


@st.composite
def arguments(draw) -> list[str]:
    name = draw(st.sampled_from(SUBCOMMANDS))
    args = [name]
    if draw(st.booleans()):
        args += ["--terms", str(draw(st.integers(0, 30)))]

    def point() -> str:
        return literal(draw(complexes))

    def window(samples_key: str = "--samples") -> list[str]:
        low, high = sorted([draw(reals), draw(reals)])
        return [f"--x-min={low!r}", f"--x-max={high!r}", samples_key, str(draw(st.integers(2, 12)))]

    def radii(low_key: str, high_key: str) -> list[str]:
        low, high = sorted(abs(draw(magnitudes())) for _ in range(2))
        return [low_key, repr(low), high_key, repr(high)]

    if name == "eval":
        args.append(f"--s={point()}")
    elif name == "series":
        args += ["--even"] if draw(st.booleans()) else [f"--center={point()}"]
        args += ["--kmax", str(draw(st.integers(0, 12)))]
    elif name == "shift":
        args += [f"--alpha={point()}", f"--s={point()}"]
    elif name in ("line", "scan"):
        args += window()
    elif name == "order":
        args += radii("--v-min", "--v-max")
        args += ["--radii", str(draw(st.integers(3, 6)))]
        args += ["--angular-samples", str(draw(st.integers(4, 16)))]
    elif name == "exponent":
        args += radii("--r-min", "--r-max")
    elif name == "mult":
        args += [f"--center={point()}", "--radius", repr(abs(draw(magnitudes())))]
        args += ["--nodes", str(draw(st.integers(16, 64)))]
    else:
        args += ["--theorem", draw(st.sampled_from(IDENTITY_TAGS))]
        args += ["--draws", str(draw(st.integers(1, 3))), "--kmax", str(draw(st.integers(0, 8)))]
        args += window()
    return args


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "func.spec"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=spec_files(), argv=arguments())
# a NaN log on a ring: the call refuses it, with no warning from the ring maxima
@example(
    text="class = L\ns0 = 1.0+0.0i\nzeros_inline:\n1e-41 0.0\n",
    argv=["order", "--v-min", "10", "--v-max", "1e268", "--radii", "3", "--angular-samples", "4"],
)
def test_run_command_never_raises(spec_path, text, argv) -> None:
    spec_path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_command([argv[0], "--spec", str(spec_path), *argv[1:]])
    assert not caught, [str(w.message) for w in caught]
    assert report.exit_code in (0, 1, 2)
    for record in report.records:
        if isinstance(record.value, (float, complex)):
            assert not cmath.isnan(record.value), record.render()
