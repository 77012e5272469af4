"""Span recorder for the traced run, installed from outside the library.

``SpanRecorder.install`` replaces each traced public function in every
``entirefn.*`` module namespace that binds it (and each traced method on its
class) with a wrapper that records a span: name, label, start, end and the
index of the enclosing span.  ``uninstall`` puts the originals back.  A
span's self time is its duration minus the durations of its direct child
spans; in this single-threaded program children never overlap.

End-to-end numbers are taken with the recorder uninstalled.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name).  A dotted attribute names a method.  Span
# names prefix metric names, which must start with a letter: spans of
# entirefn._numeric are named "numeric.*".
TRACED = (
    ("cli", "run_command", "cli.run_command"),
    ("cli", "load_spec_file", "cli.load_spec_file"),
    ("cli", "RunReport.render", "cli.RunReport.render"),
    ("core_types", "ZeroSequence.sorted_by_modulus", "core_types.ZeroSequence.sorted_by_modulus"),
    ("core_types", "ZeroSequence.tail_profile", "core_types.ZeroSequence.tail_profile"),
    ("core_types", "make_symmetric_spec", "core_types.make_symmetric_spec"),
    ("product_engine", "eval_product", "product_engine.eval_product"),
    ("product_engine", "eval_shifted_product", "product_engine.eval_shifted_product"),
    ("product_engine", "shift_constant_residual", "product_engine.shift_constant_residual"),
    ("product_engine", "log_derivative", "product_engine.log_derivative"),
    ("_numeric", "complex_sum", "numeric.complex_sum"),
    ("series_engine", "power_sums", "series_engine.power_sums"),
    ("series_engine", "taylor_coefficients", "series_engine.taylor_coefficients"),
    ("series_engine", "even_series", "series_engine.even_series"),
    ("critical_line", "critical_line_profile", "critical_line.critical_line_profile"),
    ("critical_line", "scan_real_zeros", "critical_line.scan_real_zeros"),
    ("critical_line", "even_product_form", "critical_line.even_product_form"),
    ("analysis", "estimate_order", "analysis.estimate_order"),
    ("analysis", "verify_multiplicity", "analysis.verify_multiplicity"),
    ("analysis", "estimate_exponent", "analysis.estimate_exponent"),
)

SUBCOMMANDS = ("eval", "series", "shift", "line", "scan", "order", "exponent", "mult")
THEOREMS = ("T1", "T3", "T4", "T6", "T7", "T8", "T9")

# Per-layer metrics reported by a traced run, with their units.  Every value
# is per traced pass.  "<span>.s" is inclusive time; "<span>.self_s" excludes
# child spans.  The ".s" metrics of spans that never have children equal
# their self time, so the self times listed here plus trace.remainder_s add
# up to trace.wall_s.
PER_LAYER = (
    [
        ("cli.load_spec_file.calls", "count"),
        ("cli.load_spec_file.self_s", "s"),
        ("cli.run_command.self_s", "s"),
        ("cli.RunReport.render.s", "s"),
    ]
    + [(f"cli.cmd.{c}.s", "s") for c in SUBCOMMANDS]
    + [(f"cli.cmd.verify-identity.{t}.s", "s") for t in THEOREMS]
    + [
        ("core_types.ZeroSequence.sorted_by_modulus.s", "s"),
        ("core_types.make_symmetric_spec.self_s", "s"),
        ("core_types.ZeroSequence.tail_profile.calls", "count"),
        ("core_types.ZeroSequence.tail_profile.s", "s"),
        ("product_engine.eval_product.calls", "count"),
        ("product_engine.eval_product.self_s", "s"),
        ("product_engine.eval_product.factors", "count"),
        ("product_engine.eval_shifted_product.calls", "count"),
        ("product_engine.eval_shifted_product.self_s", "s"),
        ("product_engine.shift_constant_residual.calls", "count"),
        ("product_engine.shift_constant_residual.self_s", "s"),
        ("product_engine.log_derivative.calls", "count"),
        ("product_engine.log_derivative.self_s", "s"),
        ("numeric.complex_sum.calls", "count"),
        ("numeric.complex_sum.s", "s"),
        ("numeric.complex_sum.elements", "count"),
        ("series_engine.power_sums.calls", "count"),
        ("series_engine.power_sums.self_s", "s"),
        ("series_engine.taylor_coefficients.self_s", "s"),
        ("series_engine.even_series.self_s", "s"),
        ("critical_line.critical_line_profile.calls", "count"),
        ("critical_line.critical_line_profile.self_s", "s"),
        ("critical_line.critical_line_profile.eval_calls", "count"),
        ("critical_line.scan_real_zeros.self_s", "s"),
        ("critical_line.scan_real_zeros.eval_calls", "count"),
        ("critical_line.scan_real_zeros.evals_per_root", "evals/root"),
        ("critical_line.even_product_form.calls", "count"),
        ("critical_line.even_product_form.self_s", "s"),
        ("critical_line.even_product_form.eval_calls", "count"),
        ("analysis.estimate_order.self_s", "s"),
        ("analysis.estimate_order.eval_calls", "count"),
        ("analysis.verify_multiplicity.calls", "count"),
        ("analysis.verify_multiplicity.self_s", "s"),
        ("analysis.verify_multiplicity.logderiv_calls", "count"),
        ("analysis.estimate_exponent.s", "s"),
        ("trace.wall_s", "s"),
        ("trace.remainder_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
)

# Span fields.
NAME, LABEL, START, END, PARENT = range(5)


def _command_label(argv) -> str:
    """'scan', 'verify-identity.T8', ... from run_command's argv."""
    argv = [str(a) for a in argv]
    if argv[0] == "verify-identity" and "--theorem" in argv[:-1]:
        return f"verify-identity.{argv[argv.index('--theorem') + 1]}"
    return argv[0]


class SpanRecorder:
    """Records spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        labelled = name == "cli.run_command"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, _command_label(args[0]) if labelled else None,
                    time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if name == "product_engine.eval_product":
                counts[f"{name}.factors"] += result.terms_used
            elif name == "numeric.complex_sum":
                counts[f"{name}.elements"] += int(np.size(args[0]))
            elif name == "critical_line.scan_real_zeros":
                counts[f"{name}.roots"] += len(result.estimates)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "entirefn" or n.startswith("entirefn.")]
        for module_name, attr, name in TRACED:
            owner = sys.modules[f"entirefn.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the recorded spans as JSON: [name, label, start, end, parent]."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))

    def metrics(self, traced_passes: list[float], untraced_passes: list[float]) -> dict:
        """Per-layer metrics per traced pass, from the traced and untraced pass times."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        child_calls: Counter = Counter()
        commands: defaultdict = defaultdict(float)
        for span in self.spans:
            duration = span[END] - span[START]
            calls[span[NAME]] += 1
            total[span[NAME]] += duration
            self_s[span[NAME]] += duration
            if span[PARENT] >= 0:
                parent = self.spans[span[PARENT]]
                self_s[parent[NAME]] -= duration
                child_calls[parent[NAME], span[NAME]] += 1
            if span[LABEL] is not None:
                commands[span[LABEL]] += duration

        values: dict[str, float] = {}
        for name in calls:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.s"] = total[name]
            values[f"{name}.self_s"] = self_s[name]
        for label, duration in commands.items():
            values[f"cli.cmd.{label}.s"] = duration
        values.update(self.counts)
        evals = "product_engine.eval_product"
        for consumer in (
            "critical_line.critical_line_profile",
            "critical_line.scan_real_zeros",
            "critical_line.even_product_form",
            "analysis.estimate_order",
        ):
            values[f"{consumer}.eval_calls"] = child_calls[consumer, evals]
        values["analysis.verify_multiplicity.logderiv_calls"] = child_calls[
            "analysis.verify_multiplicity", "product_engine.log_derivative"
        ]
        passes = len(traced_passes)
        values["trace.wall_s"] = sum(traced_passes)
        values["trace.remainder_s"] = sum(traced_passes) - sum(self_s.values())

        out = {name: values.get(name, 0) / passes for name, _ in PER_LAYER}
        roots = values.get("critical_line.scan_real_zeros.roots", 0)
        out["critical_line.scan_real_zeros.evals_per_root"] = (
            values["critical_line.scan_real_zeros.eval_calls"] / roots if roots else 0.0
        )
        out["trace.overhead_frac"] = (
            statistics.median(traced_passes) / statistics.median(untraced_passes) - 1.0
        )
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
