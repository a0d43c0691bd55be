"""Spans around calls into starcert's layers, installed from outside the library.

A ``Tracer`` replaces each layer function with a wrapper on every binding
that starcert's modules hold: ``starcert.oracle.evaluate_grid`` and
``starcert.functionals.div`` are imported names, so patching the defining
module alone would miss the calls that go through them.  Every wrapped call
appends one span (name, start, end, parent span, op id) to an in-memory
list; exact counters are updated beside the spans.  ``installed()`` puts
every original binding back when the traced block ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


def _cfg(args, kwargs):
    from starcert.oracle import SamplingConfig

    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return cfg or SamplingConfig()


def _count_grid(counts, args, kwargs, result):
    a, z = args[0], args[1]
    counts["series.evaluate_grid.points"] += z.size
    counts["series.evaluate_grid.coeff_points"] += z.size * a.coeffs.size


def _count_refine(counts, args, kwargs, result):
    counts["refine.returned"] += 1
    if result[0] != args[2]:
        counts["refine.moved"] += 1


def _count_sup(counts, args, kwargs, result):
    radii = _cfg(args, kwargs).radii
    skipped = set(result.skipped_radii)
    accepted = [r for r in radii if r not in skipped]
    counts["oracle.circles_sampled"] += len(accepted)
    counts["oracle.radii_skipped"] += len(skipped)
    counts["witness.estimates"] += 1
    if result.witness_r == max(accepted):
        counts["witness.outer"] += 1


def _count_min_real(counts, args, kwargs, result):
    radii = _cfg(args, kwargs).radii
    counts["oracle.circles_sampled"] += len(radii)
    counts["witness.estimates"] += 1
    if result.witness_r == max(radii):
        counts["witness.outer"] += 1


def _count_report_bytes(counts, args, kwargs, result):
    counts["cli.write_report.bytes"] += len(args[1].encode())


# (module, function, span name, counter hook, may be absent).  The two
# private oracle stages are optional so that a change which folds them away
# reports zero calls instead of breaking the benchmark.
LAYER_FUNCTIONS = (
    ("oracle", "_refine_circle", "oracle.refine", _count_refine, True),
    ("oracle", "_denominator_violations", "oracle.denominator_monitor", None, True),
    ("oracle", "sup_on_disk", "oracle.sup_on_disk", _count_sup, False),
    ("oracle", "min_real_on_disk", "oracle.min_real_on_disk", _count_min_real, False),
    ("oracle", "check_criterion", "oracle.check_criterion", None, False),
    ("series", "evaluate_grid", "series.evaluate_grid", _count_grid, False),
    ("series", "tail_estimate", "series.tail_estimate", None, False),
    ("series", "div", "series.div", None, False),
    ("series", "mul", "series.mul", None, False),
    ("series", "exp_unit", "series.exp_unit", None, False),
    ("series", "log_unit", "series.log_unit", None, False),
    ("functionals", "starlike_quotient", "functionals.quotients", None, False),
    ("functionals", "convex_quotient", "functionals.quotients", None, False),
    ("functionals", "w_func", "functionals.quotients", None, False),
    ("functionals", "lhs_a", "functionals.quotients", None, False),
    ("functionals", "lhs_b", "functionals.quotients", None, False),
    ("functionals", "mocanu_functional", "functionals.quotients", None, False),
    ("functionals", "centered_quotient", "functionals.quotients", None, False),
    ("functionals", "identity_a_residual", "functionals.identity_residual", None, False),
    ("functionals", "identity_b_residual", "functionals.identity_residual", None, False),
    ("extremals", "build_extremal", "extremals.build_extremal", None, False),
    ("extremals", "verify_identity_b", "extremals.selfcheck", None, False),
    ("extremals", "probe_identity_a", "extremals.selfcheck", None, False),
    ("cli", "build_parser", "cli.build_parser", None, False),
    ("cli", "load_function_spec", "cli.load_function_spec", None, False),
    ("cli", "render_report_body", "cli.render_report_body", None, False),
    ("cli", "write_report", "cli.write_report", _count_report_bytes, False),
)

# Span name -> the time metrics reported for it ("s" is span time, "self_s"
# is span time minus the time of its child spans).
SPAN_METRICS = {
    "oracle.refine": ("s",),
    "oracle.denominator_monitor": ("s",),
    "oracle.sup_on_disk": ("self_s",),
    "oracle.min_real_on_disk": ("self_s",),
    "oracle.check_criterion": ("self_s", "s"),
    "series.evaluate_grid": ("self_s",),
    "series.tail_estimate": ("self_s",),
    "series.div": ("self_s",),
    "series.mul": ("self_s",),
    "series.exp_unit": ("self_s",),
    "series.log_unit": ("self_s",),
    "functionals.quotients": ("self_s",),
    "functionals.identity_residual": ("self_s",),
    "extremals.build_extremal": ("self_s",),
    "extremals.selfcheck": ("self_s",),
    "cli.build_parser": ("self_s",),
    "cli.load_function_spec": ("self_s",),
    "cli.render_report_body": ("self_s",),
    "cli.write_report": ("self_s",),
}

COUNTERS = (
    "oracle.circles_sampled",
    "oracle.radii_skipped",
    "series.evaluate_grid.points",
    "series.evaluate_grid.coeff_points",
    "cli.write_report.bytes",
)

UNITS = {"calls": "count", "s": "s", "self_s": "s", "bytes": "B",
         "useful_ratio": "ratio", "witness_outer_ratio": "ratio",
         "overhead_ratio": "ratio"}

# Counts that must repeat exactly for a fixed seed and run size.
EXACT_COUNTS = (
    "series.evaluate_grid.coeff_points",
    "oracle.circles_sampled",
    "oracle.refine.calls",
    "oracle.radii_skipped",
    "oracle.witness_outer_ratio",
    "oracle.refine.useful_ratio",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for span, kinds in SPAN_METRICS.items():
        names += [f"{span}.calls"] + [f"{span}.{k}" for k in kinds]
    names += list(COUNTERS)
    names += ["oracle.refine.useful_ratio", "oracle.witness_outer_ratio"]
    # Set by the worker: traced vs untraced time of the same ops.
    names += ["trace.overhead_ratio", "trace.spans"]
    return names


def metric_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return UNITS.get(last, "count")


class Tracer:
    """In-memory span recorder for one traced run (single thread)."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function on every starcert binding of it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "starcert" or n.startswith("starcert.")]
        restore = []
        try:
            for mod_name, attr, span, hook, optional in LAYER_FUNCTIONS:
                original = getattr(sys.modules[f"starcert.{mod_name}"], attr, None)
                if original is None:
                    if optional:
                        continue
                    raise AttributeError(f"starcert.{mod_name}.{attr} is missing")
                wrapper = self.wrap(span, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(restore):
                setattr(mod, key, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, span and self times, and the exact counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        out: dict[str, float] = {}
        for span, kinds in SPAN_METRICS.items():
            out[f"{span}.calls"] = calls[span]
            for kind in kinds:
                out[f"{span}.{kind}"] = total[span] if kind == "s" else own[span]
        c = self.counts
        for name in COUNTERS:
            out[name] = c[name]
        out["oracle.refine.useful_ratio"] = (
            c["refine.moved"] / c["refine.returned"] if c["refine.returned"] else 0.0)
        out["oracle.witness_outer_ratio"] = (
            c["witness.outer"] / c["witness.estimates"]
            if c["witness.estimates"] else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
