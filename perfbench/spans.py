"""Outside-in tracing of ``ksetlab``: spans around its public functions.

``Tracer.install`` replaces each function in ``WRAPPED`` with a wrapper
that records a span, in every ``ksetlab`` module that holds it, so a call
through a name imported with ``from .x import f`` is seen as well as one
through ``x.f``.  ``uninstall`` puts the originals back.  Nothing under
``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, op, value]``: ``parent`` is
the index of the enclosing span (the op's own root span for top-level
calls), ``op`` the op id, and ``value`` what the entry's hook read off the
call (a size, or a result flag), else None.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
direct children; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


def _n_of_first_arg(args: tuple, kwargs: dict, result: Any) -> int:
    return args[0].n


def _suite_span(args: tuple, kwargs: dict) -> str:
    return f"verify.suite.{args[0] if args else kwargs['name']}"


# (module, function, span name or a function of the call's arguments, value hook)
WRAPPED: list[tuple[str, str, str | Callable[[tuple, dict], str], Callable | None]] = [
    ("io", "load_point_set", "io.parse", None),
    ("io", "save_point_set", "io.write", None),
    ("geometry", "is_general_position", "geometry.general_position",
     lambda args, kwargs, result: bool(result)),
    ("circular", "default_start_direction", "circular.start_direction", None),
    ("circular", "interval_sample_directions", "circular.sample_directions", None),
    ("circular", "build_halfperiod", "circular.halfperiod",
     lambda args, kwargs, result: result.n),
    ("circular", "kset_vector_from_halfperiod", "circular.counts", None),
    ("circular", "critical_counts", "circular.counts", None),
    ("decompose", "generate", "decompose.generate", lambda args, kwargs, result: args[0]),
    ("decompose", "check_partition", "decompose.check_partition", _n_of_first_arg),
    ("decompose", "locate_halfperiod_witness", "decompose.witness", None),
    ("bounds", "bound_report", "bounds.bound_report", None),
    ("bounds", "kset_lower_bound", "bounds.kset_lower_bound", None),
    ("bounds", "crossing_lower_bound", "bounds.crossing_lower_bound", None),
    ("bounds", "slack_quartic", "bounds.slack_quartic", None),
    ("bounds", "build_extremal_digraph", "bounds.extremal", None),
    ("bounds", "extremal_edge_count", "bounds.extremal", None),
    ("bounds", "extremal_edge_summands", "bounds.extremal", None),
    ("bounds", "extremal_indegree", "bounds.extremal", None),
    # The series suite's quadrature stays inside verify.suite.series: it is
    # the suite's own work and the reason scipy is imported.
    ("verify", "run_suite", _suite_span, None),
    ("cli", "cmd_gen", "cli.gen", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "cmd_bounds", "cli.bounds", None),
    ("cli", "cmd_verify", "cli.verify", None),
]

OP_SPAN = "op"

#: Units of the derived per-layer metrics; the rest end in ``_s`` or ``.calls``.
DERIVED_UNITS = {
    "geometry.general_position.calls_per_op": "calls/op",
    "circular.swaps": "count",
    "decompose.generator_yield": "sets/check",
    "decompose.generator_redraws": "count",
    "bounds.kset_lower_bound.calls_per_report": "calls/report",
    "trace.coverage": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in DERIVED_UNITS:
        return DERIVED_UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str | Callable, hook: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name if isinstance(name, str) else name(args, kwargs),
                    clock(), 0, parent, spans[parent][4] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span[5] = hook(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "ksetlab" or k.startswith("ksetlab.")]
        for mod_name, fn_name, span_name, hook in WRAPPED:
            original = getattr(sys.modules[f"ksetlab.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def begin_op(self, op_id: int) -> None:
        self.spans.append([OP_SPAN, time.perf_counter_ns(), 0, -1, op_id, None])
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], op_ids: set[int]) -> dict[str, float]:
    """Per-layer metrics of the spans of the ops in ``op_ids`` (one pass)."""
    mine = [idx for idx, s in enumerate(spans) if s[4] in op_ids]
    children: dict[int, list[int]] = defaultdict(list)
    for idx in mine:
        children[spans[idx][3]].append(idx)

    def dur(idx: int) -> int:
        return spans[idx][2] - spans[idx][1]

    def parent_name(idx: int) -> str:
        parent = spans[idx][3]
        return spans[parent][0] if parent >= 0 else ""

    def has_ancestor(idx: int, name: str) -> bool:
        while (idx := spans[idx][3]) >= 0:
            if spans[idx][0] == name:
                return True
        return False

    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    op_ns = top_ns = 0
    for idx in mine:
        child_ns = sum(dur(c) for c in children[idx])
        if spans[idx][0] == OP_SPAN:
            op_ns += dur(idx)
            top_ns += child_ns
        else:
            self_ns[spans[idx][0]] += dur(idx) - child_ns
            calls[spans[idx][0]] += 1

    def count(name: str, where: Callable[[int], bool]) -> int:
        return sum(1 for idx in mine if spans[idx][0] == name and where(idx))

    gen_checks = count("decompose.check_partition",
                       lambda i: parent_name(i) == "decompose.generate")
    redraws = count("geometry.general_position",
                    lambda i: spans[i][5] is False and parent_name(i) == "decompose.generate")
    lower_in_reports = count("bounds.kset_lower_bound",
                             lambda i: has_ancestor(i, "bounds.bound_report"))
    reports = calls["bounds.bound_report"]

    out: dict[str, float] = {}
    span_names = [name for _, _, name, _ in WRAPPED if isinstance(name, str)]
    span_names += [f"verify.suite.{suite}" for suite in ("edges", "slack", "series")]
    for name in span_names:
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in ("io.parse", "geometry.general_position", "circular.halfperiod",
                 "decompose.generate", "decompose.check_partition",
                 "bounds.bound_report", "bounds.slack_quartic"):
        out[f"{name}.calls"] = calls[name]
    out["geometry.general_position.calls_per_op"] = calls["geometry.general_position"] / len(op_ids)
    out["circular.swaps"] = sum(
        math.comb(spans[i][5], 2) for i in mine if spans[i][0] == "circular.halfperiod"
    )
    out["decompose.generator_yield"] = calls["decompose.generate"] / gen_checks if gen_checks else 0.0
    out["decompose.generator_redraws"] = redraws
    out["bounds.kset_lower_bound.calls_per_report"] = lower_in_reports / reports if reports else 0.0
    out["trace.coverage"] = top_ns / op_ns if op_ns else 0.0
    return out


def inclusive_seconds_by_n(spans: list[list], name: str) -> dict[int, float]:
    """Median inclusive duration of the spans called ``name``, by the n
    their hook recorded."""
    by_n: dict[int, list[float]] = defaultdict(list)
    for s in spans:
        if s[0] == name and s[5] is not None:
            by_n[s[5]].append((s[2] - s[1]) / 1e9)
    return {n: statistics.median(v) for n, v in sorted(by_n.items())}


def child_seconds(spans: list[list], parent: str, child: str, n: int) -> float | None:
    """Median total time of ``child`` spans directly under ``parent`` spans
    whose recorded n is ``n``."""
    totals: dict[int, int] = {}
    for idx, s in enumerate(spans):
        if s[0] == parent and s[5] == n:
            totals[idx] = 0
    for s in spans:
        if s[0] == child and s[3] in totals:
            totals[s[3]] += s[2] - s[1]
    return statistics.median(totals.values()) / 1e9 if totals else None
