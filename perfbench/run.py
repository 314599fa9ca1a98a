"""Benchmark of the ksetlab command line.

    python3 perfbench/run.py --workload gen-decomp --seed 1 --seconds 32 --trace 0

Runs one workload (see ``workloads.py``) in this one process: no worker
pool, no threads.  Each op calls ``ksetlab.cli.main`` in-process, as a user
runs the command, with stdout captured.  Ops run in passes over the
workload's fixed op list, back to back (a closed loop with one client),
until ``--seconds`` is spent.  Outputs are checked after the timed passes,
by ``checks.py``, which does not use ksetlab.

With ``--trace 0`` the end-to-end metrics are measured:

* ``setup_s``: median time of eight fresh interpreters, four before and
  four after the passes, that import ksetlab and run the first call of
  each command the workload uses on a tiny input (``cold.py``), after one
  start that fills the bytecode cache;
* ``wall_s``: sum of the op latencies of one pass, median over passes;
* ``ops_per_s``: ops per pass over ``wall_s``;
* ``op_p50_s`` and ``op_max_s``: median and slowest op of a pass, median
  over passes;
* ``peak_rss_mb``: peak resident set of this process after the passes.

Every time above is in reference seconds (``reference.py``): while an op
or a cold start runs, a timer signal samples the machine's speed with a
small fixed piece of pure-Python work, and the wall time is scaled by that
work's nominal time over its measured time, so that the host's drifting
speed cancels.  The wall times of the ops are printed too.

``error_rate`` (failed over attempted ops) is printed too; it is 0 when the
program is correct, so it is carried by ``attempted`` and ``failed`` in the
result rather than as a metric.

With ``--trace 1`` half the time runs untraced passes and half traced ones
(``spans.py``), and the per-layer metrics are medians over traced passes.
Traced passes run without the speed probe, so their times are wall times;
``trace.overhead_s`` is the traced pass wall time minus the untraced one.

The last line of stdout is the JSON result.  The exit code is 2, with no
result, when the checkout holds no ``src/ksetlab`` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import spans
from reference import Timed
from workloads import WORKLOADS, CallResult, Op, Workload

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
#: Timed cold starts before the passes, and again after them.
COLD_STARTS = 4
COLD_TIMEOUT_S = 60

UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s",
    "op_max_s": "s", "peak_rss_mb": "MB",
}

#: Layers a workload must not reach, by its design.
ABSENT_LAYERS = {"analyze-random": ("decompose",), "bounds-verify": ("geometry", "circular", "decompose")}
#: Workloads on which bounds.* self time should stay under 5% of wall_s.
BOUNDS_LIGHT = ("gen-decomp", "analyze-random")
#: ROADMAP baseline rows (one run each, generate(n, 0)) whose size a workload
#: also runs: (span, n, seconds, child span or None for the whole span).
#: gen-decomp stops at n = 42, so the n = 60 and n = 90 rows of generate and
#: check_partition have no traced counterpart.
ROADMAP_BASELINE = {
    "gen-decomp": [("decompose.generate", 30, 0.51, None)],
    "analyze-random": [("circular.halfperiod", 90, 2.42, None),
                       ("circular.halfperiod", 90, 2.01, "geometry.general_position")],
}


@dataclass
class Pass:
    #: Op latencies in reference seconds (wall time on traced passes),
    #: and in wall time.
    seconds: list[float]
    raw: list[float]
    digests: list[str]
    results: list[list[CallResult]]
    op_ids: set[int]

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def run_call(cli, argv: list[str]) -> CallResult:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = -1
            err.write(traceback.format_exc())
    return CallResult(rc, out.getvalue(), err.getvalue())


def digest_op(op: Op, results: list[CallResult], workdir: Path) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(json.dumps(r).encode())
    for name in op.files:
        path = workdir / name
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run_passes(cli, wl: Workload, workdir: Path, budget_s: float,
               tracer: spans.Tracer | None = None, first_op_id: int = 0) -> list[Pass]:
    """Run passes over the op list until the budget is spent; the last pass
    ends at most half a pass after it."""
    passes: list[Pass] = []
    op_id = first_op_id
    start = time.perf_counter()
    while True:
        p = Pass([], [], [], [], set())
        for op in wl.ops:
            if tracer is None:
                with Timed() as timed:
                    results = [run_call(cli, argv) for argv in op.calls]
                p.raw.append(timed.seconds)
                p.seconds.append(timed.reference_seconds)
            else:
                tracer.begin_op(op_id)
                t0 = time.perf_counter()
                results = [run_call(cli, argv) for argv in op.calls]
                p.raw.append(time.perf_counter() - t0)
                p.seconds.append(p.raw[-1])
                tracer.end_op()
            p.digests.append(digest_op(op, results, workdir))
            p.results.append(results)
            p.op_ids.add(op_id)
            op_id += 1
        passes.append(p)
        spent = time.perf_counter() - start
        if spent + spent / len(passes) / 2 > budget_s:
            return passes


def cold_starts(wl: Workload, workdir: Path, count: int) -> tuple[list[float], int]:
    """Times of ``count`` fresh interpreters in reference seconds, and how
    many of them failed."""
    cmd = [sys.executable, str(Path(__file__).with_name("cold.py")), json.dumps(wl.tiny_calls)]
    times, failed = [], 0
    for _ in range(count):
        with Timed() as timed:
            proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=COLD_TIMEOUT_S)
        times.append(timed.reference_seconds)
        if proc.returncode != 0:
            failed += 1
            print(f"cold start failed ({proc.returncode}): {proc.stderr.decode()[-500:]}")
    return times, failed


def check_passes(wl: Workload, passes: list[Pass]) -> tuple[int, int]:
    """Check the first pass's outputs; a later pass must reproduce them.
    Returns (attempted, failed) ops."""
    attempted = failed = 0
    first = passes[0]
    for i, op in enumerate(wl.ops):
        problems = op.check(first.results[i])
        for msg in problems[:5]:
            print(f"FAILED {op.label}: {msg}")
        for p in passes:
            attempted += 1
            drift = p.digests[i] != first.digests[i]
            if drift:
                print(f"FAILED {op.label}: output differs between passes")
            failed += bool(problems) or drift
    return attempted, failed


def output_digest(passes: list[Pass]) -> str:
    return hashlib.sha256("".join(passes[0].digests).encode()).hexdigest()


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    wall = statistics.median(p.wall for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": len(passes[0].seconds) / wall,
        "op_p50_s": statistics.median(statistics.median(p.seconds) for p in passes),
        "op_max_s": statistics.median(max(p.seconds) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: spans.Tracer, traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    per_pass = [spans.layer_metrics(tracer.spans, p.op_ids) for p in traced]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_s"] = (statistics.median(p.raw_wall for p in traced)
                               - statistics.median(p.raw_wall for p in untraced))
    return out


def report_design(name: str, layers: dict[str, float], traced: list[Pass], tracer: spans.Tracer) -> None:
    """Print whether the trace bears out the workload's design, and the
    traced times next to the ROADMAP baseline rows of the same size."""
    wall = statistics.median(p.raw_wall for p in traced)
    seen = {s[0].split(".")[0] for s in tracer.spans if s[0] != spans.OP_SPAN}
    bounds_share = sum(v for k, v in layers.items()
                       if k.startswith("bounds.") and k.endswith(".self_s")) / wall
    print(f"trace: overhead {layers['trace.overhead_s']:.3f} s on a traced pass of {wall:.3f} s; "
          f"layers seen: {', '.join(sorted(seen))}")
    claims = [(f"top-level spans cover {layers['trace.coverage']:.1%} of traced op time (>= 95%)",
               layers["trace.coverage"] >= 0.95)]
    claims += [(f"no {layer}.* span", layer not in seen) for layer in ABSENT_LAYERS.get(name, ())]
    if name in BOUNDS_LIGHT:
        claims.append((f"bounds.* self time is {bounds_share:.2%} of wall_s (< 5%)", bounds_share < 0.05))
    for claim, holds in claims:
        print(f"design: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")
    for span_name, n, roadmap_s, child in ROADMAP_BASELINE.get(name, []):
        if child is None:
            got = spans.inclusive_seconds_by_n(tracer.spans, span_name).get(n)
        else:
            got = spans.child_seconds(tracer.spans, span_name, child, n)
        if got is not None:
            what = span_name if child is None else f"{child} inside {span_name}"
            print(f"baseline: {what} n={n}: traced {got:.2f} s, ROADMAP {roadmap_s} s "
                  f"(x{got / roadmap_s:.2f})")


def measure(cli, wl: Workload, workdir: Path, seconds: float, trace: bool
            ) -> tuple[list[Pass], list[Pass], spans.Tracer | None]:
    """Timed passes: all untraced, or half the time untraced and half traced.
    Returns (untraced passes, traced passes, the tracer or None)."""
    untraced = run_passes(cli, wl, workdir, seconds / 2 if trace else seconds)
    if not trace:
        return untraced, [], None
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(cli, wl, workdir, seconds / 2, tracer,
                            first_op_id=len(untraced) * len(wl.ops))
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ksetlab" / "__init__.py").is_file():
        print(f"error: no ksetlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ksetlab
    from ksetlab import cli
    if Path(ksetlab.__file__).resolve().parent != (SRC / "ksetlab").resolve():
        print(f"error: imported ksetlab from {ksetlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if wl.name == "bounds-verify":
            print("bounds-verify: the inputs are the closed-form domain; the seed does not change them")
        setup, cold_failed = [], 0
        if not args.trace:
            # The first start fills the bytecode cache and is not timed.  The
            # rest run half before and half after the passes, so that setup_s
            # sees the machine over the whole run, as wall_s does.
            _, cold_failed = cold_starts(wl, workdir, 1)
            setup, failed_before = cold_starts(wl, workdir, COLD_STARTS)
            cold_failed += failed_before
        os.chdir(workdir)
        warm = [run_call(cli, argv) for argv in wl.tiny_calls]
        untraced, traced, tracer = measure(cli, wl, workdir, args.seconds, bool(args.trace))
        if not args.trace:
            after, failed_after = cold_starts(wl, workdir, COLD_STARTS)
            setup += after
            cold_failed += failed_after
        passes = traced or untraced
        metrics = per_layer(tracer, traced, untraced) if tracer else end_to_end(passes, setup)
        attempted, failed = check_passes(wl, untraced + traced)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += (0 if args.trace else 1 + 2 * COLD_STARTS) + len(warm)
    failed += cold_failed + sum(r.rc != 0 for r in warm)

    if tracer:
        report_design(wl.name, metrics, passes, tracer)
        spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        print(f"trace: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"workload {wl.name}, seed {args.seed}: {len(passes)} passes of {len(wl.ops)} ops")
    for i, op in enumerate(wl.ops):
        print(f"  {op.label}: median {statistics.median(p.seconds[i] for p in passes):.3f} "
              f"reference s, {statistics.median(p.raw[i] for p in passes):.3f} s wall")
    print(f"output digest {output_digest(passes)}")
    print(f"error_rate = {failed / attempted:.4f} ratio ({failed} of {attempted} ops failed)")
    units = {name: UNITS.get(name) or spans.unit_of(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
