"""Command-line harness: gen, analyze, bounds, verify, sweep.

Batch, non-interactive.  Exact quantities are printed as fraction strings;
decimal renderings carry a ``_dec`` suffix and are never fed back into any
computation.  Exit codes: 0 success, 1 verification failure, 2 usage or
input errors.  A handler raises ``UsageError`` where it finds a value it
cannot use; ``main`` alone reports it, an ``OSError`` or the library's input
errors as one ``error:`` line and returns 2, in process as from a shell.

``main`` may be called many times in one process: the argument parser is
built once and kept, and each call looks its command's handler up among
this module's ``cmd_*`` functions when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence, TextIO

from . import bounds as bounds_mod
from . import circular, decompose, verify
from .errors import GeneralPositionError, LabelingError, OracleSizeError
from .geometry import DEFAULT_ORACLE_CAP, PointSet
from .io import load_point_set, save_point_set

ANALYZE_COLUMNS = [
    "n", "k", "e_k", "e_le_k", "het", "hom", "Y", "ceilY", "L", "E", "satisfied",
]
BOUNDS_COLUMNS = [
    "n", "k", "m", "depth", "Y", "Y_dec", "ceilY", "het", "hom", "L", "E",
    "cr_lower", "cr_ratio_dec",
]
SWEEP_COLUMNS = ["n", "seed", "shape", "k", "e_le_k", "ceilY", "satisfied"]

UNDEF = "undefined"


class UsageError(Exception):
    """A command-line value or input file a command cannot use."""


def _cell(value: Fraction | int | None) -> Fraction | int | str:
    """A CSV cell: the value, written as ``str`` writes it, or UNDEF for None."""
    return UNDEF if value is None else value


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The file at ``path`` opened for writing, or stdout without one.  A
    command that computes before it writes enters this first, so that an
    unwritable ``--out`` fails before any work."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as out:
        yield out


def _write_csv(out: TextIO, columns: list[str], rows: Iterable[Sequence]) -> None:
    """The header, then each row, its cells in column order."""
    writer = csv.writer(out)
    writer.writerow(columns)
    writer.writerows(rows)


def cmd_gen(args: argparse.Namespace) -> int:
    ps, witness = decompose.generate_with_witness(args.n, args.seed, args.shape)
    save_point_set(ps, args.out)
    witness = decompose.locate_halfperiod_witness(ps, witness)
    print(f"wrote {ps.n} labeled points to {args.out}")
    for name, d in zip(("l1", "l2", "l3"), witness.directions):
        if d is not None:
            print(f"{name} = ({d[0]}, {d[1]})")
    if witness.halfperiod_indices is not None:
        s, t = witness.halfperiod_indices
        print(f"halfperiod witness: permutations {s} (b,a,c) and {t} (b,c,a)")
    return 0


def _analyze_rows(ps: PointSet, k_lo: int, k_hi: int) -> list[list]:
    """The ``analyze`` rows for k_lo <= k <= k_hi, in ``ANALYZE_COLUMNS``
    order."""
    n = ps.n
    counts, het_counts = circular.site_counts(ps)
    vec = circular.kset_vector_from_sites(n, counts)
    rows = []
    # The (<=k)-critical swaps are those at sites 1..k and n-k..n-1, e_{<=k}
    # of them; the heterogeneous ones are summed the same way.
    het = 0
    for k in range(1, k_hi + 1):
        if het_counts is not None:
            het += het_counts[k] + het_counts[n - k]
        if k < k_lo:
            continue
        row = [n, k, vec.e[k], vec.prefix[k]]
        row += [UNDEF] * 2 if het_counts is None else [het, vec.prefix[k] - het]
        if n % 3 == 0:
            br = bounds_mod.bound_report(k, n)
            row += [
                _cell(br.y), br.ceil_y, _cell(br.l), _cell(br.edges),
                "true" if vec.prefix[k] >= br.ceil_y else "false",
            ]
        else:
            row += [UNDEF] * 5
        rows.append(row)
    return rows


def _exit_code(rows: list[list]) -> int:
    """1 if some row's last cell, ``satisfied``, is false, else 0."""
    return 1 if any(r[-1] == "false" for r in rows) else 0


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad {what} range {text!r}, expected LO:HI") from None


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        ps = load_point_set(args.input)
    except ValueError as exc:  # a malformed file
        raise UsageError(str(exc)) from None
    if args.require_decomp:
        if ps.labels is not None:
            witness = decompose.check_partition(ps, mode=args.decomp_mode)
        else:
            witness = decompose.find_partition(ps, mode=args.decomp_mode)
            if witness is not None:
                ps = ps.with_labels(witness.partition)
        if witness is None:
            raise UsageError(
                "point set is not 3-decomposable "
                f"({args.decomp_mode}-condition mode); refusing to analyze"
            )
    n = ps.n
    if n < 3:
        raise UsageError("need at least 3 points")
    k_max = (n - 1) // 2
    k_lo, k_hi = 1, k_max
    if args.k_range:
        k_lo, k_hi = _parse_range(args.k_range, "k")
        k_lo, k_hi = max(1, k_lo), min(k_max, k_hi)
        if k_lo > k_hi:
            raise UsageError(f"--k-range {args.k_range} holds no k in 1..{k_max}")
    rows = _analyze_rows(ps, k_lo, k_hi)
    with _output(args.out) as out:
        _write_csv(out, ANALYZE_COLUMNS, rows)
    return _exit_code(rows)


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.coefficient:
        coeff = bounds_mod.crossing_coefficient()
        closure = (coeff - bounds_mod.GENERAL_LOWER_COEFFICIENT) / (
            bounds_mod.BEST_UPPER_COEFFICIENT - bounds_mod.GENERAL_LOWER_COEFFICIENT
        )
        print(f"coefficient = {coeff:.10f}")
        print(
            f"gap closure over [{bounds_mod.GENERAL_LOWER_COEFFICIENT}, "
            f"{bounds_mod.BEST_UPPER_COEFFICIENT}] = {closure:.4f}"
        )
        return 0
    if args.n is not None:
        lo = hi = args.n
    elif args.n_range:
        lo, hi = _parse_range(args.n_range, "n")
    else:
        raise UsageError("give --n, --n-range or --coefficient")
    ns = range(max(6, lo + -lo % 3), hi + 1, 3)  # the multiples of 3 from 6 on
    if not ns:
        raise UsageError("no usable n (need multiples of 3, n >= 6)")
    if args.k is not None and not 1 <= args.k < ns[-1] / 2:
        raise UsageError("no k with 1 <= k < n/2 for the given n")
    with _output(args.out) as out:
        _write_csv(out, BOUNDS_COLUMNS, _bounds_rows(ns, args.k))
    return 0


def _bounds_rows(ns: Iterable[int], only_k: int | None) -> Iterator[list]:
    """The rows of the ``bounds`` table, one at a time, in
    ``BOUNDS_COLUMNS`` order: for each n, the given k or every k < n/2,
    read off one ``bound_table(n)`` with its ``cr_lower``."""
    for n in ns:
        table = bounds_mod.bound_table(n)
        ratio = f"{table.crossing / comb(n, 4):.8f}"
        for br in table.reports:
            if only_k is not None and br.k != only_k:
                continue
            yield [
                n, br.k, br.m, _cell(br.depth), _cell(br.y),
                UNDEF if br.y is None else f"{float(br.y):.6f}", br.ceil_y, br.het,
                _cell(br.hom_lower), _cell(br.l), _cell(br.edges), table.crossing, ratio,
            ]


def cmd_verify(args: argparse.Namespace) -> int:
    # An option left out is None: the suite's own default applies.
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.max_n is not None and args.max_n < 1:
        raise UsageError(f"--max-n must be at least 1, got {args.max_n}")
    if "oracle" in names and args.max_n is not None and args.max_n > DEFAULT_ORACLE_CAP:
        raise UsageError(
            f"oracle capped at n <= {DEFAULT_ORACLE_CAP}, got max_n = {args.max_n}"
        )
    if "oracle" in names and args.sets_per_n is not None and args.sets_per_n < 1:
        raise UsageError(f"--sets-per-n must be at least 1, got {args.sets_per_n}")
    for suite in ("edges", "slack"):
        if suite in names and args.max_n is not None and args.max_n < 6:
            # Both sweeps start at n = 6; below it, they would check nothing.
            raise UsageError(f"the {suite} suite needs --max-n at least 6, got {args.max_n}")
    if "slack" in names and args.max_b is not None and args.max_b < 0:
        raise UsageError(f"--max-b must be at least 0, got {args.max_b}")
    min_terms = bounds_mod.SERIES_MIN_TERMS
    if "series" in names and args.terms is not None and args.terms < min_terms:
        raise UsageError(
            f"--terms must be at least {min_terms} to meet the series tolerance "
            f"{bounds_mod.SERIES_TOLERANCE:g}, got {args.terms}"
        )
    with _output(args.out) as out:
        results = []
        for name in names:
            kwargs = {
                p: getattr(args, p)
                for p in verify.SUITE_OPTIONS[name]
                if getattr(args, p) is not None
            }
            results.append(verify.run_suite(name, **kwargs))
        ok = all(r.ok for r in results)
        payload = results[0].to_dict() if len(results) == 1 else {
            "ok": ok,
            "suites": [r.to_dict() for r in results],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    return 0 if ok else 1


def _sweep_work(item: tuple[int, int, str]) -> list[list]:
    """The ``sweep`` rows of one generated set, in ``SWEEP_COLUMNS`` order."""
    n, seed, shape = item
    rows = []
    for row in _analyze_rows(decompose.generate(n, seed, shape), 1, (n - 1) // 2):
        cells = dict(zip(ANALYZE_COLUMNS, row), seed=seed, shape=shape)
        rows.append([cells[c] for c in SWEEP_COLUMNS])
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        ns = sorted({int(x) for x in args.ns.split(",")})  # each n once
    except ValueError:
        raise UsageError(f"bad --ns list {args.ns!r}") from None
    if any(n % 3 != 0 or n < 3 for n in ns):
        raise UsageError("all n must be positive multiples of 3")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    if args.parallel < 1:
        raise UsageError(f"--parallel must be at least 1, got {args.parallel}")
    items = [(n, seed, args.shape) for n in ns for seed in range(args.seeds)]
    # The pool starts all its workers at the first submit: no more than sets.
    workers = min(args.parallel, len(items))
    with _output(args.out) as out:
        if workers > 1:
            # Imported here, not at the top: it pulls in multiprocessing, which
            # costs every other command about 2 MB and 20 ms at startup.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_work, items))
        else:
            results = [_sweep_work(item) for item in items]
        rows = [row for item_rows in results for row in item_rows]
        _write_csv(out, SWEEP_COLUMNS, rows)
    return _exit_code(rows)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksetlab",
        description=(
            "Exact (<=k)-set counts, crossing numbers, and closed-form bounds "
            "for 3-decomposable point sets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a 3-decomposable point set")
    p.add_argument("--n", type=int, required=True, help="point count (multiple of 3)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shape", choices=decompose.GENERATOR_SHAPES,
                   default="triangle-clusters")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("analyze", help="per-k report for a point-set file")
    p.add_argument("--input", required=True, help="point-set JSON path")
    p.add_argument("--k-range", help="restrict to LO:HI")
    p.add_argument("--require-decomp", action="store_true",
                   help="refuse sets that are not 3-decomposable")
    p.add_argument("--decomp-mode", choices=("three", "two"), default="three")
    p.add_argument("--out", help="CSV path (default stdout)")

    p = sub.add_parser("bounds", help="closed-form bound tables")
    p.add_argument("--n", type=int)
    p.add_argument("--n-range", help="LO:HI, multiples of 3 kept")
    p.add_argument("--k", type=int, help="single k (default: all k < n/2)")
    p.add_argument("--coefficient", action="store_true",
                   help="print the asymptotic coefficient and exit")
    p.add_argument("--out", help="CSV path (default stdout)")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES) + ["all"], default="all")
    p.add_argument("--max-n", type=int, help="size cap for oracle/edges/slack")
    p.add_argument("--max-b", type=int, help="quartic scan cap")
    p.add_argument("--sets-per-n", type=int)
    p.add_argument("--terms", type=int, help="series partial-sum length")
    p.add_argument("--out", help="JSON path (default stdout)")

    p = sub.add_parser("sweep", help="generate + analyze many sets")
    p.add_argument("--ns", required=True, help="comma list of n, e.g. 6,9,12")
    p.add_argument("--seeds", type=int, default=10, help="seeds 0..S-1 per n")
    p.add_argument("--shape", choices=decompose.GENERATOR_SHAPES,
                   default="triangle-clusters")
    p.add_argument("--parallel", type=int, default=1, help="worker count")
    p.add_argument("--out", help="CSV path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up per call, not bound into the kept parser, so that a
    # replaced ``cmd_*`` (a test double, a tracing wrapper) is the one run.
    handler = globals()[f"cmd_{args.command}"]
    # OSError is an unreadable --input or an unwritable --out.
    try:
        return handler(args)
    except (UsageError, OSError, GeneralPositionError, LabelingError,
            OracleSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
