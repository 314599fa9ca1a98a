"""Command-line harness: gen, analyze, bounds, verify, sweep.

Batch, non-interactive.  Exact quantities are printed as fraction strings;
decimal renderings carry a ``_dec`` suffix and are never fed back into any
computation.  Exit codes: 0 success, 1 verification failure, 2 usage or
input errors.  A handler raises ``UsageError`` where it finds a value it
cannot use; ``main`` alone reports it, an ``OSError`` or the library's input
errors as one ``error:`` line and returns 2, in process as from a shell.

A CSV is comma-separated, with ``\\r\\n`` line ends, and never quoted: each
cell is an int, a p/q, a fixed-point decimal, ``undefined``, ``true`` or
``false``, or a shape name, so none holds ``,``, ``"`` or a line break, and
the bytes are those the csv module's excel dialect would write.

``main`` may be called many times in one process: the argument parser is
built once and kept, and each call looks its command's handler up among
this module's ``cmd_*`` functions when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from math import comb
from typing import Iterable, Iterator, TextIO

from . import bounds as bounds_mod
from . import circular, decompose, verify
from .errors import GeneralPositionError, LabelingError
from .geometry import PointSet
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


def _cell(value: int | None, den: int | None = 1) -> int | str:
    """A CSV cell: value/den, in lowest terms or value = 0, as ``str`` writes
    ``Fraction(value, den)`` ("p/q", or p when den = 1), or UNDEF for None."""
    if value is None:
        return UNDEF
    return value if den == 1 or not value else f"{value}/{den}"


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The file at ``path`` opened for writing, or stdout without one.
    ``bounds``, ``verify`` and ``sweep`` enter this before they compute, so
    that an unwritable ``--out`` fails before any work; ``analyze`` and
    ``gen`` open their output only once their input has proved usable, so
    that an input fault leaves no file."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", newline="") as out:
        yield out


def _write_csv(out: TextIO, columns: list[str], lines: Iterable[str]) -> None:
    """The header, then each line as it comes, each ended by ``\\r\\n``."""
    out.write(",".join(columns) + "\r\n")
    out.writelines(f"{line}\r\n" for line in lines)


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
    # The (<=k)-critical swaps are those at sites 1..k and n-k..n-1, e_{<=k}
    # of them; the heterogeneous ones are summed the same way.
    het = None if het_counts is None else circular.kset_vector_from_sites(n, het_counts)
    ks = range(k_lo, k_hi + 1)
    reports = bounds_mod.bound_table(n, ks).reports if n % 3 == 0 else ()
    rows = []
    for k in ks:
        row = [n, k, vec.e[k], vec.prefix[k]]
        row += [UNDEF] * 2 if het is None else [het.prefix[k], vec.prefix[k] - het.prefix[k]]
        if reports:
            br = reports[k - k_lo]
            row += [
                _cell(br.y_num, br.y_den), br.ceil_y, _cell(br.l), _cell(br.edges),
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
        _write_csv(out, ANALYZE_COLUMNS, (",".join(map(str, row)) for row in rows))
    return _exit_code(rows)


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.coefficient:
        low, high = bounds_mod.GENERAL_LOWER_COEFFICIENT, bounds_mod.BEST_UPPER_COEFFICIENT
        coeff = bounds_mod.crossing_coefficient()
        print(f"coefficient = {coeff:.10f}")
        print(f"gap closure over [{low}, {high}] = {(coeff - low) / (high - low):.4f}")
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


def _bounds_rows(ns: Iterable[int], only_k: int | None) -> Iterator[str]:
    """The lines of the ``bounds`` table, one at a time, in ``BOUNDS_COLUMNS``
    order: for each n, one per report (``only_k``'s or every k's) that one
    ``bound_table`` pass keeps, with its ``cr_lower``.  Y and hom are written
    as ``str`` writes a ``Fraction``: p/q in lowest terms, p when q = 1."""
    for n in ns:
        table = bounds_mod.bound_table(n, None if only_k is None else (only_k,))
        tail = f"{table.crossing},{table.crossing / comb(n, 4):.8f}"
        for _, k, m, _, depth, num, den, ceil_y, het, hom, edges, _, l in table.reports:
            if num is None:  # m = 0, for n >= 6 at a k > n/3: hom, L and E undefined too
                yield (f"{n},{k},{m},{UNDEF},{UNDEF},{UNDEF},{ceil_y},{het},"
                       f"{UNDEF},{UNDEF},{UNDEF},{tail}")
            else:
                q = "" if den == 1 else f"/{den}"
                yield (f"{n},{k},{m},{depth},{num}{q},{num / den:.6f},{ceil_y},{het},"
                       f"{f'{hom}{q}' if hom else 0},{l},"
                       f"{UNDEF if edges is None else edges},{tail}")


def cmd_verify(args: argparse.Namespace) -> int:
    # An option left out is None: the suite's own default applies.  Every
    # chosen suite's options are checked before the output is opened.
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    options = {
        name: {p: getattr(args, p) for p in verify.SUITE_OPTIONS[name]
               if getattr(args, p) is not None}
        for name in names
    }
    try:
        for name in names:
            verify.check_options(name, **options[name])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with _output(args.out) as out:
        results = [verify.run_suite(name, **options[name]) for name in names]
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
        _write_csv(out, SWEEP_COLUMNS, (",".join(map(str, row)) for row in rows))
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
    taking = {}  # each suite option, and the suites that take it
    for name, options in verify.SUITE_OPTIONS.items():
        for option in options:
            taking.setdefault(option, []).append(name)
    for option, names in taking.items():
        p.add_argument(f"--{option.replace('_', '-')}", type=int, help=f"for {', '.join(names)}")
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
    except (UsageError, OSError, GeneralPositionError, LabelingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
