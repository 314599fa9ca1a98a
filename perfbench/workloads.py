"""The benchmark's three workloads: their inputs, op lists and checks.

Every op is one or more ``ksetlab`` command lines, run the way a user runs
them.  Inputs come only from the workload seed, through this module's own
generator; the program under test receives nothing but the generated
command lines and files.

* ``gen-decomp``: one op is ``gen --n N --seed S`` followed by
  ``analyze --require-decomp`` on the file it wrote.  ``decompose`` does
  most of the work (generator attempts, partition checks, the witness
  search), ``circular`` a moderate share and ``bounds`` almost none.
  Coordinates are dyadic.
* ``analyze-random``: one op is ``analyze`` on a random general-position
  set drawn here, with varied non-dyadic denominators and random thirds as
  labels.  ``geometry`` and ``circular`` do nearly all the work and
  ``decompose`` none, so this is the no-change workload for a
  ``decompose`` optimisation and the main one for integer arithmetic: the
  denominators make scaling to a common denominator cost what it costs on
  real inputs, which dyadic coordinates would hide.
* ``bounds-verify``: ``bounds`` over a range of n and three verify suites.
  ``bounds`` and ``verify`` do all the work.  The inputs are the
  closed-form domain itself, so the seed does not change them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import checks

#: n of the gen-decomp ops, one op each per pass, each with its own seed.
GEN_SIZES = (30, 30, 36, 36, 42, 42)
#: n of the analyze-random ops, one op each per pass.
RANDOM_SIZES = (60, 60, 90)
#: Denominators of the random coordinates: everything in 3..40 except powers of two.
RANDOM_DENOMINATORS = tuple(q for q in range(3, 41) if q & (q - 1))
RANDOM_SPAN = 100

BOUNDS_N_RANGE = "6:300"
#: sha256 of the ``bounds --n-range 6:300`` CSV on stdout.
BOUNDS_CSV_SHA256 = "47ba94f374e13bca81ba35b2726b2bea8d4e350704c929b9717cd4c8f4ed74ec"
EDGES_MAX_N = "120"
SLACK_MAX_B, SLACK_MAX_N = "300", "150"


class CallResult(NamedTuple):
    rc: int
    out: str
    err: str


@dataclass
class Op:
    """One unit of work: the command lines it runs, in order, and a check
    of their results.  ``files`` are outputs the op writes; their bytes are
    part of the op's digest."""

    label: str
    calls: list[list[str]]
    check: Callable[[list[CallResult]], list[str]]
    files: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: The first call of each command the workload uses, on a tiny input.
    tiny_calls: list[list[str]]


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def random_general_position_set(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction]]:
    """n distinct points with non-dyadic rational coordinates, no three on a
    line.  Each point keeps the set of primitive directions to the points
    before it; a candidate is rejected when its direction to some point is
    already in that point's set (that is a collinear triple) or when it
    repeats a point."""
    points: list[tuple[Fraction, Fraction]] = []
    directions: list[set[tuple[int, int]]] = []
    for _ in range(1000 * n):
        if len(points) == n:
            break
        qx, qy = rng.choice(RANDOM_DENOMINATORS), rng.choice(RANDOM_DENOMINATORS)
        cand = (
            Fraction(rng.randint(-RANDOM_SPAN * qx, RANDOM_SPAN * qx), qx),
            Fraction(rng.randint(-RANDOM_SPAN * qy, RANDOM_SPAN * qy), qy),
        )
        dirs = []
        for p, seen in zip(points, directions):
            d = _primitive_direction(p, cand)
            if d is None or d in seen:
                break
            dirs.append(d)
        else:
            for seen, d in zip(directions, dirs):
                seen.add(d)
            points.append(cand)
            directions.append(set(dirs))
    if len(points) != n:
        raise RuntimeError(f"could not draw {n} points in general position")
    return points


def _primitive_direction(
    p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]
) -> tuple[int, int] | None:
    """The line direction p -> q as a primitive integer vector in the upper
    half plane, or None when p == q."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    scale = math.lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * scale), int(dy * scale)
    if ix == 0 and iy == 0:
        return None
    g = math.gcd(ix, iy)
    ix, iy = ix // g, iy // g
    if iy < 0 or (iy == 0 and ix < 0):
        ix, iy = -ix, -iy
    return (ix, iy)


def write_random_set(path: Path, rng: random.Random, n: int) -> None:
    points = random_general_position_set(rng, n)
    labels = list("abc" * (n // 3))
    rng.shuffle(labels)
    data = {"n": n, "points": [[_fmt(x), _fmt(y)] for x, y in points], "labels": labels}
    path.write_text(json.dumps(data) + "\n")


def _gen_decomp(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"gen-decomp:{seed}")
    ops = []
    for i, n in enumerate(GEN_SIZES):
        s = rng.randrange(1_000_000)
        name = f"gen{i:02d}.json"

        def check(results: list[CallResult], name: str = name, n: int = n) -> list[str]:
            gen, analyze = results
            problems = checks.check_gen(gen.rc, gen.out, workdir / name, n)
            return problems or checks.check_analyze(
                analyze.rc, analyze.out, workdir / name, require_satisfied=True
            )

        ops.append(
            Op(
                f"gen+analyze n={n} seed={s}",
                [
                    ["gen", "--n", str(n), "--seed", str(s), "--out", name],
                    ["analyze", "--input", name, "--require-decomp"],
                ],
                check,
                files=(name,),
            )
        )
    tiny = [
        ["gen", "--n", "6", "--seed", "0", "--out", "tiny-gen.json"],
        ["analyze", "--input", "tiny-gen.json", "--require-decomp"],
    ]
    return Workload("gen-decomp", ops, tiny)


def _analyze_random(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"analyze-random:{seed}")
    ops = []
    for i, n in enumerate(RANDOM_SIZES):
        name = f"random{i:02d}.json"
        write_random_set(workdir / name, rng, n)

        def check(results: list[CallResult], name: str = name) -> list[str]:
            (analyze,) = results
            return checks.check_analyze(
                analyze.rc, analyze.out, workdir / name, require_satisfied=False
            )

        ops.append(Op(f"analyze random n={n}", [["analyze", "--input", name]], check))
    write_random_set(workdir / "tiny-random.json", rng, 9)
    return Workload("analyze-random", ops, [["analyze", "--input", "tiny-random.json"]])


def _bounds_verify(seed: int, workdir: Path) -> Workload:
    # The closed-form domain is the input: the seed changes nothing here.
    del seed, workdir

    def bounds_check(results: list[CallResult]) -> list[str]:
        return checks.check_bounds(results[0].rc, results[0].out, BOUNDS_CSV_SHA256)

    def suite_check(suite: str) -> Callable[[list[CallResult]], list[str]]:
        return lambda results: checks.check_verify(results[0].rc, results[0].out, suite)

    suites = [
        ("edges", ["--max-n", EDGES_MAX_N]),
        ("slack", ["--max-b", SLACK_MAX_B, "--max-n", SLACK_MAX_N]),
        ("series", []),
    ]
    ops = [Op(f"bounds --n-range {BOUNDS_N_RANGE}",
              [["bounds", "--n-range", BOUNDS_N_RANGE]], bounds_check)]
    ops += [
        Op(f"verify --suite {s}", [["verify", "--suite", s, *extra]], suite_check(s))
        for s, extra in suites
    ]
    tiny = [
        ["bounds", "--n", "6"],
        ["verify", "--suite", "edges", "--max-n", "9"],
        ["verify", "--suite", "slack", "--max-b", "2", "--max-n", "9"],
        ["verify", "--suite", "series"],
    ]
    return Workload("bounds-verify", ops, tiny)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "gen-decomp": _gen_decomp,
    "analyze-random": _analyze_random,
    "bounds-verify": _bounds_verify,
}
