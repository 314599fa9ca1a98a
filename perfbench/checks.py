"""Independent output checks for the benchmark.

Nothing here imports ``ksetlab``: every expected value is recomputed from
the point-set file with the benchmark's own exact integer geometry, so the
program under test never judges its own output.  Each check returns a list
of problems; an empty list means the output is correct.

The k-set columns of ``analyze`` are checked through pair side counts.  For
points in general position, the pair {p, q} swaps at site i of the
halfperiod exactly when the line pq has i - 1 points on one side and
n - i - 1 on the other.  So, with ``low(p, q)`` the smaller side count,
``e_k`` (k < n/2) is the number of pairs with ``low = k - 1``, ``e_le_k``
the number with ``low <= k - 1``, and ``het`` the number of those whose
labels differ.  ``e_1`` must also equal the convex hull vertex count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

BLOCK_ORDERS = (("a", "b", "c"), ("b", "a", "c"), ("b", "c", "a"))
_DIRECTION_LINE = re.compile(r"^(l[123]) = \((-?\d+), (-?\d+)\)$")


def read_point_file(path: str | Path) -> tuple[list[tuple[Fraction, Fraction]], list[str] | None]:
    """Points and labels of a point-set JSON file, parsed exactly."""
    data = json.loads(Path(path).read_text())
    points = [(Fraction(x), Fraction(y)) for x, y in data["points"]]
    labels = data.get("labels")
    return points, labels


def integer_points(points: list[tuple[Fraction, Fraction]]) -> list[tuple[int, int]]:
    """Scale by the common denominator; positive scaling keeps every sign."""
    scale = 1
    for x, y in points:
        scale = math.lcm(scale, x.denominator, y.denominator)
    return [(int(x * scale), int(y * scale)) for x, y in points]


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_vertex_count(pts: list[tuple[int, int]]) -> int:
    """Vertices of the convex hull (monotone chain, collinear points dropped)."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return len(pts)
    chain: list[tuple[int, int]] = []
    for seq in (pts, pts[::-1]):
        part: list[tuple[int, int]] = []
        for p in seq:
            while len(part) >= 2 and _cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        chain.extend(part[:-1])
    return len(chain)


def pair_low_counts(pts: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """For each pair i < j, the number of points on the smaller side of the
    line through them.  Raises ValueError on a collinear triple."""
    n = len(pts)
    out = {}
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            dx, dy = pts[j][0] - xi, pts[j][1] - yi
            left = 0
            for t in range(n):
                if t == i or t == j:
                    continue
                c = dx * (pts[t][1] - yi) - dy * (pts[t][0] - xi)
                if c == 0:
                    raise ValueError(f"points {i}, {j}, {t} are collinear")
                left += c > 0
            out[(i, j)] = min(left, n - 2 - left)
    return out


def expected_kset_columns(
    pts: list[tuple[int, int]], labels: list[str] | None
) -> dict[int, dict[str, int | None]]:
    """Expected ``e_k``, ``e_le_k``, ``het`` and ``hom`` for every k < n/2."""
    n = len(pts)
    low = pair_low_counts(pts)
    e = [0] * n
    het_at = [0] * n
    for (i, j), lo in low.items():
        e[lo + 1] += 1
        if labels is not None and labels[i] != labels[j]:
            het_at[lo + 1] += 1
    out: dict[int, dict[str, int | None]] = {}
    running = running_het = 0
    for k in range(1, (n - 1) // 2 + 1):
        running += e[k]
        running_het += het_at[k]
        het = running_het if labels is not None else None
        out[k] = {
            "e_k": e[k],
            "e_le_k": running,
            "het": het,
            "hom": None if het is None else running - het,
        }
    return out


def check_analyze(
    rc: int, text: str, point_file: str | Path, *, require_satisfied: bool
) -> list[str]:
    """Check an ``analyze`` CSV against the point-set file it was run on.

    The exit code must be 1 exactly when some row is unsatisfied; with
    ``require_satisfied`` every row must read ``satisfied = true``.
    """
    points, labels = read_point_file(point_file)
    pts = integer_points(points)
    n = len(pts)
    problems: list[str] = []
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return [f"analyze output is not CSV: {exc}"]
    expected = expected_kset_columns(pts, labels)
    if [r.get("k") for r in rows] != [str(k) for k in expected]:
        return [f"analyze rows cover k = {[r.get('k') for r in rows]}, expected 1..{(n - 1) // 2}"]
    hull = hull_vertex_count(pts)
    if rows and rows[0]["e_k"] != str(hull):
        problems.append(f"e_1 = {rows[0]['e_k']} but the hull has {hull} vertices")
    unsatisfied = False
    for row in rows:
        k = int(row["k"])
        for col, want in expected[k].items():
            got = row.get(col)
            if got != ("undefined" if want is None else str(want)):
                problems.append(f"k={k}: {col} = {got}, expected {want}")
        if row.get("n") != str(n):
            problems.append(f"k={k}: n = {row.get('n')}, expected {n}")
        sat = row.get("satisfied")
        if sat not in ("true", "false"):
            problems.append(f"k={k}: satisfied = {sat!r}")
            continue
        if (sat == "true") != (int(row["e_le_k"]) >= int(row["ceilY"])):
            problems.append(f"k={k}: satisfied = {sat} contradicts e_le_k and ceilY")
        unsatisfied |= sat == "false"
    if require_satisfied and unsatisfied:
        problems.append("some row is unsatisfied on a 3-decomposable set")
    if rc != (1 if unsatisfied else 0):
        problems.append(f"analyze exited {rc}, expected {1 if unsatisfied else 0}")
    return problems


def parse_witness_directions(text: str) -> list[tuple[int, int]]:
    """The l1, l2, l3 directions printed by ``gen``, in order."""
    found = {}
    for line in text.splitlines():
        m = _DIRECTION_LINE.match(line.strip())
        if m:
            found[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    return [found[k] for k in ("l1", "l2", "l3") if k in found]


def check_block_orders(
    points: list[tuple[Fraction, Fraction]],
    labels: list[str],
    directions: list[tuple[int, int]],
) -> list[str]:
    """Along each witness direction the classes must project as strictly
    separated blocks in the orders a,b,c / b,a,c / b,c,a."""
    if len(directions) != 3:
        return [f"expected 3 witness directions, got {len(directions)}"]
    problems = []
    for (ux, uy), order in zip(directions, BLOCK_ORDERS):
        proj: dict[str, list[Fraction]] = {c: [] for c in "abc"}
        for (x, y), c in zip(points, labels):
            proj[c].append(ux * x + uy * y)
        x, y, z = order
        if not (max(proj[x]) < min(proj[y]) and max(proj[y]) < min(proj[z])):
            problems.append(f"direction ({ux}, {uy}) does not give block order {','.join(order)}")
    return problems


def check_gen(rc: int, text: str, point_file: str | Path, n: int) -> list[str]:
    """Check a ``gen`` run: exit 0, n points labeled in thirds, and three
    witness directions realizing the three block orders."""
    if rc != 0:
        return [f"gen exited {rc}, expected 0"]
    points, labels = read_point_file(point_file)
    if len(points) != n:
        return [f"gen wrote {len(points)} points, expected {n}"]
    if labels is None or sorted(labels) != sorted("abc" * (n // 3)):
        return ["gen labels do not split the points into thirds"]
    return check_block_orders(points, labels, parse_witness_directions(text))


def check_verify(rc: int, text: str, suite: str) -> list[str]:
    """A ``verify --suite`` run must exit 0 and report every check ok."""
    problems = [] if rc == 0 else [f"verify exited {rc}, expected 0"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"verify output is not JSON: {exc}"]
    if report.get("suite") != suite:
        problems.append(f"verify reported suite {report.get('suite')!r}, expected {suite!r}")
    checks = report.get("checks") or []
    if report.get("ok") is not True or not checks or not all(c.get("ok") is True for c in checks):
        problems.append(f"verify suite {suite} is not ok")
    return problems


def check_bounds(rc: int, text: str, sha256: str) -> list[str]:
    """A ``bounds`` table does not depend on the seed: its digest is pinned."""
    problems = [] if rc == 0 else [f"bounds exited {rc}, expected 0"]
    got = hashlib.sha256(text.encode()).hexdigest()
    if got != sha256:
        problems.append(f"bounds CSV sha256 {got} differs from the pinned {sha256}")
    return problems
