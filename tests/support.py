"""Shared test helpers: independent brute-force oracles.

The separability oracle here is deliberately different from the library's
pair-line enumeration: a subset is separable iff the convex hulls of the
subset and its complement are disjoint, decided with exact orientation
tests (hull edges may not cross and neither hull may contain a vertex of
the other).  General position rules out all degenerate sign cases.

The general-position oracle is the plain O(n^3) scan over all triples, kept
apart from the library's grouping of pairs by critical direction.

The decomposition oracle projects every point along each gap sample
direction and its negation, instead of looking the block orders up among
the splits into thirds one sweep reads.

The halfperiod-witness oracle reads the block pattern of every
permutation of a halfperiod, instead of walking the splits into thirds
through the swaps at sites n/3 and 2n/3 (``decompose._splits_along``) as
``check_halfperiod`` does.

The grouping oracle groups the pairs by critical direction with ``Fraction``
differences of the original coordinates, instead of the library's integer
coordinates; the count oracle recounts the critical transpositions for each
k, instead of reading the halfperiod's one-pass site counts.

The kernel oracles are the library's earlier kernel: a dict of per-pair
tuples keyed by primitive direction, sorted by float angle and checked by
one exact pass of its classes, and a replay that yields the swaps class by
class.  The flat kernel (``PointSet.classes``, ``build_halfperiod``) must
give the same classes, swaps, site counts and splits.

The random-set oracle is the plain rejection loop: each candidate is kept
when the whole set with it added is in general position, instead of having
its direction from each kept point looked up among the directions
``GeneralPositionDraw`` holds there, all points integers on one scale.

The generator oracle is the library's earlier generator: each candidate is
``center + radius * offset`` in ``Fraction``s, offered to a drawer that
holds each kept point over the lcm of its own two denominators, instead of
integer candidates over one denominator per attempt.

The crossing-bound oracle sums (n-2k-1) * ceil(Y(k,n)) one k at a time,
Y from the term-by-term ``Fraction`` oracle below, instead of reading the
crossing sum off ``bound_table(n)``: it shares no code with the integer
pass.

The fraction-reader oracle is the library's earlier reader: every string
goes whole to ``fractions.Fraction`` behind the decimal-exponent guard,
instead of a "p/q" string being read as two ints.

The file-writer oracle is the library's earlier writer: ``json.dumps``
with ``indent=2`` of the ``Fraction`` points' "p/q" strings, instead of the
reduced strings of the integer grid laid out without ``json``.

The Y oracle evaluates the paper's formula term by term in ``Fraction``s,
with the clamped binomial and a linear scan for the depth, instead of the
library's integer closed form.

The bound-report oracle is the library's earlier report and row: Y and hom
are ``Fraction``s built from ``_closed_form``'s (b, num, den) one (k, n) at
a time, and the ``bounds`` cells are their ``str`` and ``float``, instead of
the one integer pass of ``bound_table`` and cells written from the reduced
numerator and denominator.

The extremal-digraph oracle is the library's earlier greedy: each receiver
appends its edges one at a time and reads its take from outdegrees kept
per sender, instead of the block marks of ``bounds._extremal_degrees``.

The CSV oracle is the library's earlier writer: ``csv.writer`` (the excel
dialect, quoting where a cell needs it, ``\\r\\n`` line ends) over each
row's cells, instead of one joined line per row written as it comes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import sys
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations
from typing import NamedTuple

from ksetlab.bounds import _closed_form, _edge_summands
from ksetlab.circular import (
    Direction,
    Halfperiod,
    ValidSwapDigraph,
    interval_sample_directions,
)
from ksetlab.decompose import DecompositionWitness, check_partition
from ksetlab.errors import GeneralPositionError
from ksetlab.geometry import (
    CLASS_NAMES,
    DRAWS_PER_POINT,
    Point,
    PointSet,
    cross,
    is_general_position,
    orientation,
)
from ksetlab.verify import RANDOM_SPREAD


# Six-point sets with a collinear triple on which replaying the flips alone
# raises nothing (the non-adjacent-swap guard never fires), plus one with a
# repeated point.
DEGENERATE_SETS = [
    PointSet.from_coords([(0, 0), (1, 0), (2, 0), (0, 3), (5, 4), (-2, 7)]),
    PointSet.from_coords([(0, 0), (2, 1), (4, 2), (1, 5), (-3, 1), (5, -2)]),
    PointSet.from_coords([(0, 0), (1, 1), (2, 2), (0, 5), (3, -1), (-2, 3)]),
    PointSet.from_coords([(0, 0), (4, 1), (0, 0), (1, 3), (3, 3), (2, -3)]),
]


def parse_fraction_whole(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent beyond the int digit
    limit (4300 where the interpreter has none to report), with a zero
    denominator refused as ``ValueError``."""
    text = str(text)
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    get = getattr(sys, "get_int_max_str_digits", None)
    limit = 4300 if get is None else get()
    if exponent and limit and abs(int(exponent[1])) > limit:
        raise ValueError(f"exponent beyond {limit} in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def point_set_text_by_fractions(points: list[Point], labels: tuple[str, ...] | None) -> str:
    """The text of a point-set file of ``Fraction`` points and normalized
    labels: ``json.dumps(..., indent=2)`` and a newline."""
    out: dict = {
        "n": len(points),
        "points": [[f"{c.numerator}/{c.denominator}" for c in p] for p in points],
    }
    if labels is not None:
        out["labels"] = list(labels)
    return json.dumps(out, indent=2) + "\n"


def binom2(x: Fraction | int) -> Fraction:
    """Generalized binomial C(x,2) = x(x-1)/2, clamped to 0 for x < 2."""
    x = Fraction(x)
    if x < 2:
        return Fraction(0)
    return x * (x - 1) / 2


def kset_lower_bound_by_fractions(k: int, n: int) -> tuple[int, Fraction]:
    """The refinement depth b and Y(k,n) for a nonempty window, term by
    term: b by scanning C(b+2,2) < n/m upwards, then
    3*C(k+1,2) + 3*C(k-s+1,2) + 3 * sum_{j=2}^{b} j(j+1) * C(arg_j,2) - 1/3
    with arg_j = k+1 - (1/2 - 1/(3j(j+1)))*n."""
    s, m = n // 3, n - 2 * k - 1
    depth = 0
    while math.comb(depth + 2, 2) < Fraction(n, m):
        depth += 1
    total = 3 * binom2(k + 1) + 3 * binom2(k - s + 1) - Fraction(1, 3)
    for j in range(2, depth + 1):
        arg = Fraction(k + 1) - (Fraction(1, 2) - Fraction(1, 3 * j * (j + 1))) * n
        if arg < 2:
            # Arguments decrease in j; all later terms are clamped to 0.
            break
        total += 3 * j * (j + 1) * binom2(arg)
    return depth, total


class FractionBoundReport(NamedTuple):
    """The library's earlier ``BoundReport``: Y and hom as ``Fraction``s."""

    n: int
    k: int
    m: int
    s: int
    depth: int | None
    y: Fraction | None
    ceil_y: int
    het: int
    hom_lower: Fraction | None
    edges: int | None
    edge_summands: tuple[int, int, int] | None
    l: int | None


def bound_report_by_fractions(k: int, n: int) -> FractionBoundReport:
    """Every bound quantity at a valid (k, n), m = 0 included: Y the
    ``Fraction`` of ``_closed_form``'s num/den, ceil(Y), hom = Y - het and L
    derived from it."""
    s, m = n // 3, n - 2 * k - 1
    low = 3 * math.comb(k + 1, 2)
    het = low if k <= s else 3 * math.comb(s + 1, 2) + (k - s) * n
    depth = y = hom = edges = summands = sharp = None
    ceil_y = low
    if m >= 1:
        depth, num, den = _closed_form(k, n, m)
        y = Fraction(num, den)
        ceil_y = math.ceil(y)
    if k <= s:
        hom, sharp = Fraction(0), low
    elif y is not None:
        hom = y - het
        summands = _edge_summands(m, s)
        edges = sum(summands)
        sharp = het + 3 * (math.comb(s, 2) - edges)
    return FractionBoundReport(n, k, m, s, depth, y, ceil_y, het, hom, edges, summands, sharp)


def bounds_cells_by_fractions(report: FractionBoundReport, crossing: int) -> list[str]:
    """The ``bounds`` row of ``report`` as the CSV writes it, each cell the
    ``str`` of its value ("undefined" for None), Y_dec from ``float(Y)``."""
    def cell(value):
        return "undefined" if value is None else str(value)

    r = report
    y_dec = None if r.y is None else f"{float(r.y):.6f}"
    ratio = f"{crossing / math.comb(r.n, 4):.8f}"
    return [cell(v) for v in (r.n, r.k, r.m, r.depth, r.y, y_dec, r.ceil_y, r.het,
                              r.hom_lower, r.l, r.edges, crossing, ratio)]


def csv_text_by_writer(columns: list[str], rows) -> str:
    """The header and ``rows`` as ``csv.writer`` writes them."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def bounds_rows_by_fractions(ns, only_k: int | None) -> list[list[str]]:
    """The cells of the ``bounds`` rows over the multiples of 3 in ``ns``
    (n >= 6), every k < n/2 or ``only_k`` alone, one (k, n) at a time in
    ``Fraction``s; ``cr_lower`` sums (n-2k-1) * ceil(Y) over their reports."""
    rows = []
    for n in ns:
        reports = [bound_report_by_fractions(k, n) for k in range(1, (n - 1) // 2 + 1)]
        crossing = sum(r.m * r.ceil_y for r in reports)
        rows += [bounds_cells_by_fractions(r, crossing) for r in reports
                 if only_k is None or r.k == only_k]
    return rows


def crossing_lower_bound_by_terms(n: int) -> int:
    """Finite-n crossing bound sum over k of (n-2k-1) * ceil(Y(k,n)), one k
    at a time, Y from ``kset_lower_bound_by_fractions``; the empty window
    (m = 0) has weight 0."""
    if n % 3 != 0 or n < 3:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    total = 0
    for k in range(1, (n - 1) // 2 + 1):
        m = n - 2 * k - 1
        if m:
            total += m * math.ceil(kset_lower_bound_by_fractions(k, n)[1])
    return total


def extremal_digraph_by_edges(k: int, n: int) -> ValidSwapDigraph:
    """``bounds.build_extremal_digraph`` edge by edge, for n/3 < k < n/2
    with a nonempty window: receivers from the top index down, each taking
    the nearest lower-indexed senders its budget (window plus its final
    outdegree) and supply allow."""
    m, s = n - 2 * k - 1, n // 3
    outd = [0] * (s + 1)
    edges = []
    for j in range(s, 1, -1):
        take = min(j - 1, m + outd[j])
        for sender in range(j - 1, j - 1 - take, -1):
            edges.append((sender, j))
            outd[sender] += 1
    return ValidSwapDigraph("synthetic", s, frozenset(edges))


def random_general_position_set_by_rejection(n: int, seed: int) -> PointSet:
    """``verify.random_general_position_set`` by testing each candidate on
    the whole set; never returns once the grid has no free cell left."""
    spread = RANDOM_SPREAD
    rng = random.Random(seed)
    ps = PointSet(())
    while ps.n < n:
        cand = (rng.randint(-spread, spread), rng.randint(-spread, spread))
        trial = PointSet(ps.coords + (cand,))
        if is_general_position(trial):
            ps = trial
    return ps


class RationalDraw:
    """The earlier ``GeneralPositionDraw``: ``offer`` takes a pair of
    rationals and holds each kept point as integers (X, Y, D), its
    coordinates times the lcm D of their denominators, with the primitive
    directions from it to the points kept after it."""

    def __init__(self) -> None:
        self.points: list = []
        self._held: list[tuple[int, int, int, set[Direction]]] = []

    def offer(self, p) -> bool:
        x, y = p
        d = math.lcm(x.denominator, y.denominator)
        px, py = x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)
        found = []
        for qx, qy, qd, held in self._held:
            dx, dy = px * qd - qx * d, py * qd - qy * d
            g = math.gcd(dx, dy)
            if not g:
                return False
            if dx < 0 or not dx and dy < 0:
                g = -g
            u = (dx // g, dy // g)
            if u in held:
                return False
            found.append(u)
        for (_, _, _, held), u in zip(self._held, found):
            held.add(u)
        self.points.append(p)
        self._held.append((px, py, d, set()))
        return True


def generate_with_witness_by_fractions(
    n: int, seed: int = 0, shape: str = "triangle-clusters"
) -> tuple[PointSet, DecompositionWitness]:
    """``decompose.generate_with_witness`` with every candidate computed in
    ``Fraction``s and offered to ``RationalDraw``: the same RNG calls, in
    the same order, from the same seeds."""
    centers = (Point(Fraction(0), Fraction(0)), Point(Fraction(1), Fraction(0)),
               Point(Fraction(1, 2), Fraction(9, 10)))
    per_cluster, grid = n // 3, 64
    gx = sum(c.x for c in centers) / 3
    gy = sum(c.y for c in centers) / 3
    radius = Fraction(1, 8)
    for attempt in range(256):
        rng = random.Random(1_000_003 * seed + 7919 * attempt + n)
        draw, points = RationalDraw(), []
        for center in centers:
            dx, dy = gx - center.x, gy - center.y
            for i in range(per_cluster):
                for _ in range(DRAWS_PER_POINT):
                    if shape == "triangle-clusters":
                        ox = Fraction(rng.randint(-grid, grid), grid)
                        oy = Fraction(rng.randint(-grid, grid), grid)
                    else:
                        t = Fraction(i + 1, per_cluster + 1)
                        jitter = Fraction(rng.randint(-grid, grid), grid * 8)
                        ox, oy = t * dx - jitter * dy, t * dy + jitter * dx
                    if draw.offer(Point(center.x + radius * ox, center.y + radius * oy)):
                        break
                else:
                    raise GeneralPositionError(f"no point kept in {DRAWS_PER_POINT} draws")
            cluster = draw.points[len(points) :]
            points += sorted(cluster) if shape == "triangle-clusters" else cluster
        ps = PointSet.from_coords(points, [c for c in CLASS_NAMES for _ in range(per_cluster)])
        witness = check_partition(ps)
        if witness is not None:
            return ps, witness
        radius /= 2
    raise GeneralPositionError(f"no attempt passed for n={n}, seed={seed}")


def general_position_by_triples(ps: PointSet) -> bool:
    """True iff all points are distinct and no triple is collinear: the
    cross product of every triple, in integers (the points times the lcm of
    all their denominators), is nonzero."""
    pts = ps.points
    if len(set(pts)) != len(pts):
        return False
    m = math.lcm(*(c.denominator for p in pts for c in p))
    xy = [(int(p.x * m), int(p.y * m)) for p in pts]
    for i, (ax, ay) in enumerate(xy):
        for j in range(i + 1, len(xy)):
            ux, uy = xy[j][0] - ax, xy[j][1] - ay
            if not all(ux * (y - ay) - uy * (x - ax) for x, y in xy[j + 1 :]):
                return False
    return True


def dot_point(u: Direction, p: Point) -> Fraction:
    """The projection of ``p`` along ``u``, in the original coordinates."""
    return u[0] * p.x + u[1] * p.y


def _primitive_upper(dx: Fraction, dy: Fraction) -> Direction:
    """Canonical primitive integer vector for the line direction (dx, dy),
    normalized into the upper half plane (y > 0, or y = 0 and x > 0)."""
    ix = dx.numerator * dy.denominator
    iy = dy.numerator * dx.denominator
    g = math.gcd(ix, iy)
    ix //= g
    iy //= g
    if iy < 0 or (iy == 0 and ix < 0):
        ix, iy = -ix, -iy
    return (ix, iy)


def critical_direction_pairs_by_fractions(ps: PointSet) -> dict:
    """``critical_direction_pairs`` from ``Fraction`` differences of the
    points, with the same errors."""
    pts = ps.points
    classes: dict = {}
    for i, j in combinations(range(len(pts)), 2):
        dx, dy = pts[j].x - pts[i].x, pts[j].y - pts[i].y
        if not dx and not dy:
            raise GeneralPositionError(f"points {i} and {j} coincide")
        w = _primitive_upper(-dy, dx)
        classes[w] = classes.get(w, ()) + ((i, j),)
    for pairs in classes.values():
        if len(pairs) > 1 and len({p for pair in pairs for p in pair}) < 2 * len(pairs):
            raise GeneralPositionError("point set has a collinear triple")
    return classes


def critical_direction_pairs(ps: PointSet) -> dict:
    """The pairs ``(i, j)``, ``i < j``, grouped by primitive critical
    direction in the upper half plane, from the integer coordinates, one
    tuple per pair; raises ``GeneralPositionError`` as the library does."""
    xy = ps.coords
    classes: dict = {}
    for i, (xi, yi) in enumerate(xy):
        for j in range(i + 1, len(xy)):
            xj, yj = xy[j]
            dx, dy = xj - xi, yj - yi
            if not dx and not dy:
                raise GeneralPositionError(f"points {i} and {j} coincide")
            g = math.gcd(dx, dy)
            if dx > 0 or (dx == 0 and dy < 0):
                w = (-dy // g, dx // g)
            else:
                w = (dy // g, -dx // g)
            classes[w] = classes.get(w, ()) + ((i, j),)
    for pairs in classes.values():
        if len(pairs) > 1 and len({p for pair in pairs for p in pair}) < 2 * len(pairs):
            raise GeneralPositionError("point set has a collinear triple")
    return classes


def classes_by_sorting(ps: PointSet) -> list:
    """``list(ps.classes)``: the grouping above sorted by float angle, kept
    when each class turns counterclockwise to the next, else sorted
    exactly."""
    classes = list(critical_direction_pairs(ps).items())
    try:
        classes.sort(key=lambda c: math.atan2(c[0][1], c[0][0]))
    except OverflowError:
        pass
    else:
        if all(a[0] * b[1] > a[1] * b[0] for (a, _), (b, _) in zip(classes, classes[1:])):
            return classes
    classes.sort(key=cmp_to_key(lambda a, b: -cross(a[0], b[0])))
    return classes


def gap_samples_of(classes: list) -> list[Direction]:
    """``gap_samples`` of a list of (direction, pairs) classes."""
    if not classes:
        return [(1, 0)]
    if len(classes) == 1:
        w = classes[0][0]
        return [(-w[1], w[0])]
    dirs = [w for w, _ in classes]
    ends = dirs[1:] + [(-dirs[0][0], -dirs[0][1])]
    return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(dirs, ends)]


def sweep_by_classes(ps: PointSet, u: Direction) -> tuple[tuple[int, ...], list[list]]:
    """The halfperiod ``build_halfperiod(ps, u)`` records, from the classes of
    ``classes_by_sorting``, one class at a time, with the same checks: the
    initial permutation and the ``(site, i, j)`` swaps of each class."""
    classes = classes_by_sorting(ps)
    ux, uy = u
    height = [ux * x + uy * y for x, y in ps.coords]
    initial = tuple(sorted(range(len(height)), key=height.__getitem__))
    for a, b in zip(initial, initial[1:]):
        if height[a] == height[b]:
            raise ValueError(f"start direction {u} ties a pair of projections")
    upper = u if u[1] > 0 or (u[1] == 0 and u[0] > 0) else (-u[0], -u[1])
    start = next((k for k, (w, _) in enumerate(classes) if cross(upper, w) > 0), 0)
    perm = list(initial)
    pos = [0] * len(perm)
    for i, v in enumerate(perm):
        pos[v] = i
    flips = []
    for _, pairs in classes[start:] + classes[:start]:
        swaps = []
        for i, j in sorted(pairs, key=lambda p: min(pos[p[0]], pos[p[1]])):
            a, b = sorted((pos[i], pos[j]))
            if b != a + 1:
                raise GeneralPositionError("swap of a non-adjacent pair; the input is degenerate")
            perm[a], perm[b] = perm[b], perm[a]
            pos[perm[a]], pos[perm[b]] = a, b
            swaps.append((a + 1, i, j))
        flips.append(swaps)
    if perm != list(reversed(initial)):
        raise GeneralPositionError("halfperiod replay did not reverse the order")
    return initial, flips


def site_counts_by_replay(ps: PointSet) -> tuple:
    """``site_counts(ps)`` tallied swap by swap off ``sweep_by_classes``
    from the first gap's sample."""
    _, flips = sweep_by_classes(ps, gap_samples_of(classes_by_sorting(ps))[0])
    counts = [0] * max(ps.n, 1)
    het = None if ps.labels is None else [0] * len(counts)
    for site, i, j in chain.from_iterable(flips):
        counts[site] += 1
        if het is not None and ps.labels[i] != ps.labels[j]:
            het[site] += 1
    return tuple(counts), None if het is None else tuple(het)


def read_splits_by_replay(ps: PointSet) -> list:
    """``decompose._read_splits(ps)`` as a list of items, from
    ``sweep_by_classes``: the split into thirds after each class that
    moves a point across site s or 2s, with the sample of the gap after
    it, first occurrence kept."""
    samples = gap_samples_of(classes_by_sorting(ps))
    initial, flips = sweep_by_classes(ps, samples[0])
    s = ps.n // 3
    third = [0] * ps.n
    for site, p in enumerate(initial):
        third[p] = site // s
    first = {tuple(third): samples[0]}
    for u, swaps in zip(samples[1:], flips):
        moved = False
        for site, i, j in swaps:
            if site % s == 0:
                third[i], third[j] = third[j], third[i]
                moved = True
        if moved:
            first.setdefault(tuple(third), u)
    return list(first.items())


def critical_counts_by_recount(h: Halfperiod, k: int) -> dict:
    """The fields of ``critical_counts(h, k)``, recounted from every
    transposition for this k alone."""
    n = h.n
    by_position = {i: 0 for i in range(1, n)}
    het_by_position = None if h.labels is None else {i: 0 for i in range(1, n)}
    for site, i, j in h.swaps:
        by_position[site] += 1
        if het_by_position is not None and h.labels[i] != h.labels[j]:
            het_by_position[site] += 1

    def critical_sum(counts):
        return sum(c for i, c in counts.items() if i <= k or i >= n - k)

    def mirrored(counts):
        return {
            i: counts.get(i, 0) + (counts.get(n - i, 0) if i != n - i else 0)
            for i in range(1, n // 2 + 1)
        }

    total = critical_sum(by_position)
    het = None if het_by_position is None else critical_sum(het_by_position)
    return {
        "n": n,
        "k": k,
        "total": total,
        "hom": None if het is None else total - het,
        "het": het,
        "by_position": by_position,
        "het_by_position": het_by_position,
        "i_critical": mirrored(by_position),
        "i_critical_het": None if het_by_position is None else mirrored(het_by_position),
    }


def _realizes_order(
    ps: PointSet, labels: tuple[str, ...], u: Direction, order: tuple[str, str, str]
) -> bool:
    """True iff along u every point of order[0] projects strictly before
    every point of order[1], which projects strictly before order[2]."""
    lo: dict[str, Fraction] = {}
    hi: dict[str, Fraction] = {}
    for p, c in zip(ps.points, labels):
        v = dot_point(u, p)
        if c not in lo:
            lo[c] = hi[c] = v
        else:
            lo[c] = min(lo[c], v)
            hi[c] = max(hi[c], v)
    x, y, z = order
    return hi[x] < lo[y] and hi[y] < lo[z]


def check_partition_by_sampling(
    ps: PointSet, labels=None, mode: str = "three"
) -> DecompositionWitness | None:
    """``check_partition`` by projection: the first realizing direction of
    each wanted block order among the gap samples, then their negations."""
    part = ps.labels if labels is None else ps.with_labels(labels).labels
    samples = interval_sample_directions(ps)
    candidates = samples + [(-u[0], -u[1]) for u in samples]
    wanted = [("a", "b", "c"), ("b", "a", "c")]
    if mode == "three":
        wanted.append(("b", "c", "a"))
    found = []
    for order in wanted:
        u = next((u for u in candidates if _realizes_order(ps, part, u, order)), None)
        if u is None:
            return None
        found.append(u)
    l3 = found[2] if mode == "three" else None
    return DecompositionWitness(part, (found[0], found[1], l3))


def block_pattern_indices_by_permutations(h: Halfperiod) -> tuple | None:
    """``check_halfperiod`` by reading the blocks of every permutation of
    the labeled halfperiod ``h``: y,x,z before y,z,x, else the mirrored
    x,z,y before z,x,y."""

    def blocks(perm: tuple[int, ...]) -> tuple[str, ...] | None:
        s = h.n // 3
        classes = [{h.labels[p] for p in perm[t * s : (t + 1) * s]} for t in range(3)]
        if any(len(c) != 1 for c in classes):
            return None
        return tuple(c.pop() for c in classes)

    perms = list(h.permutations())
    roles = blocks(perms[0]) if h.n and h.n % 3 == 0 else None
    if roles is None or len(set(roles)) != 3:
        return None
    x, y, z = roles
    for first, second in ((y, x, z), (y, z, x)), ((x, z, y), (z, x, y)):
        s_idx = next((i for i, p in enumerate(perms) if blocks(p) == first), None)
        if s_idx is None:
            continue
        t_idx = next((i for i in range(s_idx + 1, len(perms)) if blocks(perms[i]) == second),
                     None)
        if t_idx is not None:
            return s_idx, t_idx, (first, second)
    return None


def convex_hull(points: list[Point]) -> list[Point]:
    """Monotone-chain hull, counterclockwise, exact arithmetic."""
    pts = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    # Strict sign tests suffice: inputs come from a general-position set,
    # so no triple among {a, b, c, d} is collinear.
    return (
        orientation(a, b, c) != orientation(a, b, d)
        and orientation(c, d, a) != orientation(c, d, b)
    )


def _point_in_hull(hull: list[Point], p: Point) -> bool:
    if len(hull) < 3:
        return False
    signs = {orientation(hull[i], hull[(i + 1) % len(hull)], p) for i in range(len(hull))}
    return len(signs) == 1


def _hull_edges(hull: list[Point]) -> list[tuple[Point, Point]]:
    if len(hull) < 2:
        return []
    if len(hull) == 2:
        return [(hull[0], hull[1])]
    return [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]


def hulls_disjoint(pts_a: list[Point], pts_b: list[Point]) -> bool:
    ha, hb = convex_hull(pts_a), convex_hull(pts_b)
    for a, b in _hull_edges(ha):
        for c, d in _hull_edges(hb):
            if _segments_cross(a, b, c, d):
                return False
    return not any(_point_in_hull(hb, p) for p in ha) and not any(
        _point_in_hull(ha, p) for p in hb
    )


def separable(ps: PointSet, subset: frozenset[int]) -> bool:
    inside = [ps.points[i] for i in subset]
    outside = [ps.points[i] for i in range(ps.n) if i not in subset]
    return hulls_disjoint(inside, outside)


def kset_counts_by_hulls(ps: PointSet, max_size: int | None = None) -> dict[int, int]:
    """k-set counts by enumerating subsets and testing hull disjointness."""
    n = ps.n
    top = n // 2 if max_size is None else min(max_size, n // 2)
    counts = {}
    for k in range(1, top + 1):
        counts[k] = sum(
            1 for sub in combinations(range(n), k) if separable(ps, frozenset(sub))
        )
    return counts
