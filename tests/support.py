"""Shared test helpers: independent brute-force oracles.

The separability oracle here is deliberately different from the library's
pair-line enumeration: a subset is separable iff the convex hulls of the
subset and its complement are disjoint, decided with exact orientation
tests (hull edges may not cross and neither hull may contain a vertex of
the other).  General position rules out all degenerate sign cases.

The general-position oracle is the plain O(n^3) scan over all triples, kept
apart from the library's grouping of pairs by critical direction.

The decomposition oracle projects every point along each gap sample
direction and its negation, instead of reading the halfperiod's block
counters.

The halfperiod-witness oracle records the whole halfperiod from l1 and
scans it with ``check_halfperiod``, instead of reading (s, t) off a plain
replay; that scan is in turn checked against one that reads the block
pattern of every recorded permutation.

The grouping oracle groups the pairs by critical direction with ``Fraction``
differences of the original coordinates, instead of the library's integer
coordinates; the count oracle recounts the critical transpositions for each
k, instead of reading the halfperiod's one-pass site counts.

The crossing-bound oracle sums (n-2k-1) * min_kset_count(k, n) one k at a
time, instead of reading the crossing sum off ``bound_table(n)``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from ksetlab.bounds import min_kset_count
from ksetlab.circular import (
    Direction,
    Halfperiod,
    build_halfperiod,
    interval_sample_directions,
)
from ksetlab.decompose import DecompositionWitness, check_halfperiod
from ksetlab.errors import GeneralPositionError
from ksetlab.geometry import Point, PointSet, orientation


# Six-point sets with a collinear triple on which replaying the flips alone
# raises nothing (the non-adjacent-swap guard never fires), plus one with a
# repeated point.
DEGENERATE_SETS = [
    PointSet.from_coords([(0, 0), (1, 0), (2, 0), (0, 3), (5, 4), (-2, 7)]),
    PointSet.from_coords([(0, 0), (2, 1), (4, 2), (1, 5), (-3, 1), (5, -2)]),
    PointSet.from_coords([(0, 0), (1, 1), (2, 2), (0, 5), (3, -1), (-2, 3)]),
    PointSet.from_coords([(0, 0), (4, 1), (0, 0), (1, 3), (3, 3), (2, -3)]),
]


def crossing_lower_bound_by_min_counts(n: int) -> int:
    """Finite-n crossing bound sum over k of (n-2k-1) * min_kset_count(k, n),
    one k at a time."""
    if n % 3 != 0 or n < 3:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    total = 0
    for k in range(1, (n - 2) // 2 + 1):
        total += (n - 2 * k - 1) * min_kset_count(k, n)
    return total


def general_position_by_triples(ps: PointSet) -> bool:
    """True iff all points are distinct and no triple is collinear."""
    pts = ps.points
    if len(set(pts)) != len(pts):
        return False
    return all(orientation(p, q, r) != 0 for p, q, r in combinations(pts, 3))


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


def halfperiod_witness_by_halfperiod(
    ps: PointSet, witness: DecompositionWitness
) -> DecompositionWitness:
    """``locate_halfperiod_witness`` by recording the halfperiod of the
    relabeled set from l1 and scanning it with ``check_halfperiod``."""
    h = build_halfperiod(ps.with_labels(witness.partition), witness.directions[0])
    return replace(witness, halfperiod_indices=check_halfperiod(h))


def block_pattern_indices_by_permutations(h: Halfperiod) -> tuple[int, int] | None:
    """``check_halfperiod`` by reading the blocks of every permutation of
    the labeled halfperiod ``h``."""

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
    s_idx = next((i for i, p in enumerate(perms) if blocks(p) == (y, x, z)), None)
    if s_idx is None:
        return None
    t_idx = next((i for i in range(s_idx + 1, len(perms)) if blocks(perms[i]) == (y, z, x)), None)
    return None if t_idx is None else (s_idx, t_idx)


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
