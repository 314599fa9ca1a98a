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

The halfperiod-witness oracle reads the block pattern of every
permutation of a halfperiod, instead of tracking the thirds through the
swaps at sites n/3 and 2n/3 as ``check_halfperiod`` does.

The grouping oracle groups the pairs by critical direction with ``Fraction``
differences of the original coordinates, instead of the library's integer
coordinates; the count oracle recounts the critical transpositions for each
k, instead of reading the halfperiod's one-pass site counts.

The kernel oracles are the library's earlier kernel: a dict of per-pair
tuples keyed by primitive direction, sorted by float angle and checked by
one exact pass of its classes, and a replay that yields the swaps class by
class.  The flat kernel (``PointSet.classes``, ``PointSet.replay``) must
give the same classes, swaps, site counts and splits.

The random-set oracle is the plain rejection loop: each candidate is kept
when the whole set with it added is in general position, instead of being
looked up among the cells the accepted points block.

The crossing-bound oracle sums (n-2k-1) * min_kset_count(k, n) one k at a
time, instead of reading the crossing sum off ``bound_table(n)``.

The Y oracle evaluates the paper's formula term by term in ``Fraction``s,
with the clamped binomial and a linear scan for the depth, instead of the
library's integer closed form.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations

from ksetlab.bounds import min_kset_count
from ksetlab.circular import (
    Direction,
    Halfperiod,
    interval_sample_directions,
)
from ksetlab.decompose import DecompositionWitness
from ksetlab.errors import GeneralPositionError
from ksetlab.geometry import Point, PointSet, cross, is_general_position, orientation
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


def crossing_lower_bound_by_min_counts(n: int) -> int:
    """Finite-n crossing bound sum over k of (n-2k-1) * min_kset_count(k, n),
    one k at a time."""
    if n % 3 != 0 or n < 3:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    total = 0
    for k in range(1, (n - 2) // 2 + 1):
        total += (n - 2 * k - 1) * min_kset_count(k, n)
    return total


def random_general_position_set_by_rejection(n: int, seed: int) -> PointSet:
    """``verify.random_general_position_set`` by testing each candidate on
    the whole set; never returns once the grid has no free cell left."""
    spread = RANDOM_SPREAD
    rng = random.Random(seed)
    ps = PointSet(())
    while ps.n < n:
        cand = Point(Fraction(rng.randint(-spread, spread)), Fraction(rng.randint(-spread, spread)))
        trial = PointSet(ps.points + (cand,))
        if is_general_position(trial):
            ps = trial
    return ps


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
    """The halfperiod ``circular.replay`` records, from the classes of
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
