"""Deciding and generating 3-decomposable point sets.

A labeled point set (equal classes a, b, c) is 3-decomposable when three
directed lines realize the block projection orders a,b,c / b,a,c / b,c,a.
Each block order is a split of the points into thirds (the third, 0, 1 or
2, of each point), and the split of the projection order is constant on
each angular gap between consecutive critical directions, so one sweep
decides 3-decomposability exactly, with no floating point and no
randomness.  ``_read_splits`` reads the point set's one cached replay of
the halfperiod from the first gap (``PointSet.replay``, a ``Halfperiod``
in flat columns of sites and points), follows each point's third through
the swaps at site s or 2s, s = n/3 (the only ones that move a point
between thirds), and maps each split read after a class of flips to the
first gap sample realizing it; the negated sample realizes its reversal
(third t becomes 2 - t).
``check_partition`` looks up the splits of the given partition (the
direction-sampling check it replaces is kept as a test oracle);
``find_partition`` decides every split read and its reversal, thirds 0, 1,
2 named a, b, c: the a,b,c split of any 3-decomposition is one of them.

The halfperiod indices (s, t) of a witness come from the same tracked
thirds: ``check_halfperiod`` scans the swaps at sites s and 2s of a
halfperiod whose initial permutation is the class blocks x, y, z for the
first y,z,x split after the first y,x,z one, and
``locate_halfperiod_witness`` runs it on the halfperiod replayed from l1.

The generator places n/3 points in a small disk at each vertex of a fixed
triangle; as the disk radius shrinks the projection orders converge to the
three-point orders, which realize all six block patterns, so halving the
radius until the checker passes always terminates; each point is redrawn
until it is in general position (``geometry.GeneralPositionDraw``).
``generate_with_witness`` hands back the accepted attempt's witness, so a
caller that needs it does not check the set again.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from typing import Collection, Iterable, NamedTuple, Sequence

from .circular import Direction, Halfperiod, block_roles, build_halfperiod, gap_sample
from .errors import GeneralPositionError, LabelingError
from .geometry import CLASS_NAMES, DRAWS_PER_POINT, GeneralPositionDraw, Point, PointSet
from .geometry import normalize_labels

GENERATOR_SHAPES = ("triangle-clusters", "near-optimal-template")

_GENERATOR_ATTEMPTS = 256

#: Triangle-cluster offsets are multiples of 1/_GRID in [-1, 1]^2.
_GRID = 64

# Fixed, arbitrary non-degenerate template triangle for the generator.
_CLUSTER_CENTERS = (
    Point(Fraction(0), Fraction(0)),
    Point(Fraction(1), Fraction(0)),
    Point(Fraction(1, 2), Fraction(9, 10)),
)

#: The block orders each mode requires, in witness order.
_BLOCK_ORDERS = {"three": ("abc", "bac", "bca"), "two": ("abc", "bac")}

#: A split into thirds: entry p is the third (0, 1 or 2) of point p.
Split = tuple[int, ...]


class DecompositionWitness(NamedTuple):
    """A verified decomposition: the per-point classes, the three witness
    directions (the third is None in two-condition mode), and optionally the
    halfperiod indices (s, t) locating the b,a,c and b,c,a permutations."""

    partition: tuple[str, ...]
    directions: tuple[Direction, Direction, Direction | None]
    halfperiod_indices: tuple[int, int] | None = None


def _normalize_partition(
    of: PointSet | Halfperiod, labels: Iterable[str] | None
) -> tuple[str, ...]:
    if labels is not None:
        return normalize_labels(labels, of.n)
    if of.labels is None:
        raise LabelingError("no partition given and the point set is unlabeled")
    return of.labels


def _block_orders(mode: str) -> tuple[str, ...]:
    if mode not in _BLOCK_ORDERS:
        raise ValueError(f"mode must be 'three' or 'two', got {mode!r}")
    return _BLOCK_ORDERS[mode]


def _splits(labels: Sequence[str], orders: Iterable[Sequence[str]]) -> list[Split]:
    """For each block order, the split putting class ``order[t]`` in third t."""
    return [tuple(order.index(c) for c in labels) for order in orders]


def _thirds(perm: Sequence[int]) -> list[int]:
    """The third (0, 1 or 2) of the permutation ``perm`` of n = 3s points
    that each point sits in."""
    s = len(perm) // 3
    third = [0] * len(perm)
    for site, p in enumerate(perm):
        third[p] = site // s
    return third


def _boundary_swaps(h: Halfperiod, s: int) -> list[int]:
    """The swaps of ``h`` at a site that is a multiple of s: for n = 3s, the
    ones at sites s and 2s, which move a point between thirds."""
    return [k for k, site in enumerate(h.sites) if not site % s]


def _class_of(h: Halfperiod, k: int) -> int:
    """The class swap ``k`` of ``h`` belongs to."""
    starts = h.classes.starts
    return bisect_right(starts, (k + starts[h.first]) % len(h.sites)) - 1


def _read_splits(
    ps: PointSet, wanted: Collection[Split] = ()
) -> dict[Split, Direction]:
    """Map each split into thirds that one sweep reads to the sample of the
    first gap realizing it.  The sweep (``PointSet.replay``) starts at the
    first gap's sample (``default_start_direction``) and meets classes 1,
    2, ... in turn; class g opens gap g, and the last class met, 0, closes
    the halfperiod.  Stops once every split in ``wanted`` is mapped, and
    with none wanted reads the whole halfperiod."""
    r = ps.replay
    third = _thirds(r.initial_permutation)
    first = {tuple(third): r.direction}
    moves = [(_class_of(r, k), r.firsts[k], r.seconds[k]) for k in _boundary_swaps(r, ps.n // 3)]
    final = (r.first or len(r.classes)) - 1
    for idx, (g, i, j) in enumerate(moves):
        third[i], third[j] = third[j], third[i]
        if idx + 1 < len(moves) and moves[idx + 1][0] == g:
            continue  # class g moves another point
        if g == final:
            break
        split = tuple(third)
        if split not in first:
            first[split] = gap_sample(ps.classes, g)
        if wanted and all(w in first for w in wanted):
            break
    return first


def _witness(
    part: tuple[str, ...], wanted: list[Split], first: dict[Split, Direction]
) -> DecompositionWitness | None:
    """The witness of ``part``: each wanted split's direction in the map
    ``_read_splits`` built, else the negated direction of its reversal
    (third t becomes 2 - t); None if some split has neither."""
    found: list[Direction] = []
    for split in wanted:
        if split in first:
            found.append(first[split])
        elif (rev := tuple(2 - t for t in split)) in first:
            found.append((-first[rev][0], -first[rev][1]))
        else:
            return None
    l3 = found[2] if len(found) == 3 else None
    return DecompositionWitness(part, (found[0], found[1], l3))


def check_partition(
    ps: PointSet, labels: Iterable[str] | None = None, mode: str = "three"
) -> DecompositionWitness | None:
    """Search for witness directions making the given partition a
    3-decomposition.  ``mode='three'`` (default) requires the block orders
    a,b,c / b,a,c / b,c,a; ``mode='two'`` requires only the first two.

    Each block order is a split into thirds, looked up in the splits one
    sweep reads (``_read_splits``, stopped once all are read): its witness
    is the first realizing direction among the gap samples
    (``gap_samples``), else the first among their negations.
    """
    orders = _block_orders(mode)
    part = _normalize_partition(ps, labels)
    wanted = _splits(part, orders)
    return _witness(part, wanted, _read_splits(ps, wanted))


def find_partition(ps: PointSet, mode: str = "three") -> DecompositionWitness | None:
    """Exhaustively search for a 3-decomposition of an (unlabeled) set.

    The a,b,c split of any 3-decomposition, or its reversal, is read by one
    sweep, so the splits read and their reversals, thirds 0, 1, 2 named
    a, b, c, are every candidate partition.  Each, in the order read, is
    decided by looking up its splits in the map of that one sweep, as
    ``check_partition`` would.  Returns the first witness found, or None.
    """
    orders = _block_orders(mode)
    if ps.n % 3 or ps.n < 3:
        raise LabelingError(f"3-decomposition needs n divisible by 3, got n = {ps.n}")
    first = _read_splits(ps)
    for split in first:
        for names in (CLASS_NAMES, CLASS_NAMES[::-1]):
            part = tuple(names[t] for t in split)
            witness = _witness(part, _splits(part, orders), first)
            if witness is not None:
                return witness
    return None


def check_halfperiod(
    h: Halfperiod, labels: Iterable[str] | None = None
) -> tuple[int, int] | None:
    """Locate the decomposition witnesses inside a halfperiod.

    The initial permutation must consist of three pure class blocks
    (x, y, z); the function then scans for the earliest index s whose
    permutation reads y,x,z in blocks and the earliest t > s reading y,z,x.
    Returns (s, t) (0-based permutation indices) or None.  Only the swaps
    at sites n/3 and 2n/3 (``_boundary_swaps``), the ones that move a
    point between thirds, are read, and none as a ``Swap``.  Given labels
    are checked as a ``PointSet`` checks its own (``LabelingError``).
    """
    labels = _normalize_partition(h, labels)
    roles = block_roles(h.initial_permutation, labels)
    if roles is None:
        return None
    x, y, z = roles
    targets = [list(split) for split in _splits(labels, ((y, x, z), (y, z, x)))]
    third = _thirds(h.initial_permutation)
    found: list[int] = []
    for k in _boundary_swaps(h, h.n // 3):
        i, j = h.firsts[k], h.seconds[k]
        third[i], third[j] = third[j], third[i]
        if third == targets[len(found)]:
            found.append(k + 1)
            if len(found) == 2:
                return found[0], found[1]
    return None


def locate_halfperiod_witness(
    ps: PointSet, witness: DecompositionWitness
) -> DecompositionWitness:
    """Attach the halfperiod indices (s, t) to a witness: ``check_halfperiod``
    on the halfperiod replayed from the first witness direction, whose
    initial permutation is then the three class blocks."""
    h = build_halfperiod(ps, witness.directions[0])
    return witness._replace(halfperiod_indices=check_halfperiod(h, witness.partition))


def generate_with_witness(
    n: int, seed: int = 0, shape: str = "triangle-clusters"
) -> tuple[PointSet, DecompositionWitness]:
    """Deterministically generate a labeled 3-decomposable set of n points,
    with the witness that accepted it.

    n/3 points are jittered inside a disk of radius r at each vertex of the
    template triangle, each redrawn until ``GeneralPositionDraw`` keeps it
    (it repeats no point and is collinear with no two drawn before it);
    triangle clusters are then sorted by offset.  r is halved and the set
    drawn again, from the next substream of the seed, until it passes
    ``check_partition`` in three-condition mode, whose witness is returned
    with the set.  Raises ``LabelingError`` for an n that is not a positive
    multiple of 3, and ``GeneralPositionError`` when a point is not kept
    within ``DRAWS_PER_POINT`` draws or no attempt succeeds.
    """
    if n < 3 or n % 3 != 0:
        raise LabelingError(f"n must be a positive multiple of 3, got {n}")
    if shape not in GENERATOR_SHAPES:
        raise ValueError(f"shape must be one of {GENERATOR_SHAPES}, got {shape!r}")
    per_cluster, grid = n // 3, _GRID
    gx = sum(c.x for c in _CLUSTER_CENTERS) / 3
    gy = sum(c.y for c in _CLUSTER_CENTERS) / 3
    radius = Fraction(1, 8)
    for attempt in range(_GENERATOR_ATTEMPTS):
        rng = random.Random(1_000_003 * seed + 7919 * attempt + n)
        draw, points = GeneralPositionDraw(), []
        for center in _CLUSTER_CENTERS:
            dx, dy = gx - center.x, gy - center.y
            for i in range(per_cluster):
                for _ in range(DRAWS_PER_POINT):
                    if shape == "triangle-clusters":
                        ox = Fraction(rng.randint(-grid, grid), grid)
                        oy = Fraction(rng.randint(-grid, grid), grid)
                    else:  # along the spoke to the centroid, jittered across it,
                        # echoing the elongated clusters of the best known drawings
                        t = Fraction(i + 1, per_cluster + 1)
                        jitter = Fraction(rng.randint(-grid, grid), grid * 8)
                        ox, oy = t * dx - jitter * dy, t * dy + jitter * dx
                    if draw.offer(Point(center.x + radius * ox, center.y + radius * oy)):
                        break
                else:
                    raise GeneralPositionError(f"generator gave up on n={n}, seed={seed}: no point "
                                               f"in general position in {DRAWS_PER_POINT} draws")
            cluster = draw.points[len(points) :]
            points += sorted(cluster) if shape == "triangle-clusters" else cluster
        ps = PointSet(points, [c for c in CLASS_NAMES for _ in range(per_cluster)])
        witness = check_partition(ps)
        if witness is not None:
            return ps, witness
        radius /= 2
    raise GeneralPositionError(
        f"generator gave up on n={n}, seed={seed} after {_GENERATOR_ATTEMPTS} attempts"
    )


def generate(n: int, seed: int = 0, shape: str = "triangle-clusters") -> PointSet:
    """The set ``generate_with_witness`` returns, without its witness."""
    return generate_with_witness(n, seed, shape)[0]
