"""Deciding and generating 3-decomposable point sets.

A labeled point set (equal classes a, b, c) is 3-decomposable when three
directed lines realize the block projection orders a,b,c / b,a,c / b,c,a.
Each block order is a split of the points into thirds (the third, 0, 1 or
2, of each point), and the split of the projection order is constant on
each angular gap between consecutive critical directions, so one sweep
decides 3-decomposability exactly, with no floating point and no
randomness.  ``_splits_along`` is that sweep's one walk: it follows each
point's third through the swaps of a ``Halfperiod`` at site s or 2s,
s = n/3 (the only ones that move a point between thirds), yielding the
split each leaves.  ``_read_splits`` walks the halfperiod from the first
gap that ``build_halfperiod(ps)`` keeps on the point set, groups its swaps
by class (``PointSet.classes``) and maps the split left after each class
of flips to the first gap realizing it.  That gap's sample realizes the
split, and the negated sample its reversal (third t becomes 2 - t); a
witness (``_witness``) builds the samples of its own 2-3 splits only.
``check_partition`` looks up the splits of the set's own labels (the
direction-sampling check it replaces is kept as a test oracle);
``find_partition`` decides every split read and its reversal, thirds 0, 1,
2 named a, b, c: the a,b,c split of any 3-decomposition is one of them.

The halfperiod indices (s, t) of a witness come from the same walk:
``check_halfperiod`` walks a labeled halfperiod whose initial permutation
is the class blocks x, y, z to the first y,z,x split after the first y,x,z
one, and ``locate_halfperiod_witness`` runs it on the halfperiod from l1
of the set under the witness's partition, which ``build_halfperiod``
replays with the one swap loop.  Both read the labels of what they are
given; the labels were checked when the point set was built.

The generator places n/3 points in a small disk at each vertex of a fixed
triangle; as the disk radius shrinks the projection orders converge to the
three-point orders, which realize all six block patterns, so halving the
radius until the checker passes always terminates; each point, an integer
point over one denominator per attempt, is redrawn until it is in general
position (``geometry.GeneralPositionDraw``).
``generate_with_witness`` hands back the accepted attempt's witness, so a
caller that needs it does not check the set again, and builds the set on
its grid (``PointSet(coords, scale, labels)``).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import groupby
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .circular import Direction, Halfperiod, block_roles, build_halfperiod, gap_sample
from .errors import GeneralPositionError, LabelingError
from .geometry import CLASS_NAMES, DRAWS_PER_POINT, GeneralPositionDraw, PointSet

GENERATOR_SHAPES = ("triangle-clusters", "near-optimal-template")

_GENERATOR_ATTEMPTS = 256

#: Triangle-cluster offsets are multiples of 1/_GRID in [-1, 1]^2.
_GRID = 64

#: Fixed, arbitrary non-degenerate template triangle for the generator, in
#: tenths: (0, 0), (1, 0) and (1/2, 9/10).
_CLUSTER_CENTERS = ((0, 0), (10, 0), (5, 9))

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


def _block_orders(mode: str) -> tuple[str, ...]:
    if mode not in _BLOCK_ORDERS:
        raise ValueError(f"mode must be 'three' or 'two', got {mode!r}")
    return _BLOCK_ORDERS[mode]


def _splits(labels: Sequence[str], orders: Iterable[Sequence[str]]) -> list[Split]:
    """For each block order, the split putting class ``order[t]`` in third t."""
    return [tuple(order.index(c) for c in labels) for order in orders]


def _splits_along(h: Halfperiod) -> Iterator[tuple[int, Split]]:
    """Walk the splits into thirds of ``h``, n = 3s: yield -1 and the split
    of ``initial_permutation``, then, after each swap k at site s or 2s
    (the ones that move a point between thirds), k and the split it
    leaves."""
    s = h.n // 3
    third = [0] * h.n
    for site, p in enumerate(h.initial_permutation):
        third[p] = site // s
    yield -1, tuple(third)
    for k, site in enumerate(h.sites):
        if not site % s:
            i, j = h.firsts[k], h.seconds[k]
            third[i], third[j] = third[j], third[i]
            yield k, tuple(third)


def _read_splits(ps: PointSet, wanted: Collection[Split] = ()) -> dict[Split, int]:
    """Map each split into thirds that one sweep reads to the first gap
    realizing it.  The sweep (``build_halfperiod(ps)``) starts at the first
    gap's sample (``default_start_direction``) and meets classes 1, 2, ...
    in turn; class g opens gap g, and the last class met, 0, closes the
    halfperiod.  Stops once every split in ``wanted`` is mapped, and with
    none wanted reads the whole halfperiod."""
    r, starts = build_halfperiod(ps), ps.classes.starts
    cut, final = starts[r.first], (r.first or len(ps.classes)) - 1
    steps, pairs = _splits_along(r), len(r.sites)
    first = {next(steps)[1]: 0}
    missing = set(wanted).difference(first)  # the wanted splits not yet mapped
    for g, moved in groupby(steps, lambda step: bisect_right(starts, (step[0] + cut) % pairs) - 1):
        if g == final:
            break
        *_, (_, split) = moved  # the split left after class g
        first.setdefault(split, g)
        if wanted:
            missing.discard(split)
            if not missing:
                break
    return first


def _witness(
    ps: PointSet, part: tuple[str, ...], wanted: list[Split], first: dict[Split, int]
) -> DecompositionWitness | None:
    """The witness of ``part``: each wanted split's gap sample
    (``gap_sample``) from the map ``_read_splits`` built, else the negated
    sample of its reversal (third t becomes 2 - t); None if some split has
    neither.  Only the splits a witness returns become directions."""
    found: list[tuple[int, int]] = []  # (sign, gap) of each wanted split
    for split in wanted:
        if split in first:
            found.append((1, first[split]))
        elif (rev := tuple(2 - t for t in split)) in first:
            found.append((-1, first[rev]))
        else:
            return None
    directions: list[Direction] = []
    for sign, g in found:
        x, y = gap_sample(ps.classes, g)
        directions.append((sign * x, sign * y))
    l3 = directions[2] if len(directions) == 3 else None
    return DecompositionWitness(part, (directions[0], directions[1], l3))


def check_partition(ps: PointSet, mode: str = "three") -> DecompositionWitness | None:
    """Search for witness directions making the labels of ``ps`` a
    3-decomposition; raises ``LabelingError`` on an unlabeled set.
    ``mode='three'`` (default) requires the block orders a,b,c / b,a,c /
    b,c,a; ``mode='two'`` requires only the first two.

    Each block order is a split into thirds, looked up in the splits one
    sweep reads (``_read_splits``, stopped once all are read): its witness
    is the first realizing direction among the gap samples
    (``gap_samples``), else the first among their negations.
    """
    orders = _block_orders(mode)
    part = ps.labels
    if part is None:
        raise LabelingError("check_partition needs a labeled point set")
    wanted = _splits(part, orders)
    return _witness(ps, part, wanted, _read_splits(ps, wanted))


def find_partition(ps: PointSet, mode: str = "three") -> DecompositionWitness | None:
    """Exhaustively search for a 3-decomposition of an (unlabeled) set.

    The a,b,c split of any 3-decomposition, or its reversal, is read by one
    sweep, so the splits read and their reversals, thirds 0, 1, 2 named
    a, b, c, are every candidate partition.  Each, in the order read, is
    decided by looking up its splits in the map of that one sweep, as
    ``check_partition`` would on the set under that partition.  Returns the
    first witness found, or None.
    """
    orders = _block_orders(mode)
    if ps.n % 3 or ps.n < 3:
        raise LabelingError(f"3-decomposition needs n divisible by 3, got n = {ps.n}")
    first = _read_splits(ps)
    for split in first:
        for names in (CLASS_NAMES, CLASS_NAMES[::-1]):
            part = tuple(names[t] for t in split)
            witness = _witness(ps, part, _splits(part, orders), first)
            if witness is not None:
                return witness
    return None


def check_halfperiod(h: Halfperiod) -> tuple[int, int] | None:
    """Locate the decomposition witnesses inside a halfperiod, under its
    labels; raises ``LabelingError`` on an unlabeled one.

    The initial permutation must consist of three pure class blocks
    (x, y, z); the function then scans for the earliest index s whose
    permutation reads y,x,z in blocks and the earliest t > s reading y,z,x.
    Returns (s, t) (0-based permutation indices) or None.  Only the splits
    ``_splits_along`` walks are read, and no swap as a ``Swap``.
    """
    labels = h.labels
    if labels is None:
        raise LabelingError("check_halfperiod needs a labeled halfperiod")
    roles = block_roles(h.initial_permutation, labels)
    if roles is None:
        return None
    x, y, z = roles
    targets = _splits(labels, ((y, x, z), (y, z, x)))
    found: list[int] = []
    for k, split in _splits_along(h):
        if split == targets[len(found)]:
            found.append(k + 1)
            if len(found) == 2:
                return found[0], found[1]
    return None


def locate_halfperiod_witness(
    ps: PointSet, witness: DecompositionWitness
) -> DecompositionWitness:
    """Attach the halfperiod indices (s, t) to a witness: ``check_halfperiod``
    on the halfperiod from the first witness direction of ``ps`` under the
    witness's partition (one run of the swap loop; the kept default-start
    halfperiod is left as it was), whose initial permutation is then the
    three class blocks.  ``ps`` may be unlabeled, as ``find_partition``
    searched it."""
    h = build_halfperiod(ps.with_labels(witness.partition), witness.directions[0])
    return witness._replace(halfperiod_indices=check_halfperiod(h))


def generate_with_witness(
    n: int, seed: int = 0, shape: str = "triangle-clusters"
) -> tuple[PointSet, DecompositionWitness]:
    """Deterministically generate a labeled 3-decomposable set of n points,
    with the witness that accepted it.

    n/3 points are jittered inside a disk of radius r at each vertex of the
    template triangle, each an integer point over the attempt's one
    denominator d > 0, redrawn until ``GeneralPositionDraw`` keeps it (it
    repeats no point and is collinear with no two drawn before it); triangle
    clusters are then sorted by offset, as integers.  The kept points over d
    are the set's grid (``PointSet(points, d, labels)``), with no
    ``Fraction``.  r is halved and the set drawn again, from the next
    substream of the seed, until it passes ``check_partition`` in
    three-condition mode, whose witness is returned with the set.  Raises
    ``LabelingError`` for an n that is not a positive multiple of 3, and
    ``GeneralPositionError`` when a point is not kept within
    ``DRAWS_PER_POINT`` draws or no attempt succeeds.
    """
    if n < 3 or n % 3 != 0:
        raise LabelingError(f"n must be a positive multiple of 3, got {n}")
    if shape not in GENERATOR_SHAPES:
        raise ValueError(f"shape must be one of {GENERATOR_SHAPES}, got {shape!r}")
    per_cluster, grid = n // 3, _GRID
    triangle = shape == "triangle-clusters"
    # Candidates are integers over d = 10 * r * scale: centres in tenths, radius
    # 1/r, offsets in 1/scale (k/64; template t = (i+1)/(n/3+1), jitter k/512).
    scale = grid if triangle else grid * 8 * (per_cluster + 1)
    gx, gy = (sum(axis) // 3 for axis in zip(*_CLUSTER_CENTERS))  # (5, 3), exactly
    labels = [c for c in CLASS_NAMES for _ in range(per_cluster)]
    for attempt in range(_GENERATOR_ATTEMPTS):
        rng = random.Random(1_000_003 * seed + 7919 * attempt + n)
        r = 8 << attempt
        draw, points = GeneralPositionDraw(), []
        for cx, cy in _CLUSTER_CENTERS:
            bx, by, dx, dy = cx * r * scale, cy * r * scale, gx - cx, gy - cy
            for i in range(per_cluster):
                sx, sy = bx + grid * 8 * (i + 1) * dx, by + grid * 8 * (i + 1) * dy
                for _ in range(DRAWS_PER_POINT):
                    if triangle:
                        p = (bx + 10 * rng.randint(-grid, grid), by + 10 * rng.randint(-grid, grid))
                    else:  # along the spoke to the centroid, jittered across it,
                        # echoing the elongated clusters of the best known drawings
                        jitter = rng.randint(-grid, grid) * (per_cluster + 1)
                        p = (sx - jitter * dy, sy + jitter * dx)
                    if draw.offer(p):
                        break
                else:
                    raise GeneralPositionError(f"generator gave up on n={n}, seed={seed}: no point "
                                               f"in general position in {DRAWS_PER_POINT} draws")
            cluster = draw.points[len(points) :]
            points += sorted(cluster) if triangle else cluster
        ps = PointSet(points, 10 * r * scale, labels)
        witness = check_partition(ps)
        if witness is not None:
            return ps, witness
    raise GeneralPositionError(
        f"generator gave up on n={n}, seed={seed} after {_GENERATOR_ATTEMPTS} attempts"
    )


def generate(n: int, seed: int = 0, shape: str = "triangle-clusters") -> PointSet:
    """The set ``generate_with_witness`` returns, without its witness."""
    return generate_with_witness(n, seed, shape)[0]
