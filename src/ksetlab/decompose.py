"""Deciding and generating 3-decomposable point sets.

A labeled point set (equal classes a, b, c) is 3-decomposable when three
directed lines realize the block projection orders a,b,c / b,a,c / b,c,a.
Block order is constant on each angular gap between consecutive critical
directions, so the projection orders of the circular sequence decide it
exactly, with no floating point and no randomness.  ``check_partition``
replays one halfperiod, started inside the first gap, and keeps a label
count for each third of the permutation (``circular.Thirds``, kept next to
the sweep whose swaps it follows); only a swap at site s or 2s (s = n/3)
moves a point between thirds.  After each class of simultaneous flips the
permutation is the order along the sample direction of the gap that class
opens, and its reversal the order along the negated sample, so each wanted
block order is read off with its first realizing direction.
The direction-sampling check it replaces (project every point along each
sample direction and its negation) is kept as a test oracle.

An unlabeled set is decided exhaustively: the block order a,b,c forces the
three classes to appear as contiguous thirds of some permutation of the
full circular sequence, so the contiguous-thirds partitions of the
halfperiod's permutations and their reversals enumerate every candidate.
They change only at a swap at site s or 2s, so there are at most
2 (1 + that many swaps) of them.

The halfperiod indices (s, t) of a witness come from the same counters:
``locate_halfperiod_witness`` replays the halfperiod started at l1, whose
initial permutation is the three class blocks, and stops at the first
y,z,x pattern after the first y,x,z one; ``check_halfperiod`` runs the
same scan over a recorded ``Halfperiod``.

The generator places n/3 points in a small disk at each vertex of a fixed
triangle; as the disk radius shrinks the projection orders converge to the
three-point orders, which realize all six block patterns, so halving the
radius until the checker passes always terminates.
``generate_with_witness`` hands back the accepted attempt's witness, so a
caller that needs it does not check the set again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .circular import (
    Direction,
    Halfperiod,
    Swap,
    Thirds,
    default_start_direction,
    gap_samples,
    sweep,
)
from .errors import GeneralPositionError, LabelingError
from .geometry import CLASS_NAMES, Point, PointSet, is_general_position
from .geometry import normalize_labels

GENERATOR_SHAPES = ("triangle-clusters", "near-optimal-template")

_GENERATOR_ATTEMPTS = 256

# Fixed, arbitrary non-degenerate template triangle for the generator.
_CLUSTER_CENTERS = (
    Point(Fraction(0), Fraction(0)),
    Point(Fraction(1), Fraction(0)),
    Point(Fraction(1, 2), Fraction(9, 10)),
)


@dataclass(frozen=True)
class DecompositionWitness:
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


def check_partition(
    ps: PointSet,
    labels: Iterable[str] | None = None,
    mode: str = "three",
) -> DecompositionWitness | None:
    """Search for witness directions making the given partition a
    3-decomposition.  ``mode='three'`` (default) requires the block orders
    a,b,c / b,a,c / b,c,a; ``mode='two'`` requires only the first two.

    Each witness is the first realizing direction among the gap samples
    (``gap_samples``), else the first among their negations.
    """
    if mode not in ("three", "two"):
        raise ValueError(f"mode must be 'three' or 'two', got {mode!r}")
    part = _normalize_partition(ps, labels)
    wanted: list[tuple[str, ...]] = [("a", "b", "c"), ("b", "a", "c")]
    if mode == "three":
        wanted.append(("b", "c", "a"))
    samples = gap_samples(ps.classes)
    # Started inside gap 0 (``default_start_direction``), the sweep meets
    # classes 1, 2, ... in turn, and class g opens gap g.  Pattern -> first
    # gap reading it.
    initial, flips = sweep(ps, samples[0])
    thirds = Thirds(initial, part)
    first = {thirds.pattern(): 0}
    for g, swaps in zip(range(1, len(samples)), flips):
        moved = False
        for swap in swaps:
            moved |= thirds.swap(*swap)
        if moved:
            first.setdefault(thirds.pattern(), g)
            if all(w in first for w in wanted):
                break
    found: list[Direction] = []
    for w in wanted:
        if w in first:
            found.append(samples[first[w]])
        elif w[::-1] in first:
            u = samples[first[w[::-1]]]
            found.append((-u[0], -u[1]))
        else:
            return None
    l3 = found[2] if mode == "three" else None
    return DecompositionWitness(part, (found[0], found[1], l3))


def find_partition(ps: PointSet, mode: str = "three") -> DecompositionWitness | None:
    """Exhaustively search for a 3-decomposition of an (unlabeled) set.

    The block order a,b,c must hold in some permutation of the circular
    sequence, so the contiguous-thirds assignments of all halfperiod
    permutations and their reversals cover every possible partition.  They
    change only at a swap at site s or 2s, so a candidate is proposed for
    the initial permutation and after each such swap, each with its
    reversal; each new candidate is handed to ``check_partition``.  Returns
    the first witness found, or None after exhausting all candidates.
    """
    n = ps.n
    if n % 3 != 0 or n < 3:
        raise LabelingError(f"3-decomposition needs n divisible by 3, got n = {n}")
    initial, flips = sweep(ps, default_start_direction(ps))
    thirds = Thirds(initial)
    seen: set[tuple[str, ...]] = set()
    for swap in chain([None], chain.from_iterable(flips)):
        if swap is not None and not thirds.swap(*swap):
            continue
        for names in (CLASS_NAMES, CLASS_NAMES[::-1]):
            key = tuple(names[t] for t in thirds.third)
            if key in seen:
                continue
            seen.add(key)
            witness = check_partition(ps, key, mode=mode)
            if witness is not None:
                return witness
    return None


def _block_pattern_indices(
    initial: Sequence[int], swaps: Iterable[Swap], labels: Sequence[str]
) -> tuple[int, int] | None:
    """Scan a swap replay for the halfperiod witnesses: ``initial`` must be
    three pure class blocks (x, y, z); return the 1-based index s of the
    first swap after which the permutation reads y,x,z in blocks and the
    first t > s after which it reads y,z,x, or None.  The block pattern
    changes only when a point changes thirds."""
    if len(initial) % 3:
        return None
    thirds = Thirds(initial, labels)
    roles = thirds.blocks()
    if roles is None:
        return None
    x, y, z = roles
    s_idx: int | None = None
    for idx, swap in enumerate(swaps, 1):
        if not thirds.swap(*swap):
            continue
        pat = thirds.pattern()
        if s_idx is None:
            if pat == (y, x, z):
                s_idx = idx
        elif pat == (y, z, x):
            return (s_idx, idx)
    return None


def check_halfperiod(
    h: Halfperiod, labels: Iterable[str] | None = None
) -> tuple[int, int] | None:
    """Locate the decomposition witnesses inside a halfperiod.

    The initial permutation must consist of three pure class blocks
    (x, y, z); the function then scans for the earliest index s whose
    permutation reads y,x,z in blocks and the earliest t > s reading y,z,x.
    Returns (s, t) (0-based permutation indices) or None.  Given labels
    are checked as a ``PointSet`` checks its own (``LabelingError``).
    """
    return _block_pattern_indices(
        h.initial_permutation, h.swaps, _normalize_partition(h, labels)
    )


def locate_halfperiod_witness(
    ps: PointSet, witness: DecompositionWitness
) -> DecompositionWitness:
    """Attach the halfperiod indices (s, t) to a witness: replay the
    halfperiod from the first witness direction (whose initial permutation
    is then the three class blocks) and scan it for the b,a,c and b,c,a
    permutations, as ``check_halfperiod`` does on the recorded halfperiod.
    No swap is recorded and the replay stops at t."""
    initial, flips = sweep(ps, witness.directions[0])
    indices = _block_pattern_indices(
        initial, chain.from_iterable(flips), witness.partition
    )
    return replace(witness, halfperiod_indices=indices)


def _draw_cluster_offsets(
    rng: random.Random, count: int, shape: str, center_idx: int
) -> list[tuple[Fraction, Fraction]]:
    grid = 64
    offsets: set[tuple[Fraction, Fraction]] = set()
    if shape == "triangle-clusters":
        while len(offsets) < count:
            offsets.add(
                (
                    Fraction(rng.randint(-grid, grid), grid),
                    Fraction(rng.randint(-grid, grid), grid),
                )
            )
        return sorted(offsets)
    # near-optimal-template: points strung along the spoke toward the
    # centroid with a small perpendicular jitter, echoing the elongated
    # clusters of the best known drawings.
    center = _CLUSTER_CENTERS[center_idx]
    gx = sum(c.x for c in _CLUSTER_CENTERS) / 3
    gy = sum(c.y for c in _CLUSTER_CENTERS) / 3
    dx, dy = gx - center.x, gy - center.y
    out: list[tuple[Fraction, Fraction]] = []
    taken: set[tuple[Fraction, Fraction]] = set()
    while len(out) < count:
        t = Fraction(len(out) + 1, count + 1)
        jitter = Fraction(rng.randint(-grid, grid), grid * 8)
        off = (t * dx - jitter * dy, t * dy + jitter * dx)
        if off not in taken:
            taken.add(off)
            out.append(off)
    return out


def generate_with_witness(
    n: int, seed: int = 0, shape: str = "triangle-clusters"
) -> tuple[PointSet, DecompositionWitness]:
    """Deterministically generate a labeled 3-decomposable set of n points,
    with the witness that accepted it.

    n/3 points are jittered inside a disk of radius r at each vertex of the
    template triangle; r is halved and the set re-verified until it passes
    ``check_partition`` in three-condition mode, whose witness is returned
    with the set.  General-position failures (possible at any radius, since
    within-cluster collinearity is scale invariant) trigger a redraw from
    the next substream of the seed.  Raises ``LabelingError`` for an n
    that is not a positive multiple of 3 and ``GeneralPositionError`` when
    no attempt succeeds.
    """
    if n < 3 or n % 3 != 0:
        raise LabelingError(f"n must be a positive multiple of 3, got {n}")
    if shape not in GENERATOR_SHAPES:
        raise ValueError(f"shape must be one of {GENERATOR_SHAPES}, got {shape!r}")
    per_cluster = n // 3
    radius = Fraction(1, 8)
    for attempt in range(_GENERATOR_ATTEMPTS):
        rng = random.Random(1_000_003 * seed + 7919 * attempt + n)
        points: list[Point] = []
        labels: list[str] = []
        for c, center in enumerate(_CLUSTER_CENTERS):
            for ox, oy in _draw_cluster_offsets(rng, per_cluster, shape, c):
                points.append(Point(center.x + radius * ox, center.y + radius * oy))
                labels.append(CLASS_NAMES[c])
        ps = PointSet(tuple(points), tuple(labels))
        if not is_general_position(ps):
            continue
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
