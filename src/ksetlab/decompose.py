"""Deciding and generating 3-decomposable point sets.

A labeled point set (equal classes a, b, c) is 3-decomposable when three
directed lines realize the block projection orders a,b,c / b,a,c / b,c,a.
Block order is constant on each angular interval between consecutive
critical directions, so checking one exact sample direction per interval
(plus its reverse) decides each condition completely, with no floating
point and no randomness.

An unlabeled set is decided exhaustively: the block order a,b,c forces the
three classes to appear as contiguous thirds of some permutation of the
full circular sequence, so the contiguous-thirds partitions of the
halfperiod's permutations and their reversals enumerate every candidate.

The generator places n/3 points in a small disk at each vertex of a fixed
triangle; as the disk radius shrinks the projection orders converge to the
three-point orders, which realize all six block patterns, so halving the
radius until the checker passes always terminates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .circular import (
    Direction,
    Halfperiod,
    _dot_point,
    block_classes,
    build_halfperiod,
    interval_sample_directions,
)
from .errors import LabelingError
from .geometry import CLASS_NAMES, Point, PointSet, is_general_position

GENERATOR_SHAPES = ("triangle-clusters", "near-optimal-template")

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


def _normalize_partition(ps: PointSet, labels: Iterable[str] | None) -> tuple[str, ...]:
    if labels is None:
        if ps.labels is None:
            raise LabelingError("no partition given and the point set is unlabeled")
        return ps.labels
    # PointSet validates the labels (LabelingError on a malformed partition).
    return ps.with_labels(labels).labels


def _realizes_order(
    ps: PointSet, labels: tuple[str, ...], u: Direction, order: tuple[str, str, str]
) -> bool:
    """True iff along u every point of order[0] projects strictly before
    every point of order[1], which projects strictly before order[2]."""
    lo: dict[str, Fraction] = {}
    hi: dict[str, Fraction] = {}
    for p, c in zip(ps.points, labels):
        v = _dot_point(u, p)
        if c not in lo:
            lo[c] = hi[c] = v
        else:
            lo[c] = min(lo[c], v)
            hi[c] = max(hi[c], v)
    x, y, z = order
    return hi[x] < lo[y] and hi[y] < lo[z]


def check_partition(
    ps: PointSet,
    labels: Iterable[str] | None = None,
    mode: str = "three",
) -> DecompositionWitness | None:
    """Search for witness directions making the given partition a
    3-decomposition.  ``mode='three'`` (default) requires the block orders
    a,b,c / b,a,c / b,c,a; ``mode='two'`` requires only the first two.
    """
    if mode not in ("three", "two"):
        raise ValueError(f"mode must be 'three' or 'two', got {mode!r}")
    part = _normalize_partition(ps, labels)
    samples = interval_sample_directions(ps)
    candidates = samples + [(-u[0], -u[1]) for u in samples]
    wanted: list[tuple[str, str, str]] = [("a", "b", "c"), ("b", "a", "c")]
    if mode == "three":
        wanted.append(("b", "c", "a"))
    found: list[Direction | None] = [None] * len(wanted)
    for u in candidates:
        for idx, order in enumerate(wanted):
            if found[idx] is None and _realizes_order(ps, part, u, order):
                found[idx] = u
        if all(f is not None for f in found):
            break
    if any(f is None for f in found):
        return None
    l1, l2 = found[0], found[1]
    l3 = found[2] if mode == "three" else None
    assert l1 is not None and l2 is not None
    return DecompositionWitness(part, (l1, l2, l3))


def find_partition(ps: PointSet, mode: str = "three") -> DecompositionWitness | None:
    """Exhaustively search for a 3-decomposition of an (unlabeled) set.

    The block order a,b,c must hold in some permutation of the circular
    sequence, so the contiguous-thirds assignments of all halfperiod
    permutations and their reversals cover every possible partition; each
    deduplicated candidate is handed to ``check_partition``.  Returns the
    first witness found, or None after exhausting all candidates.
    """
    n = ps.n
    if n % 3 != 0 or n < 3:
        raise LabelingError("3-decomposition needs n divisible by 3")
    s = n // 3
    h = build_halfperiod(ps.with_labels(None))
    seen: set[tuple[str, ...]] = set()
    for perm in h.permutations():
        for candidate in (perm, tuple(reversed(perm))):
            labels = [""] * n
            for site, point in enumerate(candidate):
                labels[point] = CLASS_NAMES[site // s]
            key = tuple(labels)
            if key in seen:
                continue
            seen.add(key)
            witness = check_partition(ps, key, mode=mode)
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
    Returns (s, t) (0-based permutation indices) or None.
    """
    if labels is not None:
        labels = tuple(str(c).lower() for c in labels)
        h = Halfperiod(
            h.n, h.initial_permutation, h.transpositions, h.direction, labels
        )
    if h.labels is None:
        raise LabelingError("check_halfperiod needs labels")
    roles = block_classes(h)
    if roles is None:
        return None
    x, y, z = roles
    n = h.n
    s_size = n // 3

    def pattern(perm: tuple[int, ...]) -> tuple[str, ...] | None:
        out = []
        for t in range(3):
            block = {h.labels[i] for i in perm[t * s_size : (t + 1) * s_size]}
            if len(block) != 1:
                return None
            out.append(next(iter(block)))
        return tuple(out)

    s_idx: int | None = None
    for idx, perm in enumerate(h.permutations()):
        pat = pattern(perm)
        if pat is None:
            continue
        if s_idx is None:
            if pat == (y, x, z):
                s_idx = idx
        elif pat == (y, z, x):
            return (s_idx, idx)
    return None


def locate_halfperiod_witness(
    ps: PointSet, witness: DecompositionWitness
) -> DecompositionWitness:
    """Attach the halfperiod indices (s, t) to a witness: build the
    halfperiod from the first witness direction (whose initial permutation
    is then the three class blocks) and scan for the b,a,c and b,c,a
    permutations."""
    labeled = ps.with_labels(witness.partition)
    h = build_halfperiod(labeled, witness.directions[0])
    indices = check_halfperiod(h)
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


def generate(n: int, seed: int = 0, shape: str = "triangle-clusters") -> PointSet:
    """Deterministically generate a labeled 3-decomposable set of n points.

    n/3 points are jittered inside a disk of radius r at each vertex of the
    template triangle; r is halved and the set re-verified until it passes
    ``check_partition`` in three-condition mode.  General-position failures
    (possible at any radius, since within-cluster collinearity is scale
    invariant) trigger a redraw from the next substream of the seed.
    """
    if n < 3 or n % 3 != 0:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    if shape not in GENERATOR_SHAPES:
        raise ValueError(f"shape must be one of {GENERATOR_SHAPES}, got {shape!r}")
    per_cluster = n // 3
    radius = Fraction(1, 8)
    for attempt in range(256):
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
        if check_partition(ps) is not None:
            return ps
        radius /= 2
    raise RuntimeError(f"generator failed to converge for n={n}, seed={seed}")
