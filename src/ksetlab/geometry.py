"""Exact planar geometry over rational coordinates.

Everything counted downstream (crossing numbers, k-set counts, transposition
classes) reduces to sign tests on rational cross products, so no floating
point enters any counted quantity.  Points hold ``fractions.Fraction``
coordinates; the kernel reads ``PointSet.coords``, the same points scaled
once by the least common multiple of all denominators to plain integers.  A
uniform positive scaling keeps every orientation sign, projection order and
critical direction, so nothing read off the integers changes.

The two counting routines here are deliberately brute force; they act as the
ground truth that the faster circular-sequence machinery is validated
against:

* ``crossing_number`` enumerates all 4-subsets and counts those in convex
  position (each contributes exactly one crossing to the straight-line
  drawing of the complete graph).
* ``k_set_oracle`` enumerates the ``2 * C(n,2)`` directed lines through two
  points.  For the directed line p -> q the cut-off subset is
  ``{points strictly left of pq} + {p}`` (the standard perturbation rule:
  tilt around p, then nudge the line so p falls strictly inside).  Every
  subset separable by some line arises this way, so deduplicating and
  bucketing by size yields the exact k-set counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations
from typing import Iterable, Sequence

from .errors import GeneralPositionError, LabelingError, OracleSizeError

DEFAULT_ORACLE_CAP = 15

CLASS_NAMES = ("a", "b", "c")

Direction = tuple[int, int]
Pairs = tuple[tuple[int, int], ...]
Classes = list[tuple[Direction, Pairs]]


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x: Fraction | int | str, y: Fraction | int | str) -> "Point":
        return cls(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class PointSet:
    """An ordered planar configuration, optionally labeled into three
    equal-size classes 'a', 'b', 'c'.

    Labels, when present, must split the points into thirds; this is checked
    at construction (``normalize_labels``).  General position is *not*
    checked here: it falls out of grouping the pairs by critical direction
    (``critical_direction_pairs``), which the operations that need it do.

    ``coords`` and ``classes`` are computed at most once per instance and
    kept on it; ``with_labels`` hands them to the relabeled set, since
    labels change neither.
    """

    points: tuple[Point, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if self.labels is not None:
            object.__setattr__(self, "labels", normalize_labels(self.labels, self.n))

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def from_coords(
        cls,
        coords: Iterable[Sequence[Fraction | int | str]],
        labels: Iterable[str] | None = None,
    ) -> "PointSet":
        pts = tuple(Point.of(x, y) for x, y in coords)
        return cls(pts, tuple(labels) if labels is not None else None)

    def with_labels(self, labels: Iterable[str] | None) -> "PointSet":
        out = PointSet(self.points, tuple(labels) if labels is not None else None)
        for name in _LABEL_FREE:
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    @cached_property
    def coords(self) -> tuple[tuple[int, int], ...]:
        """The points scaled by one positive integer, the least common
        multiple of all denominators, to integer coordinates."""
        pts = self.points
        m = math.lcm(*(p.x.denominator for p in pts), *(p.y.denominator for p in pts))
        return tuple(
            (p.x.numerator * (m // p.x.denominator), p.y.numerator * (m // p.y.denominator))
            for p in pts
        )

    @cached_property
    def classes(self) -> Classes:
        """The pairs grouped by critical direction (``critical_direction_pairs``,
        which raises ``GeneralPositionError`` on a degenerate set), sorted
        counterclockwise within the upper half plane."""
        classes = list(critical_direction_pairs(self).items())
        try:
            # By angle in floating point.  Only near-ties can come out in the
            # wrong order, so one exact pass checks that each class turns
            # counterclockwise to the next, and the exact sort below runs
            # only if one does not.
            classes.sort(key=lambda c: math.atan2(c[0][1], c[0][0]))
        except OverflowError:  # a direction beyond the float range
            pass
        else:
            if all(
                a[0] * b[1] > a[1] * b[0]
                for (a, _), (b, _) in zip(classes, classes[1:])
            ):
                return classes
        classes.sort(key=cmp_to_key(lambda a, b: -cross(a[0], b[0])))
        return classes


#: The cached properties of a ``PointSet`` that do not depend on its labels.
_LABEL_FREE = ("coords", "classes")


def normalize_labels(labels: Iterable[str], n: int) -> tuple[str, ...]:
    """The class labels of n points, lower-cased.  Raises ``LabelingError``
    unless each point has one of 'a', 'b', 'c' and each class holds n/3
    points."""
    labels = tuple(str(c).lower() for c in labels)
    if len(labels) != n:
        raise LabelingError("labels must match the number of points")
    if any(c not in CLASS_NAMES for c in labels):
        raise LabelingError("labels must be 'a', 'b' or 'c'")
    if n % 3 != 0:
        raise LabelingError("labeled sets need n divisible by 3")
    for c in CLASS_NAMES:
        if labels.count(c) != n // 3:
            raise LabelingError(f"class {c!r} must have n/3 members")
    return labels


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p).

    +1 for a counterclockwise turn, -1 for clockwise, 0 for collinear.
    """
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def cross(u: Direction, v: Direction) -> int:
    return u[0] * v[1] - u[1] * v[0]


def critical_direction_pairs(ps: PointSet) -> dict[Direction, Pairs]:
    """The index pairs ``(i, j)``, ``i < j``, grouped by critical direction:
    the 90-degree rotation of the pair's difference vector, along which the
    pair projects to one value, as a primitive integer vector in the upper
    half plane.  Read off the integer coordinates (``PointSet.coords``).

    This is also the general-position test; it raises ``GeneralPositionError``
    on coincident points or a collinear triple.  Three collinear points put
    two pairs sharing a point into one class, and two such pairs are three
    collinear points.
    """
    xy = ps.coords
    gcd = math.gcd
    classes: dict[Direction, Pairs] = {}
    for i, (xi, yi) in enumerate(xy):
        for j in range(i + 1, len(xy)):
            xj, yj = xy[j]
            dx, dy = xj - xi, yj - yi
            if not dx and not dy:
                raise GeneralPositionError(f"points {i} and {j} coincide")
            # (-dy, dx) made primitive and turned into the upper half plane.
            g = gcd(dx, dy)
            if dx > 0 or (dx == 0 and dy < 0):
                w = (-dy // g, dx // g)
            else:
                w = (dy // g, -dx // g)
            # Tuples, not lists: most classes hold one pair, and a tuple of
            # one is the smallest container for it.
            classes[w] = classes.get(w, ()) + ((i, j),)
    for pairs in classes.values():
        if len(pairs) > 1 and len({p for pair in pairs for p in pair}) < 2 * len(pairs):
            raise GeneralPositionError("point set has a collinear triple")
    return classes


def is_general_position(ps: PointSet) -> bool:
    """True iff all points are distinct and no triple is collinear."""
    try:
        ps.classes
    except GeneralPositionError:
        return False
    return True


def require_general_position(ps: PointSet) -> None:
    ps.classes


def _in_triangle(a: Point, b: Point, c: Point, p: Point) -> bool:
    # Strict containment; inputs are in general position so no zeros occur.
    s1 = orientation(a, b, p)
    s2 = orientation(b, c, p)
    s3 = orientation(c, a, p)
    return s1 == s2 == s3


def crossing_number(ps: PointSet) -> int:
    """Number of crossings in the straight-line drawing of the complete
    graph on ``ps``: the count of 4-subsets in convex position.
    """
    require_general_position(ps)
    pts = ps.points
    if len(pts) < 4:
        return 0
    count = 0
    for a, b, c, d in combinations(pts, 4):
        if not (
            _in_triangle(a, b, c, d)
            or _in_triangle(a, b, d, c)
            or _in_triangle(a, c, d, b)
            or _in_triangle(b, c, d, a)
        ):
            count += 1
    return count


@dataclass(frozen=True)
class KSetVector:
    """Counts of k-sets: ``e[k]`` is the number of k-element subsets cut off
    by some line, for 1 <= k <= floor(n/2); ``prefix[k]`` is the running sum
    e_{<=k}."""

    n: int
    e: dict[int, int]
    prefix: dict[int, int]

    @classmethod
    def from_counts(cls, n: int, e: dict[int, int]) -> "KSetVector":
        if any(v < 0 for v in e.values()):
            raise ValueError("k-set counts must be nonnegative")
        prefix: dict[int, int] = {}
        running = 0
        for k in sorted(e):
            running += e[k]
            prefix[k] = running
        return cls(n, dict(sorted(e.items())), prefix)


def k_set_oracle(ps: PointSet, cap: int | None = None) -> KSetVector:
    """Brute-force k-set counts from directed pair-lines.

    Each separable subset is cut off by a line through two points of the
    set, so collecting ``{strictly left of p->q} + {p}`` over all ordered
    pairs and deduplicating yields every separable subset.  Intentionally
    small scale: refuses n above the cap (``DEFAULT_ORACLE_CAP``, 15,
    unless the ``cap`` argument gives another).
    """
    n = ps.n
    limit = DEFAULT_ORACLE_CAP if cap is None else cap
    if n > limit:
        raise OracleSizeError(f"oracle capped at n <= {limit}, got n = {n}")
    require_general_position(ps)
    if n < 2:
        return KSetVector.from_counts(n, {})
    pts = ps.points
    seen: set[frozenset[int]] = set()
    half = n // 2
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cut = {i}
            for t in range(n):
                if t != i and t != j and orientation(pts[i], pts[j], pts[t]) > 0:
                    cut.add(t)
            if len(cut) <= half:
                seen.add(frozenset(cut))
    e = {k: 0 for k in range(1, half + 1)}
    for subset in seen:
        e[len(subset)] += 1
    return KSetVector.from_counts(n, e)
