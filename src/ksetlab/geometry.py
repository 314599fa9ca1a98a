"""Exact planar geometry over rational coordinates.

Everything counted downstream (crossing numbers, k-set counts, transposition
classes) reduces to sign tests on rational cross products, so no floating
point enters any counted quantity.  Points hold ``fractions.Fraction``
coordinates; the kernel reads ``PointSet.coords``, the same points scaled
once by the least common multiple of all denominators to plain integers.  A
uniform positive scaling keeps every orientation sign, projection order and
critical direction, so nothing read off the integers changes.

The pairs live in flat columns (``Classes``, built once per point set by
``group_pairs``): their endpoints in two arrays, counterclockwise by
critical direction, and the start of each class in a third.

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
from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import accumulate, combinations, count, filterfalse, repeat
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .errors import GeneralPositionError, LabelingError, OracleSizeError

DEFAULT_ORACLE_CAP = 15

CLASS_NAMES = ("a", "b", "c")

Direction = tuple[int, int]
Pairs = tuple[tuple[int, int], ...]


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x: Fraction | int | str, y: Fraction | int | str) -> "Point":
        return cls(Fraction(x), Fraction(y))


class Frozen:
    """A record with read-only fields, named in ``_fields``, that keeps its
    ``cached_property`` values in its ``__dict__``: equal to a record of
    the same class with equal fields, hashed by its fields, and shown as
    ``Name(field=value, ...)``."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(shown)})"


class PointSet(Frozen):
    """An ordered planar configuration, optionally labeled into three
    equal-size classes 'a', 'b', 'c'.

    Labels, when present, must split the points into thirds; this is checked
    at construction (``normalize_labels``).  General position is *not*
    checked here: it falls out of grouping the pairs by critical direction
    (``group_pairs``), which the operations that need it do.

    ``coords``, ``classes`` and ``replay`` are computed at most once per
    instance and kept on it; ``with_labels`` hands them to the relabeled
    set, since labels change none of them (the replay's columns are shared
    under the new labels).
    """

    _fields = ("points", "labels")
    points: tuple[Point, ...]
    labels: tuple[str, ...] | None

    def __init__(
        self, points: Iterable[Point], labels: Iterable[str] | None = None
    ) -> None:
        points = tuple(points)
        if labels is not None:
            labels = normalize_labels(labels, len(points))
        self.__dict__.update(points=points, labels=labels)

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
        out = PointSet(self.points, labels)
        for name in ("coords", "classes"):
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        if "replay" in self.__dict__:
            out.__dict__["replay"] = self.replay.with_labels(out.labels)
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
    def classes(self) -> "Classes":
        """The pairs grouped by critical direction, counterclockwise
        (``group_pairs``; raises ``GeneralPositionError`` if degenerate)."""
        return group_pairs(self)

    @cached_property
    def replay(self):
        """The default-start ``Halfperiod``, replayed once (``circular.replay``)."""
        from .circular import default_start_direction, replay
        return replay(self, default_start_direction(self))


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
    return (d > 0) - (d < 0)


def cross(u: Direction, v: Direction) -> int:
    return u[0] * v[1] - u[1] * v[0]


class Classes:
    """The ``C(n,2)`` pairs grouped by critical direction, in flat columns:
    the k-th pair counterclockwise joins points ``a[k]`` and ``b[k]``, b to
    the right of a or straight below it, so that its critical direction,
    ``b - a`` turned by 90 degrees, lies in the upper half plane.  Class g
    is pairs ``starts[g]`` to ``starts[g + 1] - 1``, and ``multi`` lists the
    classes of more than one pair.  ``classes[g]`` is class g as its
    primitive direction and its sorted pairs ``(i, j)``, ``i < j``."""

    # Columns of up to millions of entries: compared by identity, not shown.
    __slots__ = ("xy", "a", "b", "starts", "multi")

    def __init__(
        self,
        xy: tuple[tuple[int, int], ...],
        a: array,
        b: array,
        starts: array,
        multi: tuple[int, ...],
    ) -> None:
        self.xy, self.a, self.b, self.starts, self.multi = xy, a, b, starts, multi

    def __len__(self) -> int:
        return len(self.starts) - 1

    def direction(self, g: int) -> Direction:
        k = self.starts[g]
        (xa, ya), (xb, yb) = self.xy[self.a[k]], self.xy[self.b[k]]
        d = math.gcd(xb - xa, yb - ya)
        return (ya - yb) // d, (xb - xa) // d

    def __getitem__(self, g: int) -> tuple[Direction, Pairs]:
        span = slice(self.starts[g], self.starts[g + 1])
        a, b = self.a[span], self.b[span]
        return self.direction(g), tuple(sorted(zip(map(min, a, b), map(max, a, b))))


def group_pairs(ps: PointSet) -> Classes:
    """The pairs of ``ps`` grouped by critical direction (``Classes``), off
    the integer coordinates: presorted by the float angle of ``b - a``, then
    checked, and grouped, by one exact pass (``_classes_in_order``), and
    sorted exactly only if that order is wrong.  Floating point only orders.
    Also the general-position test: raises ``GeneralPositionError`` on
    coincident points or a collinear triple (two pairs of one class that
    share a point).
    """
    xy = ps.coords
    n = len(xy)
    if len(set(xy)) < n:
        i = next(i for i, p in enumerate(xy) if p in xy[i + 1 :])
        raise GeneralPositionError(f"points {i} and {xy.index(xy[i], i + 1)} coincide")
    # Ranked left to right, downwards on a vertical: between ranks r < s,
    # b - a points right or straight down, at an angle in [-90, 90).
    rank = sorted(range(n), key=lambda p: (xy[p][0], -xy[p][1]))
    xs, ys = [xy[p][0] for p in rank], [xy[p][1] for p in rank]
    code = "H" if n <= 1 << 16 else "I"
    a, b, angle = array(code), array(code), []
    for r in range(n - 1):
        a += array(code, [rank[r]]) * (n - 1 - r)
        b.fromlist(rank[r + 1 :])
    try:
        for r in range(n - 1):
            dy = map(sub, ys[r + 1 :], repeat(ys[r]))
            angle += map(math.atan2, dy, map(sub, xs[r + 1 :], repeat(xs[r])))
    except OverflowError:  # a coordinate beyond the float range
        angle = [0.0] * len(a)
    order = sorted(range(len(a)), key=angle.__getitem__)
    del angle
    found = _classes_in_order(xy, a, b, order)
    if found is None:

        def turn(k: int, q: int) -> int:
            (xa, ya), (xb, yb), (xc, yc), (xd, yd) = xy[a[k]], xy[b[k]], xy[a[q]], xy[b[q]]
            return (yb - ya) * (xd - xc) - (xb - xa) * (yd - yc)

        order.sort(key=cmp_to_key(turn))
        found = _classes_in_order(xy, a, b, order)
    return found  # type: ignore[return-value]


def _classes_in_order(
    xy: tuple[tuple[int, int], ...], a: array, b: array, order: list[int]
) -> Classes | None:
    """The pairs ``a[k], b[k]`` taken in ``order`` as ``Classes``, or None
    unless each pair's ``b - a`` turns counterclockwise from the one before
    it or parallels it.  One pass, in exact integers."""
    a, b = (array(c.typecode, map(c.__getitem__, order)) for c in (a, b))
    xs, ys = [x for x, _ in xy], [y for _, y in xy]
    joins: list[int] = []  # the pairs parallel to the one before them
    px = py = 0
    for k, i, j in zip(count(), a, b):
        dx, dy = xs[j] - xs[i], ys[j] - ys[i]
        turn = px * dy - py * dx
        if turn <= 0 and k:
            if turn:
                return None
            joins.append(k)
        px, py = dx, dy
    starts = array("I", filterfalse(set(joins).__contains__, range(len(a) + 1)))
    multi = sorted({bisect_right(starts, k) - 1 for k in joins})
    for g in multi:
        ends = a[starts[g] : starts[g + 1]] + b[starts[g] : starts[g + 1]]
        if len(set(ends)) < len(ends):
            raise GeneralPositionError("point set has a collinear triple")
    return Classes(xy, a, b, starts, tuple(multi))


def is_general_position(ps: PointSet) -> bool:
    """True iff all points are distinct and no triple is collinear."""
    try:
        ps.classes
    except GeneralPositionError:
        return False
    return True


#: The draws spent on one point before a caller of ``GeneralPositionDraw``
#: gives up.
DRAWS_PER_POINT = 1000


class GeneralPositionDraw:
    """Points kept one at a time in general position: ``offer(p)`` keeps p,
    a pair of rationals (a ``Point``, or integers), and returns True unless
    p repeats a kept point or is collinear with two; ``points`` lists the
    kept points in order.  Each kept point q is held as integers (X, Y, D),
    its coordinates times the lcm D of their denominators, with the
    primitive directions, signed to point right or straight up, from q to
    the points kept after it; p is collinear with q and one of them exactly
    when its direction from q is already there."""

    def __init__(self) -> None:
        self.points: list = []
        self._held: list[tuple[int, int, int, set[Direction]]] = []

    def offer(self, p: Sequence[Fraction | int]) -> bool:
        x, y = p
        d = math.lcm(x.denominator, y.denominator)
        px, py = x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)
        found = []
        for qx, qy, qd, held in self._held:
            dx, dy = px * qd - qx * d, py * qd - qy * d
            g = math.gcd(dx, dy)
            if not g:
                return False  # p repeats q
            if dx < 0 or not dx and dy < 0:
                g = -g
            u = (dx // g, dy // g)
            if u in held:
                return False  # p, q and a point kept after q are collinear
            found.append(u)
        for (_, _, _, held), u in zip(self._held, found):
            held.add(u)
        self.points.append(p)
        self._held.append((px, py, d, set()))
        return True


def _in_triangle(a: Point, b: Point, c: Point, p: Point) -> bool:
    # Strict containment; inputs are in general position so no zeros occur.
    return orientation(a, b, p) == orientation(b, c, p) == orientation(c, a, p)


def crossing_number(ps: PointSet) -> int:
    """Number of crossings in the straight-line drawing of the complete
    graph on ``ps``: the count of 4-subsets in convex position.
    """
    ps.classes  # raises GeneralPositionError
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


class KSetVector(NamedTuple):
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
        e = dict(sorted(e.items()))
        return cls(n, e, dict(zip(e, accumulate(e.values()))))


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
    ps.classes  # raises GeneralPositionError
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
