"""Exact planar geometry over rational coordinates.

Everything counted downstream (crossing numbers, k-set counts, transposition
classes) reduces to sign tests on rational cross products, so no floating
point enters any counted quantity.  A ``PointSet`` holds its points on one
integer grid, ``PointSet.coords``: the points times ``PointSet.scale``, the
least common multiple of all their denominators.  The grid is the set's
identity (with its labels) and every routine here reads it;
``fractions.Fraction`` points (``PointSet.points``) are built from it only
when a caller asks for them.  A uniform positive scaling keeps every
orientation sign, projection order and critical direction, so nothing read
off the integers changes.

The pairs live in flat columns (``Classes``, built once per point set by
``group_pairs``): their endpoints in two arrays, counterclockwise by
critical direction, and the start of each class in a third.  They are
presorted by slope keys (``slope_keys``): ``dy / dx`` as ``int / int``,
which CPython rounds to the nearest float.  Rounding to nearest is
monotone, so two pairs whose keys differ are in exact angular order, and
only runs of equal keys are looked at in exact integers.

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
from itertools import accumulate, chain, combinations, compress, count, islice, repeat
from operator import eq, itemgetter, not_, sub, truediv
from typing import Iterable, NamedTuple, Sequence

from .errors import GeneralPositionError, LabelingError, OracleSizeError

DEFAULT_ORACLE_CAP = 15

CLASS_NAMES = ("a", "b", "c")

Direction = tuple[int, int]
#: A point as any (x, y) pair of exact numbers.
XY = Sequence[Fraction | int]
Pairs = tuple[tuple[int, int], ...]


class Point(NamedTuple):
    x: Fraction
    y: Fraction


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

    The set holds its points on one integer grid: ``coords``, the points
    times ``scale``, the least common multiple of their reduced
    denominators, so no prime divides ``scale`` and every coordinate.
    ``PointSet(coords, scale, labels)`` takes integer points over a
    positive denominator and divides both by their gcd; a file read
    (``io.load_point_set``) and the generators build the grid directly.
    ``from_coords(coords, labels)`` takes rational points and scales them
    by the lcm of their denominators.  That grid is canonical, so it is
    the set's identity: two sets are equal, and hash alike, when their
    ``coords``, ``scale`` and ``labels`` are.  ``points``, the ``Fraction``
    ``Point``s, are a view built from the grid only when asked for; no
    routine of the library reads them.

    Labels, when present, must split the points into thirds; this is checked
    at construction, here alone, and they are kept lower-cased.  General
    position is *not*
    checked here: it falls out of grouping the pairs by critical direction
    (``group_pairs``), which the operations that need it do.

    Every value computed from the grid is computed at most once per
    instance and kept in its ``__dict__``: ``points``, ``classes`` and the
    halfperiod ``circular.build_halfperiod`` keeps.  ``with_labels`` hands
    them all on to the relabeled set: labels change neither the points nor
    the classes, and the kept halfperiod, which carries labels, is
    relabeled by ``build_halfperiod`` on first read.
    """

    _fields = ("coords", "scale", "labels")
    coords: tuple[tuple[int, int], ...]
    scale: int
    labels: tuple[str, ...] | None

    def __init__(
        self,
        coords: Iterable[tuple[int, int]],
        scale: int = 1,
        labels: Iterable[str] | None = None,
    ) -> None:
        """The set of the integer points ``coords``, each ``(x, y)`` a
        tuple, over the positive denominator ``scale``: the point
        ``(x / scale, y / scale)``.  Grid and scale are divided by the gcd
        of ``scale`` and all coordinates.  Raises ``LabelingError`` unless
        ``labels``, if given, name each point 'a', 'b' or 'c' and each
        class n/3 points."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        coords = tuple(coords)
        c = math.gcd(scale, *chain.from_iterable(coords))
        if c > 1:
            coords, scale = tuple((x // c, y // c) for x, y in coords), scale // c
        if labels is not None:
            labels, n = tuple(str(c).lower() for c in labels), len(coords)
            if len(labels) != n:
                raise LabelingError("labels must match the number of points")
            if any(c not in CLASS_NAMES for c in labels):
                raise LabelingError("labels must be 'a', 'b' or 'c'")
            if n % 3 != 0:
                raise LabelingError("labeled sets need n divisible by 3")
            for c in CLASS_NAMES:
                if labels.count(c) != n // 3:
                    raise LabelingError(f"class {c!r} must have n/3 members")
        self.__dict__.update(coords=coords, scale=scale, labels=labels)

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def from_coords(
        cls,
        coords: Iterable[Sequence[Fraction | int | str]],
        labels: Iterable[str] | None = None,
    ) -> "PointSet":
        """The set of the rational points ``coords``, each ``(x, y)`` of
        values ``Fraction`` takes, on the grid of the lcm of their
        denominators."""
        pts = [(Fraction(x), Fraction(y)) for x, y in coords]
        m = math.lcm(*(c.denominator for p in pts for c in p))
        return cls(
            ((x.numerator * (m // x.denominator), y.numerator * (m // y.denominator))
             for x, y in pts),
            m,
            labels,
        )

    def with_labels(self, labels: Iterable[str] | None) -> "PointSet":
        """The same grid under ``labels``, with every value kept on this set."""
        out = PointSet(self.coords, self.scale, labels)
        for name, value in self.__dict__.items():
            out.__dict__.setdefault(name, value)
        return out

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The points as ``Fraction`` pairs, each coordinate over ``scale``."""
        m = self.scale
        return tuple(Point(Fraction(x, m), Fraction(y, m)) for x, y in self.coords)

    @cached_property
    def classes(self) -> "Classes":
        """The pairs grouped by critical direction, counterclockwise
        (``group_pairs``; raises ``GeneralPositionError`` if degenerate)."""
        return group_pairs(self)


def orientation(p: XY, q: XY, r: XY) -> int:
    """Sign of the cross product (q - p) x (r - p), for any three (x, y)
    pairs: ``Point``s, or integer points on one grid.

    +1 for a counterclockwise turn, -1 for clockwise, 0 for collinear.
    """
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
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


def _slope(dy: int, dx: int) -> float:
    """``dy / dx`` for dx > 0, or the infinity of dy's sign when the
    quotient is beyond the float range."""
    try:
        return dy / dx
    except OverflowError:
        return math.inf if dy > 0 else -math.inf


def slope_keys(xs: Sequence[int], ys: Sequence[int]) -> list[float]:
    """The presort key of each pair ``(r, s)``, ``r < s``, of points ranked
    left to right and downwards on a vertical (``xs`` ascending), in the
    order ``(0, 1), (0, 2), ..., (1, 2), ...``: the slope of ``b - a`` as
    ``dy / dx``, the float nearest the exact quotient (CPython rounds
    ``int / int`` correctly) or, beyond the float range, the infinity of
    its sign, and ``-inf`` for a pair straight below.  Both roundings are
    monotone."""
    keys: list[float] = []
    for r in range(len(xs) - 1):
        x, y = xs[r], ys[r]
        s = bisect_right(xs, x, r + 1)  # ranks r + 1 .. s - 1 are straight below
        keys += repeat(-math.inf, s - r - 1)
        done = len(keys)
        try:
            keys += map(truediv, map(sub, ys[s:], repeat(y)), map(sub, xs[s:], repeat(x)))
        except OverflowError:  # some slope from rank r is beyond the float range
            del keys[done:]
            keys += map(_slope, map(sub, ys[s:], repeat(y)), map(sub, xs[s:], repeat(x)))
    return keys


def group_pairs(ps: PointSet) -> Classes:
    """The pairs of ``ps`` grouped by critical direction (``Classes``), off
    the integer coordinates.  The pairs are presorted by their slope keys
    (``slope_keys``).  Rounding to nearest is monotone, so two pairs whose
    keys differ are already in exact angular order; only a run of equal
    keys is looked at in exact integers: one class if its pairs are all
    parallel, else sorted by cross product.  A slope beyond the float
    range keys as the infinity of its sign, so only its run is sorted
    exactly.  Floating point only orders.  Also the general-position test:
    raises ``GeneralPositionError`` on coincident points or a collinear
    triple (two pairs of one class that share a point).
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
    keys = slope_keys(xs, ys)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[k] for k in order]
    ties = list(compress(count(1), map(eq, keys, islice(keys, 1, None))))
    del keys
    # Pair k joins points a[k] and b[k], in the order slope_keys lists them.
    code = "H" if n <= 1 << 16 else "I"
    a, b = array(code), array(code)
    for r in range(n - 1):
        a += array(code, [rank[r]]) * (n - 1 - r)
        b.fromlist(rank[r + 1 :])
    joins: list[int] = []  # the pairs parallel to the one before them
    if ties:
        xs, ys = [x for x, _ in xy], [y for _, y in xy]

        def turn(k: int, m: int) -> int:  # below 0 when pair m turns counterclockwise from k
            i, j, p, q = a[k], b[k], a[m], b[m]
            return (ys[j] - ys[i]) * (xs[q] - xs[p]) - (xs[j] - xs[i]) * (ys[q] - ys[p])

        turns = list(map(turn, [order[k - 1] for k in ties], [order[k] for k in ties]))
        if any(turns):  # sort exactly each run of equal keys that is not one class
            t = 0
            while t < len(ties):  # the run order[lo:hi], whose ties are ties[s:t]
                s, lo = t, ties[t] - 1
                while t < len(ties) and ties[t] == lo + 1 + t - s:
                    t += 1
                hi = lo + 1 + t - s
                if any(turns[s:t]):
                    order[lo:hi] = run = sorted(order[lo:hi], key=cmp_to_key(turn))
                    turns[s:t] = map(turn, run, run[1:])
        joins = list(compress(ties, map(not_, turns)))
    if len(order) > 1:
        take = itemgetter(*order)
        a, b = array(code, take(a)), array(code, take(b))
    opens = bytearray(b"\x01") * (len(a) + 1)  # the pairs that open a class
    for k in joins:
        opens[k] = 0
    starts = array("I", compress(range(len(a) + 1), opens))
    # The i-th join (from 1), at k, lies in class k - i: k - i starts precede it.
    multi = tuple(dict.fromkeys(map(sub, joins, count(1))))
    for g in multi:
        ends = a[starts[g] : starts[g + 1]] + b[starts[g] : starts[g + 1]]
        if len(set(ends)) < len(ends):
            raise GeneralPositionError("point set has a collinear triple")
    return Classes(xy, a, b, starts, multi)


# Kept only as a benchmark trace point (perfbench/spans.py); no caller in the package.
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
    """Integer points kept one at a time in general position: ``offer(p)``
    keeps p = (x, y), two integers on the scale all offers share, and
    returns True unless p repeats a kept point or is collinear with two;
    ``points`` lists the kept points in order.  Each kept point q is held
    with the primitive directions, signed to point right or straight up,
    from q to the points kept after it; p is collinear with q and one of
    them exactly when its direction from q is already there."""

    def __init__(self) -> None:
        self.points: list[tuple[int, int]] = []
        self._held: list[set[Direction]] = []

    def offer(self, p: tuple[int, int]) -> bool:
        px, py = p
        found = []
        for (qx, qy), held in zip(self.points, self._held):
            dx, dy = px - qx, py - qy
            g = math.gcd(dx, dy)
            if not g:
                return False  # p repeats q
            if dx < 0 or not dx and dy < 0:
                g = -g
            u = (dx // g, dy // g)
            if u in held:
                return False  # p, q and a point kept after q are collinear
            found.append(u)
        for held, u in zip(self._held, found):
            held.add(u)
        self.points.append(p)
        self._held.append(set())
        return True


def _in_triangle(a: XY, b: XY, c: XY, p: XY) -> bool:
    # Strict containment; inputs are in general position so no zeros occur.
    return orientation(a, b, p) == orientation(b, c, p) == orientation(c, a, p)


def crossing_number(ps: PointSet) -> int:
    """Number of crossings in the straight-line drawing of the complete
    graph on ``ps``: the count of 4-subsets in convex position, on the
    integer grid.
    """
    ps.classes  # raises GeneralPositionError
    pts = ps.coords
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


def k_set_oracle(ps: PointSet) -> KSetVector:
    """Brute-force k-set counts from directed pair-lines, on the integer
    grid.

    Each separable subset is cut off by a line through two points of the
    set, so collecting ``{strictly left of p->q} + {p}`` over all ordered
    pairs and deduplicating yields every separable subset.  Intentionally
    small scale: refuses n above ``DEFAULT_ORACLE_CAP``, 15.
    """
    n = ps.n
    if n > DEFAULT_ORACLE_CAP:
        raise OracleSizeError(f"oracle capped at n <= {DEFAULT_ORACLE_CAP}, got n = {n}")
    ps.classes  # raises GeneralPositionError
    pts = ps.coords
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
