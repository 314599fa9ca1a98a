"""Closed-form bounds for (<=k)-set counts of 3-decomposable sets.

Throughout, n is a multiple of 3, s := n/3, and m := n - 2k - 1 is the width
of the valid window [k+1, n-k-1] (the sites whose swaps are not
(<=k)-critical).  The bounds are computed on integers, a ``Fraction`` only
when a caller reads Y or hom; the slack quartic is exact rational.  pi
enters only the asymptotic crossing-number constant and the series self-check.

Quantities computed here:

* ``kset_lower_bound`` (Y): the closed-form lower bound on the number of
  (<=k)-sets of a 3-decomposable set,

      Y(k,n) = 3*C(k+1,2) + 3*C(k-s+1,2)
               + 3 * sum_{j=2}^{b} j(j+1) * C(k+1 - (1/2 - 1/(3j(j+1)))*n, 2)
               - 1/3,

  where b is the unique integer with C(b+1,2) < n/m <= C(b+2,2) and the
  generalized binomial C(x,2) := x(x-1)/2 is clamped to 0 for x < 2 (a term
  counts only once its window is open; x(x-1)/2 > 0 for x < 0).  The
  first two terms are the general lower bound for arbitrary point sets; the
  j-sum is the 3-decomposable refinement.

  Y is computed on integers.  With D_j = 3j(j+1) and
  A_j = 2*D_j*(k+1) - n*(D_j - 2) = D_j*(1-m) + 2n, the j-term
  3j(j+1)*C(A_j/(2*D_j), 2) is A_j*(A_j - 2*D_j)/(8*D_j), open exactly when
  A_j >= 4*D_j, that is j(j+1)*3(m+3) <= 2n: for j = 2..J, and J <= b.  As
  sum_{j=2}^{J} 1/D_j = (J-1)/(6(J+1)), the open terms sum to
  (J-1)*(n^2/(12(J+1)) - n*m/2 + (m^2-1)(J^2+4J+6)/8), so Y is one integer
  over 24(J+1).  The depth b, like every (b, q, r) threshold below, is the
  least b >= 0 with (b+1)(b+2)*den >= 2*num for a ratio num/den > 0, the
  largest b with b(b+1) < t = ceil(2*num/den): b = (isqrt(4t-3) - 1) // 2.

* The (b, q, r) decomposition (``_bqr``): for positive i and j, the unique
  (b, q, r) with

      j = i*C(b+1,2) + q*(b+1) + r,   0 <= q < i,  1 <= r <= b+1,
      C(b+1,2) < j/i <= C(b+2,2).

  Applied to (m, s) it drives the extremal-digraph edge count.  Vertex i
  of that digraph has indegree m*b + q for the (b, q, r) of (m, i); the
  vertices run in (b, q, r) order, so ``_indegrees`` lists all s of them,
  sorted, in one O(s) walk: for b = 0, 1, ... and q = 0..m-1 it emits
  m*b + q once per r = 1..b+1, and cuts the list at s.

* ``build_extremal_digraph`` (and its closed form ``extremal_edge_count``,
  E): the edge-maximal digraph on vertices 1..s subject to
  ind(j) <= min(m + outd(j), j-1), built greedily from the top vertex down,
  each receiver taking the nearest lower-indexed senders its budget and
  supply allow: ``_extremal_degrees`` computes the greedy's degrees in O(s)
  per (k, n), and only ``build_extremal_digraph`` expands them into edges.
  E caps how many same-class swaps can avoid criticality.

* L (``BoundReport.l``): the exact-edge-count refinement
  L(k,n) = 3*C(s+1,2) + (k-s)*n + 3*(C(s,2) - E(k,n)) for s < k < n/2, and
  3*C(k+1,2) for k <= s.  L >= Y on the whole domain (checked at runtime).

* ``slack_quartic`` (f): the auxiliary quartic
  f(b,r) = (b^4 + 4b^3 + 5b^2 + b(2-12r) + 12r(r-1)) / (8(b+1)), minimized
  over real r at r = (b+1)/2 with value (b+3)(b+1)(b-1)/8, and >= -1/3 at
  integer arguments 1 <= r <= b+1 (minimum 0, attained at (0,1) and (1,1)).

* ``crossing_lower_bound`` / ``crossing_coefficient``: the finite-n bound
  sum_k (n-2k-1) * ceil(Y(k,n)) on the crossing number of a 3-decomposable
  drawing, read off ``bound_table(n)``, and its asymptotic coefficient per
  C(n,4),

      3/8 + 1/216 + (2/27)(79/8 - pi^2)  =  (2/27)(15 - pi^2)  ~ 0.380029,

  using sum_{j>=2} 1/(j^3 (j+1)^3) = 79/8 - pi^2.  The identity's rational
  part is checked exactly; the series and the three window integrals behind
  the coefficient are re-verified in ``series_and_integral_report``.

``bound_table(n, keep)`` is the one pass over k < n/2, on integers: it
computes the constants of n once, sums the crossing bound and builds only
the reports of the k in ``keep`` (all without it).  ``bound_report(k, n)``
is the same derivation for one k: ceil(Y), het, hom, E and L are its
fields, and ``kset_lower_bound`` reads its Y.  The extremal-digraph
functions validate (k, n) once and never compute Y.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Container, Iterable, NamedTuple

from .circular import ValidSwapDigraph
from .errors import UndefinedWindowError

#: Coefficients (per C(n,4)) of the best known general lower bound and the
#: best known upper-bound construction; reference values for gap-closure
#: comparisons only, never used in exact computation.
GENERAL_LOWER_COEFFICIENT = 0.37968
BEST_UPPER_COEFFICIENT = 0.38054

SERIES_TOLERANCE = 1e-9
#: The fewest terms J whose partial sum is proven within SERIES_TOLERANCE:
#: the tail sum_{j>J} 1/(j^3 (j+1)^3) < sum_{j>J} j^-6 <= integral_J^oo x^-6 dx
#: = 1/(5 J^5), which is at most the tolerance from J = (5 tol)^(-1/5) on.
SERIES_MIN_TERMS = math.ceil((5 * SERIES_TOLERANCE) ** -0.2)
QUADRATURE_TOLERANCE = 1e-12


def _require_k_n(k: int, n: int) -> None:
    if n % 3 != 0:
        raise ValueError(f"n must be a multiple of 3, got {n}")
    if not (1 <= k and 2 * k < n):
        raise ValueError(f"k must satisfy 1 <= k < n/2, got k={k}, n={n}")


def _defined(value, k: int, n: int):
    """``value``, a quantity at a valid (k, n); only the empty window
    (m = n-2k-1 = 0) leaves one None."""
    if value is None:
        raise UndefinedWindowError(
            f"valid window is empty at k={k}, n={n} (m = n-2k-1 = 0)"
        )
    return value


def _threshold(num: int, den: int) -> int:
    """The unique integer b >= 0 with C(b+1,2) < num/den <= C(b+2,2), for
    num, den > 0, on integers."""
    t = -(-2 * num // den)
    return (math.isqrt(4 * t - 3) - 1) // 2


def _bqr(i: int, j: int) -> tuple[int, int, int]:
    """The unique (b, q, r) with j = i*C(b+1,2) + q*(b+1) + r, 0 <= q < i
    and 1 <= r <= b+1, for positive i and j; asserts its invariants."""
    b = _threshold(j, i)
    tri = b * (b + 1) // 2  # C(b+1,2)
    q, r = divmod(j - i * tri - 1, b + 1)
    r += 1
    assert j == i * tri + q * (b + 1) + r
    assert 0 <= q < i and 1 <= r <= b + 1
    return b, q, r


def _closed_form(k: int, n: int, m: int) -> tuple[int, int, int]:
    """The refinement depth b and Y(k,n) = num/den as ``(b, num, den)``,
    den > 0 and the fraction not reduced, for a nonempty window m: the one
    place Y is computed, called by ``_reports`` alone."""
    # 9*C(k+1,2) + 9*C(k-s+1,2) - 1, the second term open for k > s.
    x = k - n // 3
    base = 9 * (k + 1) * k // 2 + (9 * (x + 1) * x // 2 if x > 0 else 0) - 1
    # J, the last open j (1 when none is): 4j(j+1) <= 8n // (3(m+3)).
    J = (math.isqrt(8 * n // (3 * m + 9) + 1) - 1) // 2 or 1
    terms = 2 * n * n + 3 * (J + 1) * ((m * m - 1) * (J * J + 4 * J + 6) - 4 * n * m)
    return _threshold(n, m), 8 * (J + 1) * base + (J - 1) * terms, 24 * (J + 1)


def _require_extremal_args(k: int, n: int) -> tuple[int, int]:
    _require_k_n(k, n)
    s = n // 3
    if k <= s:
        raise ValueError(f"extremal digraph needs k > n/3, got k={k}, n={n}")
    return _defined(n - 2 * k - 1 or None, k, n), s  # m = 0: the empty window


def build_extremal_digraph(k: int, n: int) -> ValidSwapDigraph:
    """The edge-maximal digraph on vertices 1..n/3 under the degree caps
    ind(j) <= min(n-2k-1 + outd(j), j-1): each receiver j takes its ind(j)
    nearest lower-indexed senders, ind from ``_extremal_degrees``'s greedy.
    Deterministic; its edge count equals ``extremal_edge_count``.
    """
    m, s = _require_extremal_args(k, n)
    ind = _extremal_degrees(m, s)[0]
    return ValidSwapDigraph("synthetic", s, frozenset(
        (l, j) for j in range(2, s + 1) for l in range(j - ind[j - 1], j)))


def _extremal_degrees(m: int, s: int) -> tuple[list[int], list[int]]:
    """The greedy's indegrees and outdegrees of vertices 1..s at window m, in
    O(s).  Receiver j, from the top down, takes senders j-take..j-1 and marks
    the block's two ends; the marks' running sum is the outdegree the next
    take reads, and the outdegrees returned are summed from the final marks."""
    ind, mark, run = [0] * s, [0] * (s + 1), 0
    for j in range(s, 1, -1):
        run += mark[j]
        ind[j - 1] = take = min(j - 1, m + run)
        mark[j - 1] += 1
        mark[j - 1 - take] -= 1
    out = [0] * (s + 1)
    for v in range(s, 0, -1):
        out[v - 1] = out[v] + mark[v]
    return ind, out[:s]


def extremal_edge_summands(k: int, n: int) -> tuple[int, int, int]:
    """The three partial sums of the extremal edge count, obtained by
    splitting the vertices 1..s at alpha = m*C(b+1,2) and
    alpha + beta = alpha + q*(b+1); each part is nonnegative."""
    return _edge_summands(*_require_extremal_args(k, n))


def _edge_summands(m: int, s: int) -> tuple[int, int, int]:
    b, q, r = _bqr(m, s)
    tri = b * (b + 1) // 2  # C(b+1,2); C(b+1,3) is tri*(b-1)/3
    part_a = 2 * m * m * (tri * (b - 1) // 3) + tri * (m * (m - 1) // 2)
    part_b = 2 * m * q * tri + q * (q - 1) // 2 * (b + 1)
    part_c = r * (m * b + q)
    return (part_a, part_b, part_c)


def extremal_edge_count(k: int, n: int) -> int:
    """Closed form E(k,n) for the number of edges of the extremal digraph,
    via the (b, q, r) decomposition of s over m."""
    return sum(extremal_edge_summands(k, n))


def extremal_indegree(k: int, n: int, i: int) -> int:
    """Closed-form indegree m*b + q of vertex i in the extremal digraph,
    where (b, q, _) decomposes i over m (b = 0 when i <= m): the i-th value
    of ``_indegrees``'s walk.  The greedy construction realizes exactly this
    indegree multiset."""
    m, s = _require_extremal_args(k, n)
    if not 1 <= i <= s:
        raise ValueError(f"vertex index must be in 1..{s}, got {i}")
    return _indegrees(m, i)[-1]


def _indegrees(m: int, s: int) -> list[int]:
    """The closed-form indegrees m*b + q of vertices 1..s at window m, in
    O(s): vertices are numbered in (b, q, r) order, so for b = 0, 1, ... and
    q = 0..m-1 the walk emits m*b + q once per r = 1..b+1, and the list,
    cut at s, comes out sorted."""
    ind, b = [], 0
    while len(ind) < s:
        for d in range(m * b, m * b + m):
            ind += [d] * (b + 1)
        b += 1
    del ind[s:]
    return ind


class BoundReport(NamedTuple):
    """All bound quantities at one (k, n): Y = y_num/y_den in lowest terms,
    hom = hom_num/y_den (Y - het, 0 for k <= s), None where the empty window
    (m = 0) leaves one undefined.  ``y`` builds Y's Fraction."""

    n: int
    k: int
    m: int
    s: int
    depth: int | None
    y_num: int | None
    y_den: int | None
    ceil_y: int
    het: int
    hom_num: int | None
    edges: int | None
    edge_summands: tuple[int, int, int] | None
    l: int | None

    @property
    def y(self) -> Fraction | None:
        return None if self.y_num is None else Fraction(self.y_num, self.y_den)


def _reports(n: int, ks: Iterable[int], keep: Container[int] | None = None
             ) -> tuple[list[BoundReport], int]:
    """The one derivation, at each k of ``ks`` for a valid n: Y = num/den from
    ``_closed_form``, reduced, and ceil(Y), hom, E and L (checked >= Y) from it.
    Returns the reports built for the k in ``keep`` (all without) and sum m*ceil(Y)."""
    s = n // 3
    het_s, pairs_s = 3 * (s + 1) * s // 2, s * (s - 1) // 2
    reports, crossing, new = [], 0, tuple.__new__
    for k in ks:
        m = n - 2 * k - 1
        # 3*C(k+1,2): het and L for k <= s, ceil(Y)'s fallback for m = 0.
        low = 3 * (k + 1) * k // 2
        het = low if k <= s else het_s + (k - s) * n
        depth = num = den = hom = edges = summands = sharp = None
        ceil_y = low
        if m:
            depth, num, den = _closed_form(k, n, m)
            g = math.gcd(num, den)
            num, den = num // g, den // g
            ceil_y = -(-num // den)
        if k <= s:
            hom, sharp = 0, low
        elif m:
            hom = num - het * den
            summands = _edge_summands(m, s)
            edges = sum(summands)
            sharp = het + 3 * (pairs_s - edges)
            if sharp * den < num:
                raise AssertionError(f"sharp bound {sharp} fell below the closed form "
                                     f"{num}/{den} at k={k}, n={n}")
        crossing += m * ceil_y
        if keep is None or k in keep:
            # The fields in order, without NamedTuple's generated __new__.
            reports.append(new(BoundReport, (n, k, m, s, depth, num, den, ceil_y, het,
                                             hom, edges, summands, sharp)))
    return reports, crossing


def bound_report(k: int, n: int) -> BoundReport:
    """Every bound quantity at (k, n), m = 0 included: one k of the integer pass."""
    _require_k_n(k, n)
    return _reports(n, (k,))[0][0]


class BoundTable(NamedTuple):
    """The reports kept at one n, and the crossing bound
    sum_k (n-2k-1) * ceil(Y(k,n)) over every k < n/2."""

    n: int
    reports: tuple[BoundReport, ...]
    crossing: int


def bound_table(n: int, keep: Container[int] | None = None) -> BoundTable:
    """The one integer pass over 1 <= k < n/2: every k checks L >= Y and joins
    the crossing sum; only the k in ``keep`` (every k without it) get a report."""
    if n % 3 != 0 or n < 3:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    reports, crossing = _reports(n, range(1, (n - 1) // 2 + 1), keep)
    return BoundTable(n, tuple(reports), crossing)


def kset_lower_bound(k: int, n: int) -> Fraction:
    """Closed-form lower bound Y(k,n) on the number of (<=k)-sets of a
    3-decomposable n-point set (exact rational)."""
    return _defined(bound_report(k, n).y, k, n)


def crossing_lower_bound(n: int) -> int:
    """Finite-n lower bound on the crossing number of a 3-decomposable
    drawing: sum over k of (n-2k-1) * ceil(Y(k,n)), ceil(Y) falling back to
    3*C(k+1,2) at the empty window, whose weight is 0."""
    return bound_table(n, keep=()).crossing


def slack_quartic(b: int | Fraction, r: int | Fraction) -> Fraction:
    """The auxiliary quartic f(b,r) bounding the gap between the sharp and
    closed-form k-set bounds:

        f(b,r) = (b^4 + 4b^3 + 5b^2 + b(2 - 12r) + 12 r(r-1)) / (8(b+1)).

    Over real r it is minimized at r = (b+1)/2 with value
    (b+3)(b+1)(b-1)/8; on integers 0 <= b, 1 <= r <= b+1 its minimum is 0
    (at (0,1) and (1,1)), in particular f >= -1/3 there.
    """
    b = Fraction(b)
    r = Fraction(r)
    num = b**4 + 4 * b**3 + 5 * b**2 + b * (2 - 12 * r) + 12 * r * (r - 1)
    return num / (8 * (b + 1))


def crossing_coefficient() -> float:
    """Asymptotic coefficient per C(n,4) of the crossing-number bound,
    3/8 + 1/216 + (2/27)(79/8 - pi^2) = (2/27)(15 - pi^2) ~ 0.380029, whose
    two sides' rational parts (10/9) are checked equal exactly."""
    rational = Fraction(3, 8) + Fraction(1, 216) + Fraction(2, 27) * Fraction(79, 8)
    assert rational == Fraction(2, 27) * 15
    return float(rational) - 2 * math.pi**2 / 27


class IntegralCheck(NamedTuple):
    name: str
    quadrature: float
    exact: float
    error: float

    @property
    def ok(self) -> bool:
        return self.error <= QUADRATURE_TOLERANCE


class SeriesIntegralReport(NamedTuple):
    series_sum: float
    series_target: float
    series_error: float
    integrals: tuple[IntegralCheck, ...]

    @property
    def series_ok(self) -> bool:
        return self.series_error <= SERIES_TOLERANCE

    @property
    def ok(self) -> bool:
        return self.series_ok and all(c.ok for c in self.integrals)


def series_and_integral_report(terms: int = 1000) -> SeriesIntegralReport:
    """Numerically confirm the ingredients of the asymptotic coefficient.

    * partial sums of 1/(j^3 (j+1)^3) from j=2 approach 79/8 - pi^2
      (the tail after J is below 1/(5J^5));
    * the integral of (1-2x)(x - a)^2 over [a, 1/2] equals (1/2 - a)^4 / 6:
      1/96 at a = 0, 1/7776 at a = 1/3, and d^4/6 at a = 1/2 - d for the
      window widths d = 1/(3j(j+1)), checked for j = 2, 3, 4.  Each
      quadrature is Simpson's rule in exact ``Fraction``s, which is exact
      for a cubic, compared with the closed form in floats.
    """
    series = math.fsum(1.0 / (j**3 * (j + 1) ** 3) for j in range(2, terms + 1))
    target = 79 / 8 - math.pi**2
    half = Fraction(1, 2)

    def check(name: str, a: Fraction, exact: float) -> IntegralCheck:
        f = [(1 - 2 * x) * (x - a) ** 2 for x in (a, (a + half) / 2, half)]
        v = float((half - a) / 6 * (f[0] + 4 * f[1] + f[2]))
        return IntegralCheck(name, v, exact, abs(v - exact))

    checks = [
        check("(1-2x)x^2 on [0,1/2]", Fraction(0), 1 / 96),
        check("(1-2x)(x-1/3)^2 on [1/3,1/2]", Fraction(1, 3), 1 / 7776),
    ]
    for j in (2, 3, 4):
        a = half - Fraction(1, 3 * j * (j + 1))
        d = 1.0 / (3 * j * (j + 1))
        checks.append(check(f"window integral j={j}", a, d**4 / 6))
    return SeriesIntegralReport(
        series_sum=series,
        series_target=target,
        series_error=abs(series - target),
        integrals=tuple(checks),
    )
