"""Circular sequences of planar point sets.

Projecting a point set onto a directed line and rotating the line through a
half turn sweeps the projection order through ``C(n,2) + 1`` permutations,
consecutive ones differing by one adjacent swap; the last permutation is the
reversal of the first.  We call this a halfperiod: the full period (a whole
turn) is the halfperiod followed by its mirror and carries no additional
information.

A swap at sites ``(i, i+1)`` or ``(n-i, n-i+1)`` is *i-critical*; it is
*(<=k)-critical* for the i-critical i at most k, i.e. when its site falls
outside the middle window ``[k+1, n-k-1]`` of *valid* sites.  Critical
swaps biject with separable subsets: a swap at sites ``(i, i+1)`` witnesses
a line cutting off the first ``i`` points, so for ``k < n/2`` the number of
k-element separable subsets equals the number of k-critical swaps.  At
``k = n/2`` (even ``n``) each swap at the middle site cuts off a halving
set on *both* sides, hence counts twice.

Everything is exact, on the integer coordinates (``PointSet.coords``);
directions are primitive integer vectors.  The pairs, sorted once per
point set by critical direction (``PointSet.classes``), give the sample
inside each gap between consecutive classes (``gap_sample``), the start
direction (the first gap's sample) and the order of the swaps: the pair
order rotated to begin at the first class ahead of the start.  The pairs
of one class are disjoint and their swaps commute; they are listed by
increasing left site.  One swap loop (``replay_sites``) replays them into
the flat columns of a ``Halfperiod``, once per halfperiod that
``build_halfperiod`` builds, whatever its start; it is the one way to a
halfperiod, under the point set's checked labels.  The default start's
halfperiod is kept on the point set (a relabeled copy shares the
columns); site counts, k-set counts, the crossing count and the
decomposition checks all read it.  A swap outside the columns is a
``Swap``, ``(site, i, j)``: points ``i < j`` at sites ``site``,
``site + 1`` trade; ``Halfperiod.swaps`` builds them only when asked.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from functools import cached_property
from math import comb
from typing import Iterator, NamedTuple, Sequence

from .errors import GeneralPositionError, LabelingError
from .geometry import Classes, Direction, Frozen, KSetVector, PointSet, cross

#: One adjacent swap: the left site (1-based) and the two points swapped,
#: smaller first.
Swap = tuple[int, int, int]
#: Swaps at each site, and the heterogeneous ones among them (None without
#: labels): entry ``i`` counts site ``i`` (entry 0 is unused).
SiteCounts = tuple[tuple[int, ...], tuple[int, ...] | None]


def gap_sample(classes: Classes, g: int) -> Direction:
    """A tie-free direction strictly inside gap ``g``, between class g and
    the next one (the last gap ends at the negated first class)."""
    if len(classes) < 2:
        x, y = classes.direction(0) if len(classes) else (0, -1)
        return (-y, x)
    x, y = classes.direction(g)
    u, v = classes.direction(g + 1) if g + 1 < len(classes) else (-c for c in classes.direction(0))
    return (x + u, y + v)


def gap_samples(classes: Classes) -> list[Direction]:
    """Every gap's sample (``gap_sample``), covering a half turn."""
    return [gap_sample(classes, g) for g in range(max(len(classes), 1))]


# Kept only as a benchmark trace point (perfbench/spans.py); no caller in the package.
def interval_sample_directions(ps: PointSet) -> list[Direction]:
    """``gap_samples(ps.classes)``; negated, they sample the other half turn."""
    return gap_samples(ps.classes)


def default_start_direction(ps: PointSet) -> Direction:
    """The one start direction of a sweep of ``ps``, the first gap's sample."""
    return gap_sample(ps.classes, 0)


class Halfperiod(Frozen):
    """One halfperiod of the circular sequence of a point set, in flat
    columns: ``initial_permutation`` is the order of the points along
    ``direction``, and swap ``k`` trades points ``firsts[k]`` and
    ``seconds[k]`` at sites ``sites[k]``, ``sites[k] + 1`` (1-based).
    The classes flip in turn from the first one ahead of ``direction``; the
    last permutation reverses the first.  ``build_halfperiod`` builds it,
    with the point set's ``labels`` (None without).  It compares, hashes
    and shows as its ``n``, ``initial_permutation``, ``swaps`` (each
    ``Swap``, built on first use), ``direction`` and ``labels``."""

    _fields = ("n", "initial_permutation", "swaps", "direction", "labels")

    def __init__(
        self,
        direction: Direction,
        initial_permutation: tuple[int, ...],
        sites: array,
        firsts: array,
        seconds: array,
        labels: tuple[str, ...] | None = None,
    ) -> None:
        self.__dict__.update(
            n=len(initial_permutation), direction=direction,
            initial_permutation=initial_permutation, sites=sites, firsts=firsts,
            seconds=seconds, labels=labels,
        )

    @cached_property
    def swaps(self) -> tuple[Swap, ...]:
        i, j = self.firsts, self.seconds
        return tuple(zip(self.sites, map(min, i, j), map(max, i, j)))

    def permutations(self) -> Iterator[tuple[int, ...]]:
        """Yield all C(n,2) + 1 permutations in rotation order."""
        perm = list(self.initial_permutation)
        yield tuple(perm)
        for site in self.sites:
            perm[site - 1], perm[site] = perm[site], perm[site - 1]
            yield tuple(perm)

    @cached_property
    def site_counts(self) -> SiteCounts:
        """Swaps at each site, and the heterogeneous ones (``SiteCounts``)."""
        width = range(max(self.n, 1))
        counts = Counter(self.sites)
        labels = self.labels
        if labels is None:
            return tuple(counts[i] for i in width), None
        het = Counter(
            s for s, i, j in zip(self.sites, self.firsts, self.seconds) if labels[i] != labels[j]
        )
        return tuple(counts[i] for i in width), tuple(het[i] for i in width)


_KEPT = "_halfperiod"  # where build_halfperiod keeps its halfperiod on a point set


def _start(ps: PointSet, u: Direction) -> tuple[tuple[int, ...], int]:
    """The sweep of ``ps`` from ``u``, which must tie no pair of
    projections: the order of the points along u and the first class ahead
    of u."""
    classes = ps.classes  # first: a degenerate set raises GeneralPositionError, not a tie
    height = [u[0] * x + u[1] * y for x, y in ps.coords]
    initial = tuple(sorted(range(len(height)), key=height.__getitem__))
    if any(height[a] == height[b] for a, b in zip(initial, initial[1:])):
        raise ValueError(f"start direction {u} ties a pair of projections")
    # Turning counterclockwise from u, the first class met is the first one
    # ahead of u taken mod a half turn: the classes lie in the upper half
    # plane, so a lower u is folded onto its negation first.
    flipped = not (u[1] > 0 or (u[1] == 0 and u[0] > 0))
    upper = (-u[0], -u[1]) if flipped else u
    count = len(classes)
    ahead = bisect_left(range(count), True, key=lambda g: cross(upper, classes.direction(g)) > 0)
    return initial, ahead % max(count, 1)


def replay_sites(
    classes: Classes, initial: tuple[int, ...], first: int
) -> tuple[array, array, array]:
    """The one swap loop: the sites and points of each swap of the
    halfperiod that starts at ``initial`` and meets class ``first`` first.
    Each swap must trade two neighbours, and the last permutation must
    reverse the first.  The swaps of one class are listed by left site."""
    cut, starts = classes.starts[first], classes.starts
    firsts, seconds = classes.a[cut:] + classes.a[:cut], classes.b[cut:] + classes.b[:cut]
    pos = sorted(range(len(initial)), key=initial.__getitem__)  # the site of each point
    left: list[int] = []  # the left site of each swap, one array at the end
    put = left.append
    for i, j in zip(firsts, seconds):
        x = pos[i]
        y = pos[j]
        if x - y not in (1, -1):
            raise GeneralPositionError("swap of a non-adjacent pair; the input is degenerate")
        put(x if x > y else y)
        pos[i] = y
        pos[j] = x
    sites = array(firsts.typecode, left)
    del left
    if any(pos[p] != len(pos) - 1 - site for site, p in enumerate(initial)):
        raise GeneralPositionError("halfperiod replay did not reverse the order")
    for g in classes.multi:  # list the swaps of one class by left site
        lo = (starts[g] - cut) % len(sites)
        hi = lo + starts[g + 1] - starts[g]
        block = sorted(zip(sites[lo:hi], firsts[lo:hi], seconds[lo:hi]))
        for column, values in zip((sites, firsts, seconds), zip(*block)):
            column[lo:hi] = array(column.typecode, values)
    return sites, firsts, seconds


def block_roles(perm: Sequence[int], labels: Sequence[str]) -> tuple[str, str, str] | None:
    """The classes filling the three thirds of ``perm``, or None unless its
    thirds are three pure blocks of three different classes (for a
    halfperiod's ``initial_permutation``, its block classes)."""
    s, rest = divmod(len(perm), 3)
    if rest:
        return None
    blocks = [{labels[p] for p in perm[t * s : (t + 1) * s]} for t in range(3)]
    roles = tuple(c for block in blocks if len(block) == 1 for c in block)
    return roles if len(set(roles)) == 3 else None  # type: ignore[return-value]


def build_halfperiod(ps: PointSet, direction: Direction | None = None) -> Halfperiod:
    """The halfperiod of ``ps`` starting at ``direction``, with the labels
    of ``ps``: one run of the swap loop (``replay_sites``) from the order
    along it.  A given direction must tie no pair of projections.  Without
    one it starts at ``default_start_direction``, and its halfperiod is
    kept on the point set, so the loop runs once per grid: a copy under
    other labels, to which ``PointSet.with_labels`` hands it on, gets a
    ``Halfperiod`` with its own labels on first read, sharing the columns.
    Raises ``GeneralPositionError`` on a degenerate set."""
    kept = ps.__dict__.get(_KEPT)
    if direction is None and kept is not None:
        if kept.labels != ps.labels:
            kept = ps.__dict__[_KEPT] = Halfperiod(
                kept.direction, kept.initial_permutation, kept.sites, kept.firsts, kept.seconds,
                ps.labels,
            )
        return kept
    u = default_start_direction(ps) if direction is None else direction
    initial, first = _start(ps, u)
    h = Halfperiod(u, initial, *replay_sites(ps.classes, initial, first), ps.labels)
    if direction is None:
        ps.__dict__[_KEPT] = h
    return h


class CriticalityReport(NamedTuple):
    """Swap counts of a halfperiod at a fixed k.

    ``total`` is the number of (<=k)-critical swaps (site <= k or
    site >= n-k); ``hom``/``het`` split it by whether the swapped points
    share a class (None without labels).  ``by_position`` /
    ``het_by_position`` count swaps per site, and ``i_critical`` /
    ``i_critical_het`` aggregate the mirrored sites i and n-i per class
    i <= n/2.
    """

    n: int
    k: int
    total: int
    hom: int | None
    het: int | None
    by_position: dict[int, int]
    het_by_position: dict[int, int] | None
    i_critical: dict[int, int]
    i_critical_het: dict[int, int] | None


def _mirror_classes(n: int, site_counts: dict[int, int]) -> dict[int, int]:
    return {
        i: site_counts.get(i, 0) + (site_counts.get(n - i, 0) if i != n - i else 0)
        for i in range(1, n // 2 + 1)
    }


def critical_counts(h: Halfperiod, k: int) -> CriticalityReport:
    """Count (<=k)-critical swaps of ``h``, split homogeneous vs
    heterogeneous when labels are present.  Requires 1 <= k < n/2."""
    n = h.n
    if not 1 <= k or not 2 * k < n:
        raise ValueError(f"k must satisfy 1 <= k < n/2, got k={k}, n={n}")
    # The (<=k)-critical swaps are those at sites 1..k and n-k..n-1.
    counts, het_counts = h.site_counts
    total = kset_vector_from_sites(n, counts).prefix[k]
    het = None if het_counts is None else kset_vector_from_sites(n, het_counts).prefix[k]
    by_position = dict(enumerate(counts[1:], 1))
    het_by_position = None if het_counts is None else dict(enumerate(het_counts[1:], 1))
    return CriticalityReport(
        n, k, total, None if het is None else total - het, het, by_position, het_by_position,
        _mirror_classes(n, by_position),
        None if het_by_position is None else _mirror_classes(n, het_by_position),
    )


def kset_vector_from_sites(n: int, counts: tuple[int, ...]) -> KSetVector:
    """k-set counts from the swaps at each site of a halfperiod of n points
    (``site_counts``): ``e_k`` equals the number of k-critical swaps for
    k < n/2; for even n each swap at the middle site yields two halving
    sets, so ``e_{n/2}`` doubles the site count."""
    return KSetVector.from_counts(n, {
        k: counts[k] + counts[n - k] if 2 * k < n else 2 * counts[k]
        for k in range(1, n // 2 + 1)
    })


def kset_vector_from_halfperiod(h: Halfperiod) -> KSetVector:
    """k-set counts read off the halfperiod's site counts
    (``kset_vector_from_sites``)."""
    return kset_vector_from_sites(h.n, h.site_counts[0])


def crossing_count(h: Halfperiod) -> int:
    """The crossings of the straight-line drawing of the complete graph on
    the points of ``h``, from its site counts c_i:
    3*C(n,4) - sum_i c_i*(i-1)*(n-i-1).  The line of a swap at site i
    separates (i-1)*(n-i-1) pairs, and a 4-set holds two such separations
    if convex, three if not.  O(n) after the replay;
    ``geometry.crossing_number`` is its O(n^4) oracle."""
    n = h.n
    return 3 * comb(n, 4) - sum(c * (i - 1) * (n - i - 1) for i, c in enumerate(h.site_counts[0]))


class ValidSwapDigraph(NamedTuple):
    """Digraph of valid (non-critical) same-class swaps.

    Vertices are ``1..order``; an edge ``(l, j)`` with ``l < j`` records that
    the swap of the class members indexed ``l`` and ``j`` happens inside the
    valid window.  ``kind`` is 'aa', 'bb', 'cc' for digraphs read off a
    halfperiod, or 'synthetic' for the extremal construction.
    """

    kind: str
    order: int
    edges: frozenset[tuple[int, int]]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def indegrees(self) -> list[int]:
        ind = [0] * (self.order + 1)
        for _, j in self.edges:
            ind[j] += 1
        return ind[1:]

    def outdegrees(self) -> list[int]:
        out = [0] * (self.order + 1)
        for l, _ in self.edges:
            out[l] += 1
        return out[1:]


def build_valid_digraphs(
    h: Halfperiod, k: int
) -> tuple[ValidSwapDigraph, ValidSwapDigraph, ValidSwapDigraph]:
    """Digraphs of valid same-class swaps for each class, for n/3 < k < n/2.

    Requires a labeled halfperiod whose initial permutation is three pure
    class blocks; classes are renamed so the first block plays role 'a'.
    Within the leading block the vertex index runs right to left (the first
    entry is ``a_s``, the s-th is ``a_1``); in the other blocks it runs left
    to right.  An edge ``l -> j`` (``l < j``) is recorded when the swap of
    the two class members occurs at a site in the valid window
    ``[k+1, n-k-1]``.
    """
    if h.labels is None:
        raise LabelingError("valid-swap digraphs need a labeled halfperiod")
    n = h.n
    if n % 3 != 0:
        raise LabelingError("valid-swap digraphs need n divisible by 3")
    s = n // 3
    if not (s < k and 2 * k < n):
        raise ValueError(f"k must satisfy n/3 < k < n/2, got k={k}, n={n}")
    roles = block_roles(h.initial_permutation, h.labels)
    if roles is None:
        raise LabelingError(
            "initial permutation is not three pure class blocks; rebuild the "
            "halfperiod from a direction realizing the block order"
        )
    # Vertex index of each point within its class digraph.
    index: dict[int, int] = {}
    for site, point in enumerate(h.initial_permutation):
        block, offset = divmod(site, s)
        index[point] = s - offset if block == 0 else offset + 1
    role_of = {c: t for t, c in enumerate(roles)}
    lo, hi = k + 1, n - k - 1
    edge_sets: tuple[set, set, set] = (set(), set(), set())
    for site, i, j in zip(h.sites, h.firsts, h.seconds):
        if h.labels[i] != h.labels[j]:
            continue
        if lo <= site <= hi:
            a, b = index[i], index[j]
            if a > b:
                a, b = b, a
            edge_sets[role_of[h.labels[i]]].add((a, b))
    kinds = ("aa", "bb", "cc")
    return tuple(
        ValidSwapDigraph(kind, s, frozenset(es)) for kind, es in zip(kinds, edge_sets)
    )  # type: ignore[return-value]
