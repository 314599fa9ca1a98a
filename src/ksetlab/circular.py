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

Everything is computed exactly, on the integer coordinates
(``PointSet.coords``).  Directions are primitive integer vectors.  One pass
over the pairs groups them by critical direction (the 90-degree rotation of
the pair's difference vector; ``geometry.critical_direction_pairs``, which
also rejects degenerate sets), and the classes are sorted once per point
set, counterclockwise over the upper half plane (``PointSet.classes``).
That sorted list gives everything else: one sample direction inside each
gap between consecutive classes, the start direction (the first gap's
sample; the counts and the decomposition answer do not depend on it), and
the order of the swaps, which is the list rotated to begin at the first
class ahead of the start direction.  Pairs of one class flip
simultaneously; they are disjoint (a shared endpoint would be a collinear
triple), so their swaps commute and are executed by increasing left site
for determinism.

``sweep`` is the one replay of the swaps, and a swap has one form, the
``Swap`` triple ``(site, i, j)``: the entries at sites ``site`` and
``site + 1`` (1-based) trade places, and they are the points ``i < j``.
``build_halfperiod`` records the triples, ``site_counts`` only counts the
swaps at each site, and the decomposition check in ``decompose`` reads
them class by class: after each class, the permutation is the projection
order along the sample direction of the gap that follows it.  ``Thirds``
follows through the swaps which third of the permutation each point sits
in: the split into thirds that ``decompose`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import GeneralPositionError, LabelingError
from .geometry import Classes, Direction, KSetVector, PointSet, cross

#: One adjacent swap: the left site (1-based) and the two points swapped,
#: smaller first.
Swap = tuple[int, int, int]
#: Swaps at each site, and the heterogeneous ones among them (None without
#: labels): entry ``i`` counts site ``i`` (entry 0 is unused).
SiteCounts = tuple[tuple[int, ...], tuple[int, ...] | None]


def gap_samples(classes: Classes) -> list[Direction]:
    """One tie-free direction strictly inside each gap between consecutive
    critical directions, covering a half turn: gap ``g`` lies between
    ``classes[g]`` and the next class (the last one between the last class
    and the negated first)."""
    if not classes:
        return [(1, 0)]
    if len(classes) == 1:
        w = classes[0][0]
        return [(-w[1], w[0])]
    dirs = [w for w, _ in classes]
    ends = dirs[1:] + [(-dirs[0][0], -dirs[0][1])]
    return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(dirs, ends)]


def interval_sample_directions(ps: PointSet) -> list[Direction]:
    """One tie-free direction strictly inside each angular interval between
    consecutive critical directions, covering a half turn.  The negations of
    the returned vectors sample the other half turn.
    """
    return gap_samples(ps.classes)


def default_start_direction(ps: PointSet) -> Direction:
    """The one start direction of a sweep of ``ps``: the sample of the first
    gap, ``gap_samples(ps.classes)[0]``."""
    # The first gap lies between the first two classes.
    return gap_samples(ps.classes[:2])[0]


def sweep(ps: PointSet, u: Direction) -> tuple[tuple[int, ...], Iterator[list[Swap]]]:
    """Replay the swaps of the halfperiod of ``ps`` that starts at ``u``.

    Returns the initial permutation (point indices ordered along ``u``,
    which must tie no pair) and an iterator that yields, class by class in
    the order a direction turning counterclockwise from ``u`` meets them,
    the swaps that class makes.  The iterator replays lazily: a consumer may
    stop early.  Run to the end, it checks that the last permutation
    reverses the first.
    """
    # Grouped first, so that a degenerate set raises GeneralPositionError
    # rather than a tie.
    classes = ps.classes
    ux, uy = u
    height = [ux * x + uy * y for x, y in ps.coords]
    initial = tuple(sorted(range(len(height)), key=height.__getitem__))
    for a, b in zip(initial, initial[1:]):
        if height[a] == height[b]:
            raise ValueError(f"start direction {u} ties a pair of projections")
    # Each class flips where the rotating direction crosses it.  Turning
    # counterclockwise from u, the first class met is the first one ahead
    # of u taken mod a half turn; the classes then follow in sorted order.
    upper = u if u[1] > 0 or (u[1] == 0 and u[0] > 0) else (-u[0], -u[1])
    start = next((k for k, (w, _) in enumerate(classes) if cross(upper, w) > 0), 0)
    return initial, _replay(initial, classes[start:] + classes[:start])


def _replay(initial: tuple[int, ...], classes: Classes) -> Iterator[list[Swap]]:
    perm = list(initial)
    pos = [0] * len(perm)
    for i, v in enumerate(perm):
        pos[v] = i
    for _, pairs in classes:
        swaps = []
        if len(pairs) > 1:
            # Simultaneous flips are pairwise disjoint; execute left to right.
            pairs = sorted(pairs, key=lambda p: min(pos[p[0]], pos[p[1]]))
        for i, j in pairs:
            a, b = pos[i], pos[j]
            if a > b:
                a, b = b, a
            if b != a + 1:
                raise GeneralPositionError(
                    "swap of a non-adjacent pair; the input is degenerate"
                )
            perm[a], perm[b] = perm[b], perm[a]
            pos[perm[a]] = a
            pos[perm[b]] = b
            swaps.append((a + 1, i, j))
        yield swaps
    if perm != list(reversed(initial)):
        raise GeneralPositionError("halfperiod replay did not reverse the order")


class Thirds:
    """Which third of a permutation of n = 3s points each point sits in,
    followed through adjacent swaps.  A swap moves points between thirds
    only at site s or 2s."""

    def __init__(self, perm: Sequence[int]):
        self.s = s = len(perm) // 3
        self.third = [0] * len(perm)
        for site, p in enumerate(perm):
            self.third[p] = site // s

    def swap(self, site: int, i: int, j: int) -> bool:
        """Record the swap of points i and j at ``site``; True iff they
        changed thirds."""
        if site % self.s:
            return False
        self.third[i], self.third[j] = self.third[j], self.third[i]
        return True


def block_roles(
    perm: Sequence[int], labels: Sequence[str]
) -> tuple[str, str, str] | None:
    """The classes filling the three thirds of ``perm``, or None unless its
    thirds are three pure blocks of three different classes."""
    s, rest = divmod(len(perm), 3)
    if rest:
        return None
    blocks = [{labels[p] for p in perm[t * s : (t + 1) * s]} for t in range(3)]
    roles = tuple(c for block in blocks if len(block) == 1 for c in block)
    return roles if len(set(roles)) == 3 else None  # type: ignore[return-value]


def _tally(n: int, labels: tuple[str, ...] | None, swaps: Iterable[Swap]) -> SiteCounts:
    """Count ``swaps`` by site, and the heterogeneous ones when there are
    labels, in one pass."""
    counts = [0] * max(n, 1)
    if labels is None:
        for site, _, _ in swaps:
            counts[site] += 1
        return tuple(counts), None
    het = [0] * len(counts)
    for site, i, j in swaps:
        counts[site] += 1
        if labels[i] != labels[j]:
            het[site] += 1
    return tuple(counts), tuple(het)


def site_counts(ps: PointSet) -> SiteCounts:
    """The swaps at each site of the halfperiod of ``ps``, and the
    heterogeneous ones among them, counted off one replay (``sweep``) from
    ``default_start_direction``; no swap is recorded.  Same as
    ``build_halfperiod(ps).site_counts``."""
    _, flips = sweep(ps, default_start_direction(ps))
    return _tally(ps.n, ps.labels, chain.from_iterable(flips))


@dataclass(frozen=True)
class Halfperiod:
    """A halfperiod of the circular sequence of a point set: the initial
    permutation (point indices ordered along ``direction``) plus the
    ``C(n,2)`` adjacent swaps that carry it to its reversal, in order, each
    a ``Swap`` ``(site, i, j)``: the points ``i < j`` at sites ``site`` and
    ``site + 1`` (1-based) trade places."""

    n: int
    initial_permutation: tuple[int, ...]
    swaps: tuple[Swap, ...]
    direction: Direction
    labels: tuple[str, ...] | None = None

    def permutations(self) -> Iterator[tuple[int, ...]]:
        """Yield all C(n,2) + 1 permutations in rotation order."""
        perm = list(self.initial_permutation)
        yield tuple(perm)
        for site, _, _ in self.swaps:
            perm[site - 1], perm[site] = perm[site], perm[site - 1]
            yield tuple(perm)

    @cached_property
    def site_counts(self) -> SiteCounts:
        """Swaps at each site, and the heterogeneous ones among them (None
        without labels), in one pass: entry ``i`` counts site ``i`` (entry 0
        is unused)."""
        return _tally(self.n, self.labels, self.swaps)


def build_halfperiod(ps: PointSet, direction: Direction | None = None) -> Halfperiod:
    """Build the halfperiod of ``ps`` starting at ``direction`` (default:
    ``default_start_direction``, so it is the halfperiod ``site_counts``
    counts).  The supplied direction must not be perpendicular to any pair
    line, i.e. the initial projection order must be strict.  Raises
    ``GeneralPositionError`` on a degenerate set."""
    u = direction if direction is not None else default_start_direction(ps)
    initial, flips = sweep(ps, u)
    return Halfperiod(ps.n, initial, tuple(chain.from_iterable(flips)), u, ps.labels)


@dataclass(frozen=True)
class CriticalityReport:
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
    out = {}
    for i in range(1, n // 2 + 1):
        c = site_counts.get(i, 0)
        if i != n - i:
            c += site_counts.get(n - i, 0)
        out[i] = c
    return out


def critical_counts(h: Halfperiod, k: int) -> CriticalityReport:
    """Count (<=k)-critical swaps of ``h``, split homogeneous vs
    heterogeneous when labels are present.  Requires 1 <= k < n/2."""
    n = h.n
    if not 1 <= k or not 2 * k < n:
        raise ValueError(f"k must satisfy 1 <= k < n/2, got k={k}, n={n}")
    counts, het_counts = h.site_counts
    by_position = dict(enumerate(counts[1:], 1))
    het_by_position = None
    hom = het = None
    if het_counts is not None:
        het_by_position = dict(enumerate(het_counts[1:], 1))

    def critical_sum(counts: dict[int, int]) -> int:
        return sum(c for i, c in counts.items() if i <= k or i >= n - k)

    total = critical_sum(by_position)
    if het_by_position is not None:
        het = critical_sum(het_by_position)
        hom = total - het
    return CriticalityReport(
        n=n,
        k=k,
        total=total,
        hom=hom,
        het=het,
        by_position=by_position,
        het_by_position=het_by_position,
        i_critical=_mirror_classes(n, by_position),
        i_critical_het=(
            _mirror_classes(n, het_by_position) if het_by_position is not None else None
        ),
    )


def kset_vector_from_sites(n: int, counts: tuple[int, ...]) -> KSetVector:
    """k-set counts from the swaps at each site of a halfperiod of n points
    (``site_counts``): ``e_k`` equals the number of k-critical swaps for
    k < n/2; for even n each swap at the middle site yields two halving
    sets, so ``e_{n/2}`` doubles the site count."""
    e = {}
    for k in range(1, n // 2 + 1):
        if 2 * k < n:
            e[k] = counts[k] + counts[n - k]
        else:
            e[k] = 2 * counts[k]
    return KSetVector.from_counts(n, e)


def kset_vector_from_halfperiod(h: Halfperiod) -> KSetVector:
    """k-set counts read off the halfperiod's site counts
    (``kset_vector_from_sites``)."""
    return kset_vector_from_sites(h.n, h.site_counts[0])


@dataclass(frozen=True)
class ValidSwapDigraph:
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


def block_classes(h: Halfperiod) -> tuple[str, str, str] | None:
    """Classes occupying the three thirds of the initial permutation, or
    None if some third is mixed or two thirds hold one class
    (``block_roles``)."""
    if h.labels is None:
        raise LabelingError("halfperiod carries no labels")
    return block_roles(h.initial_permutation, h.labels)


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
    roles = block_classes(h)
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
    for site, i, j in h.swaps:
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
