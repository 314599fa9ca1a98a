import math
import random
from dataclasses import asdict
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ksetlab import (
    GeneralPositionError,
    LabelingError,
    PointSet,
    build_halfperiod,
    build_valid_digraphs,
    critical_counts,
    generate,
    is_general_position,
    k_set_oracle,
    kset_vector_from_halfperiod,
    kset_vector_from_sites,
    site_counts,
)
from ksetlab.circular import block_classes, gap_samples
from ksetlab.cli import _analyze_rows
from ksetlab.verify import random_general_position_set

from support import DEGENERATE_SETS, critical_counts_by_recount

TRIANGLE = PointSet.from_coords([(0, 0), (1, 0), (0, 1)])
HEXAGON = PointSet.from_coords([(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)])


def replayed(h):
    return list(h.permutations())


class TestBuildHalfperiod:
    def test_triangle(self):
        h = build_halfperiod(TRIANGLE)
        assert len(h.swaps) == 3
        assert all(site in (1, 2) for site, _, _ in h.swaps)
        perms = replayed(h)
        assert perms[-1] == tuple(reversed(perms[0]))

    def test_each_pair_swaps_once_and_reverses(self):
        for n in (4, 6, 7, 9, 10):
            ps = random_general_position_set(n, 7000 + n)
            h = build_halfperiod(ps)
            assert len(h.swaps) == math.comb(n, 2)
            assert sorted((i, j) for _, i, j in h.swaps) == list(
                combinations(range(n), 2)
            )
            perms = replayed(h)
            assert perms[-1] == tuple(reversed(perms[0]))
            assert all(1 <= site <= n - 1 for site, _, _ in h.swaps)

    def test_parallel_pairs_handled(self):
        # A square has two pairs of parallel sides and parallel diagonals
        # never share an endpoint; swaps at equal angles must still replay.
        square = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
        h = build_halfperiod(square)
        assert len(h.swaps) == 6
        assert kset_vector_from_halfperiod(h) == k_set_oracle(square)

    def test_explicit_direction_ties_rejected(self):
        with pytest.raises(ValueError):
            build_halfperiod(
                PointSet.from_coords([(0, 0), (0, 2), (5, 1)]), direction=(1, 0)
            )

    def test_degenerate_sizes(self):
        assert kset_vector_from_halfperiod(build_halfperiod(PointSet(()))).e == {}
        one = PointSet.from_coords([(2, 3)])
        assert kset_vector_from_halfperiod(build_halfperiod(one)).e == {}
        two = PointSet.from_coords([(0, 0), (1, 0)])
        h = build_halfperiod(two)
        assert h.swaps == ((1, 0, 1),)
        assert kset_vector_from_halfperiod(h).e == {1: 2}

    def test_coordinates_beyond_float_range(self):
        # The float presort of the angular sort overflows; the exact sort
        # alone still orders the classes.
        big = 10**400
        ps = PointSet.from_coords([(0, 0), (big, 1), (1, big), (big, big + 3), (-big, 7)])
        assert kset_vector_from_halfperiod(build_halfperiod(ps)) == k_set_oracle(ps)

    def test_axis_aligned_coordinates(self):
        ps = PointSet.from_coords([(0, 0), (0, 1), (1, 0), (1, 1), (2, 5)])
        assert kset_vector_from_halfperiod(build_halfperiod(ps)) == k_set_oracle(ps)

    def test_start_direction_invariance_of_counts(self):
        # The negated samples point into the lower half plane, where the
        # flip order starts from the class ahead of -u.
        ps = random_general_position_set(8, 123)
        base = kset_vector_from_halfperiod(build_halfperiod(ps))
        from ksetlab.circular import interval_sample_directions

        samples = interval_sample_directions(ps)[:5]
        for u in samples + [(-x, -y) for x, y in samples]:
            assert kset_vector_from_halfperiod(build_halfperiod(ps, u)) == base

    @pytest.mark.parametrize("ps", DEGENERATE_SETS)
    def test_degenerate_sets_rejected(self, ps):
        with pytest.raises(GeneralPositionError):
            build_halfperiod(ps)


class TestConvexHexagon:
    def test_every_transposition_low_critical(self):
        h = build_halfperiod(HEXAGON)
        # convex position: all swaps are i-critical with i in {1, 2, 3}
        assert all(min(site, 6 - site) in (1, 2, 3) for site, _, _ in h.swaps)

    def test_outermost_sites_match_hull_count(self):
        h = build_halfperiod(HEXAGON)
        counts = h.site_counts[0]
        assert counts[1] + counts[5] == k_set_oracle(HEXAGON).e[1] == 6

    def test_prefix_matches_oracle(self):
        h = build_halfperiod(HEXAGON)
        assert kset_vector_from_halfperiod(h).prefix[2] == 12


class TestKSetVectorFromHalfperiod:
    def test_triangle(self):
        assert kset_vector_from_halfperiod(build_halfperiod(TRIANGLE)).prefix[1] == 3

    def test_random_ten_point_equivalence(self):
        ps = random_general_position_set(10, 4242)
        assert kset_vector_from_halfperiod(build_halfperiod(ps)) == k_set_oracle(ps)


class TestCriticalCounts:
    def test_triangle_k1(self):
        assert critical_counts(build_halfperiod(TRIANGLE), 1).total == 3

    def test_top_k_total(self):
        # Odd n: every site is critical at k = (n-1)/2.  Even n: the middle
        # site stays valid, so exactly its swaps are missing from the total.
        for n, seed in ((5, 1), (7, 2), (9, 3)):
            h = build_halfperiod(random_general_position_set(n, 6000 + seed))
            assert critical_counts(h, (n - 1) // 2).total == math.comb(n, 2)
        for n, seed in ((6, 4), (8, 5)):
            h = build_halfperiod(random_general_position_set(n, 6000 + seed))
            middle = h.site_counts[0][n // 2]
            assert critical_counts(h, n // 2 - 1).total == math.comb(n, 2) - middle

    def test_one_pass_counts_match_recount(self):
        # The site counts are taken once per halfperiod; every k must read
        # the same report as a recount of all transpositions for that k.
        sets = [generate(n, seed) for n in (6, 9, 12, 18) for seed in (0, 1)]
        rng = random.Random(11)
        for n in (5, 6, 9, 12, 15):
            ps = random_general_position_set(n, 6100 + n)
            sets.append(ps)
            if n % 3 == 0:
                sets.append(ps.with_labels(rng.sample("abc" * (n // 3), n)))
        for ps in sets:
            h = build_halfperiod(ps)
            for k in range(1, (ps.n - 1) // 2 + 1):
                assert asdict(critical_counts(h, k)) == critical_counts_by_recount(h, k)

    def test_k_range_validated(self):
        h = build_halfperiod(TRIANGLE)
        with pytest.raises(ValueError):
            critical_counts(h, 0)
        with pytest.raises(ValueError):
            critical_counts(h, 2)  # k < n/2 needs 2k < 3

    def test_labeled_cluster_set_het(self):
        ps = generate(9, seed=1)
        w_dir = __import__("ksetlab").check_partition(ps).directions[0]
        h = build_halfperiod(ps, w_dir)
        rep = critical_counts(h, 2)
        assert rep.het == 9  # 3 * C(3,2): exact heterogeneous count
        assert rep.total == rep.het + rep.hom

    def test_heterogeneous_class_counts_exact(self):
        # On block-form halfperiods of 3-decomposable sets the mirrored
        # i-critical heterogeneous counts are exactly 3i for i <= n/3, n for
        # n/3 < i < n/2 and n/2 at the middle class of even n; prefix sums
        # therefore match the closed form.
        from ksetlab import heterogeneous_critical_count
        import ksetlab

        for n in (6, 9, 12, 15):
            s = n // 3
            for seed in range(2):
                ps = generate(n, seed)
                w = ksetlab.check_partition(ps)
                h = build_halfperiod(ps, w.directions[0])
                rep = critical_counts(h, 1)
                for i in range(1, s + 1):
                    assert rep.i_critical_het[i] == 3 * i
                for i in range(s + 1, (n - 1) // 2 + 1):
                    assert rep.i_critical_het[i] == n
                if n % 2 == 0 and n // 2 > s:
                    assert rep.i_critical_het[n // 2] == n // 2
                for k in range(1, (n - 1) // 2 + 1):
                    assert critical_counts(h, k).het == heterogeneous_critical_count(k, n)

    def test_hom_het_totals_conserved(self):
        ps = generate(12, seed=0)
        h = build_halfperiod(ps)
        s = 4
        hom_total = sum(
            1
            for _, i, j in h.swaps
            if h.labels[i] == h.labels[j]
        )
        het_total = len(h.swaps) - hom_total
        assert hom_total == 3 * math.comb(s, 2)
        assert het_total == 3 * s * s


@st.composite
def grid_sets(draw):
    n = draw(st.integers(3, 9))
    coords = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    ps = PointSet.from_coords(coords)
    assume(is_general_position(ps))
    if n % 3 == 0 and draw(st.booleans()):
        ps = ps.with_labels(draw(st.permutations("abc" * (n // 3))))
    return ps


@st.composite
def generated_sets(draw):
    ps = generate(draw(st.sampled_from([3, 6, 9, 12])), draw(st.integers(0, 50)))
    labels = draw(st.sampled_from(["kept", "shuffled", "none"]))
    if labels == "shuffled":
        ps = ps.with_labels(draw(st.permutations(ps.labels)))
    elif labels == "none":
        ps = ps.with_labels(None)
    return ps


def mirrored(counts):
    """Swaps at sites i and n - i together, for i = 1..n-1: what does not
    depend on the start direction."""
    n = len(counts)
    return [counts[i] + counts[n - i] for i in range(1, n)]


class TestCountingSweep:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(grid_sets() | generated_sets(), st.data())
    def test_matches_halfperiod(self, ps, data):
        counts, het = site_counts(ps)
        # Site by site it is the halfperiod from the first gap's sample...
        first = build_halfperiod(ps, gap_samples(ps.classes)[0])
        assert (counts, het) == first.site_counts
        # ...and mirrored sites agree with the one from any start direction.
        h = build_halfperiod(ps)
        assert mirrored(counts) == mirrored(h.site_counts[0])
        assert (het is None) == (ps.labels is None) == (h.site_counts[1] is None)
        if het is not None:
            assert mirrored(het) == mirrored(h.site_counts[1])
        assert kset_vector_from_sites(ps.n, counts) == kset_vector_from_halfperiod(h)
        # analyze's running sums: het and hom for every k.
        k_max = (ps.n - 1) // 2
        rows = _analyze_rows(ps, 1, k_max)
        assert [row["k"] for row in rows] == list(range(1, k_max + 1))
        for row in rows:
            rep = critical_counts(h, row["k"])
            assert row["e_le_k"] == rep.total
            if ps.labels is None:
                assert row["het"] == row["hom"] == "undefined"
            else:
                assert (row["het"], row["hom"]) == (rep.het, rep.hom)
        k_lo = data.draw(st.integers(1, k_max))
        assert _analyze_rows(ps, k_lo, k_max) == rows[k_lo - 1 :]


class TestHalfperiodInvariants:
    # From the default start direction or any gap sample or its negation.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_sets(), st.data())
    def test_swaps_pairs_once_and_reverses(self, ps, data):
        samples = gap_samples(ps.classes)
        u = data.draw(st.sampled_from([None, *samples, *[(-x, -y) for x, y in samples]]))
        h = build_halfperiod(ps, u)
        pairs = sorted(tuple(sorted((i, j))) for _, i, j in h.swaps)
        assert pairs == list(combinations(range(ps.n), 2))
        perms = replayed(h)
        assert perms[-1] == perms[0][::-1]
        assert sum(h.site_counts[0]) == math.comb(ps.n, 2)
        assert sum(site_counts(ps)[0]) == math.comb(ps.n, 2)


@st.composite
def unimodular_maps(draw):
    """An integer matrix ((a, b), (c, d)) with ad - bc = +1: a product of
    shears, which generate every such matrix."""
    (a, b), (c, d) = (1, 0), (0, 1)
    for k, upper in draw(st.lists(st.tuples(st.integers(-3, 3), st.booleans()),
                                  max_size=4)):
        if upper:  # times ((1, k), (0, 1))
            b, d = b + k * a, d + k * c
        else:  # times ((1, 0), (k, 1))
            a, c = a + k * b, c + k * d
    return (a, b), (c, d)


def kset_vector(ps):
    return kset_vector_from_sites(ps.n, site_counts(ps)[0])


class TestKSetVectorInvariance:
    """A translation and an orientation-preserving unimodular map carry the
    sets cut off by lines to the sets cut off by lines."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_sets(), st.fractions(-20, 20, max_denominator=7),
           st.fractions(-20, 20, max_denominator=7))
    def test_translation(self, ps, dx, dy):
        moved = PointSet.from_coords([(p.x + dx, p.y + dy) for p in ps.points])
        assert kset_vector(moved) == kset_vector(ps)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_sets(), unimodular_maps())
    def test_unimodular_map(self, ps, m):
        (a, b), (c, d) = m
        assert a * d - b * c == 1
        mapped = PointSet.from_coords(
            [(a * p.x + b * p.y, c * p.x + d * p.y) for p in ps.points]
        )
        assert kset_vector(mapped) == kset_vector(ps)


class TestValidSwapDigraphs:
    @staticmethod
    def _block_halfperiod(n, seed):
        import ksetlab

        ps = generate(n, seed)
        w = ksetlab.check_partition(ps)
        return build_halfperiod(ps, w.directions[0])

    def test_requires_labels_and_blocks(self):
        h = build_halfperiod(random_general_position_set(6, 8))
        with pytest.raises(LabelingError):
            build_valid_digraphs(h, 2)
        ps = generate(9, seed=5)
        h_bad = build_halfperiod(ps)  # default direction: blocks not guaranteed
        if block_classes(h_bad) is None:
            with pytest.raises(LabelingError):
                build_valid_digraphs(h_bad, 4)

    def test_k_range(self):
        h = self._block_halfperiod(9, 0)
        with pytest.raises(ValueError):
            build_valid_digraphs(h, 3)  # needs k > n/3
        with pytest.raises(ValueError):
            build_valid_digraphs(h, 5)  # needs k < n/2

    def test_empty_window(self):
        # k = (n-1)/2 for odd n: the valid window [k+1, n-k-1] is empty.
        h = self._block_halfperiod(9, 3)
        for d in build_valid_digraphs(h, 4):
            assert d.edge_count == 0

    def test_partition_of_same_class_swaps(self):
        # valid edges + critical same-class swaps = C(n/3, 2), per class
        for n, k in ((9, 4), (12, 5), (15, 6), (15, 7)):
            h = self._block_halfperiod(n, n + k)
            s = n // 3
            digraphs = build_valid_digraphs(h, k)
            roles = block_classes(h)
            rep = critical_counts(h, k)
            for d, cls in zip(digraphs, roles):
                critical_cls = sum(
                    1
                    for site, i, j in h.swaps
                    if h.labels[i] == h.labels[j] == cls
                    and (site <= k or site >= n - k)
                )
                assert d.edge_count + critical_cls == math.comb(s, 2)

    def test_first_class_degree_inequality(self):
        # For the digraph of the leading block: ind <= window + outd and
        # ind <= j - 1 (only j - 1 lower-indexed senders exist).
        for n, k, seed in ((12, 5, 2), (15, 6, 1), (18, 7, 0), (18, 8, 4)):
            h = self._block_halfperiod(n, seed)
            m = n - 2 * k - 1
            d_aa = build_valid_digraphs(h, k)[0]
            ind, out = d_aa.indegrees(), d_aa.outdegrees()
            for j in range(1, d_aa.order + 1):
                assert ind[j - 1] <= m + out[j - 1]
                assert ind[j - 1] <= j - 1
