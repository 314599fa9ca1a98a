import math
import random
from array import array
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
    crossing_count,
    crossing_number,
    generate,
    is_general_position,
    k_set_oracle,
    kset_vector_from_halfperiod,
    kset_vector_from_sites,
)
from ksetlab import circular, decompose
from ksetlab.circular import (
    block_roles,
    default_start_direction,
    gap_samples,
)
from ksetlab.cli import ANALYZE_COLUMNS, _analyze_rows
from ksetlab.geometry import Classes
from ksetlab.verify import random_general_position_set

from support import (
    DEGENERATE_SETS,
    critical_counts_by_recount,
    site_counts_by_replay,
    sweep_by_classes,
)

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
        # Slopes beyond the float range key as infinities; the exact sort
        # orders their runs.
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
                assert critical_counts(h, k)._asdict() == critical_counts_by_recount(h, k)

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
        from ksetlab import bound_report
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
                    assert critical_counts(h, k).het == bound_report(k, n).het

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
        counts, het = build_halfperiod(ps).site_counts
        # Site by site it is the halfperiod from the default start, the
        # first gap's sample...
        h = build_halfperiod(ps)
        assert h.direction == default_start_direction(ps) == gap_samples(ps.classes)[0]
        assert (counts, het) == h.site_counts
        assert (het is None) == (ps.labels is None)
        # ...and mirrored sites agree with the one from any start direction.
        samples = gap_samples(ps.classes)
        u = data.draw(st.sampled_from([*samples, *[(-x, -y) for x, y in samples]]))
        other = build_halfperiod(ps, u).site_counts
        assert mirrored(counts) == mirrored(other[0])
        if het is not None:
            assert mirrored(het) == mirrored(other[1])
        assert kset_vector_from_sites(ps.n, counts) == kset_vector_from_halfperiod(h)
        # analyze's running sums: het and hom for every k.
        k_max = (ps.n - 1) // 2
        rows = [dict(zip(ANALYZE_COLUMNS, row)) for row in _analyze_rows(ps, 1, k_max)]
        assert [row["k"] for row in rows] == list(range(1, k_max + 1))
        for row in rows:
            rep = critical_counts(h, row["k"])
            assert row["e_le_k"] == rep.total
            if ps.labels is None:
                assert row["het"] == row["hom"] == "undefined"
            else:
                assert (row["het"], row["hom"]) == (rep.het, rep.hom)
        k_lo = data.draw(st.integers(1, k_max))
        tail = _analyze_rows(ps, k_lo, k_max)
        assert [dict(zip(ANALYZE_COLUMNS, row)) for row in tail] == rows[k_lo - 1 :]


class TestCrossingCount:
    """``crossing_count`` reads the crossings off a halfperiod's site
    counts; ``crossing_number`` counts the convex quadruples one by one."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 12), st.integers(0, 10**6), st.booleans())
    def test_equals_the_quadruple_oracle(self, n, seed, generated):
        if generated:
            ps = generate(3 * -(-n // 3), seed)
        else:
            ps = random_general_position_set(n, seed)
        assert crossing_count(build_halfperiod(ps)) == crossing_number(ps)

    @pytest.mark.parametrize("n, crossings", [(9, 84), (12, 375), (15, 895)])
    def test_generated_sets(self, n, crossings):
        ps = generate(n, 0)
        assert crossing_count(build_halfperiod(ps)) == crossing_number(ps) == crossings

    def test_small_and_convex_sets(self):
        assert crossing_count(build_halfperiod(TRIANGLE)) == 0
        # Every quadruple of the hexagon is convex.
        assert crossing_count(build_halfperiod(HEXAGON)) == math.comb(6, 4)

    @pytest.mark.parametrize("ps", DEGENERATE_SETS)
    def test_degenerate_sets_rejected(self, ps):
        with pytest.raises(GeneralPositionError):
            crossing_count(build_halfperiod(ps))


class TestStartDirection:
    def test_counting_and_decomposition_start_in_the_first_gap(self, monkeypatch):
        # The site counts, build_halfperiod, check_partition and find_partition
        # read one halfperiod, from gap_samples(ps.classes)[0], replayed by
        # one swap loop, kept on the point set and handed on to its
        # relabeled copies.
        ps = generate(9, seed=5)
        fresh = PointSet(ps.coords, ps.scale, ps.labels)
        loops = []
        real = circular.replay_sites

        def recording(*args):
            loops.append(args)
            return real(*args)

        monkeypatch.setattr(circular, "replay_sites", recording)
        build_halfperiod(fresh).site_counts
        decompose.check_partition(fresh)
        decompose.find_partition(fresh.with_labels(None))
        unlabeled = build_halfperiod(fresh.with_labels(None)).site_counts
        assert unlabeled == (build_halfperiod(fresh).site_counts[0], None)
        assert len(loops) == 1
        start = gap_samples(ps.classes)[0]
        assert build_halfperiod(fresh).direction == start
        assert loops[0][1] == sweep_by_classes(ps, start)[0]


class TestKeptHalfperiod:
    """``build_halfperiod(ps)`` keeps the default-start halfperiod on the
    point set; a relabeled copy reads the same columns under its own
    labels."""

    @pytest.mark.parametrize("n, seed", [(9, 2), (12, 7), (30, 1)])
    def test_relabeled_copy_shares_the_columns(self, n, seed):
        ps = generate(n, seed)
        kept = build_halfperiod(ps)
        shuffled = random.Random(seed).sample(ps.labels, n)
        for labels in (shuffled, None, ps.labels[::-1], ps.labels):
            copy = ps.with_labels(labels).with_labels(labels)
            h = build_halfperiod(copy)
            assert h.sites is kept.sites and h.firsts is kept.firsts
            assert h.seconds is kept.seconds and h.direction == kept.direction
            assert h.labels == copy.labels and build_halfperiod(copy) is h
            # Heterogeneous swaps counted under the copy's labels.
            assert h.site_counts == site_counts_by_replay(copy)
        assert build_halfperiod(ps) is kept and kept.labels == ps.labels


@st.composite
def small_sets(draw):
    """0 to 9 distinct points in general position on a small grid."""
    coords = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                           max_size=9, unique=True))
    ps = PointSet.from_coords(coords)
    assume(is_general_position(ps))
    return ps


class TestRotation:
    """A halfperiod from any start is one run of the swap loop
    (``replay_sites``) from the order along it: it must equal the class by
    class replay from that start."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(small_sets() | generated_sets(), st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
           st.booleans())
    def test_matches_class_by_class_replay(self, ps, u, replayed_first):
        fresh = PointSet(ps.coords, ps.scale, ps.labels)
        if replayed_first:
            build_halfperiod(fresh)
        try:
            initial, flips = sweep_by_classes(ps, u)
        except ValueError:  # u ties a pair of projections
            with pytest.raises(ValueError, match="ties"):
                build_halfperiod(fresh, u)
            return
        h = build_halfperiod(fresh, u)
        assert h.initial_permutation == initial
        assert h.swaps == tuple(swap for swaps in flips for swap in swaps)
        assert (h.direction, h.labels) == (u, ps.labels)

    def test_one_swap_loop_per_point_set(self, monkeypatch):
        # The default start runs one loop per grid and keeps its halfperiod;
        # each build from a given start runs exactly one loop and leaves the
        # kept halfperiod, or its absence, as it was.
        loops = []
        real = circular.replay_sites

        def counting(*args):
            loops.append(args)
            return real(*args)

        monkeypatch.setattr(circular, "replay_sites", counting)
        ps = random_general_position_set(12, 3)
        samples = gap_samples(ps.classes)
        starts = samples + [(-x, -y) for x, y in samples]

        def build_each_start(kept):
            for u in starts:
                initial, flips = sweep_by_classes(ps, u)
                before = len(loops)
                assert build_halfperiod(ps, u).swaps == tuple(s for f in flips for s in f)
                assert len(loops) == before + 1
                assert ps.__dict__.get(circular._KEPT) is kept

        build_each_start(None)
        kept = build_halfperiod(ps)
        assert len(loops) == len(starts) + 1
        assert build_halfperiod(ps) is kept
        assert build_halfperiod(ps.with_labels("abc" * 4)).sites is kept.sites
        assert len(loops) == len(starts) + 1
        build_each_start(kept)
        assert len(loops) == 2 * len(starts) + 1


class TestSwapLoopGuards:
    """``replay_sites`` refuses a swap of two points that are not
    neighbours, and a replay whose last order is not the first reversed."""

    def test_non_adjacent_swap(self):
        ps = PointSet.from_coords([(0, 0), (4, 1), (1, 3), (3, 5)])
        initial, first = circular._start(ps, default_start_direction(ps))
        circular.replay_sites(ps.classes, initial, first)
        with pytest.raises(GeneralPositionError, match="non-adjacent"):
            circular.replay_sites(ps.classes, initial[1:] + initial[:1], first)

    def test_replay_that_does_not_reverse(self):
        # Pair (0, 1) listed twice and pair (0, 2) not at all: every swap
        # trades neighbours, but the order comes back as (0, 2, 1).
        a, b = array("I", [0, 0, 1]), array("I", [1, 1, 2])
        classes = Classes(TRIANGLE.coords, a, b, array("I", [0, 1, 2, 3]), ())
        with pytest.raises(GeneralPositionError, match="did not reverse"):
            circular.replay_sites(classes, (0, 1, 2), 0)


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
        assert sum(build_halfperiod(ps).site_counts[0]) == math.comb(ps.n, 2)


class TestFrozenRecords:
    # PointSet and Halfperiod are read-only records compared by their fields.
    def test_fields_are_read_only(self):
        ps = PointSet.from_coords([(0, 0), (1, 0), (0, 1)])
        for record, field in ((ps, "coords"), (build_halfperiod(ps), "swaps")):
            with pytest.raises(AttributeError):
                setattr(record, field, ())
            with pytest.raises(AttributeError):
                delattr(record, field)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_equal_records_hash_equal_and_show_their_fields(self):
        coords = [(0, 0), (1, 0), (0, 1)]
        ps, again = PointSet.from_coords(coords), PointSet.from_coords(coords, "abc")
        assert ps is not TRIANGLE and ps == TRIANGLE and hash(ps) == hash(TRIANGLE)
        assert again != ps
        h = build_halfperiod(ps)
        assert h is not build_halfperiod(TRIANGLE)
        assert h == build_halfperiod(TRIANGLE) and hash(h) == hash(build_halfperiod(TRIANGLE))
        assert h != build_halfperiod(again)
        assert repr(ps) == "PointSet(coords=((0, 0), (1, 0), (0, 1)), scale=1, labels=None)"
        assert "points" not in ps.__dict__
        assert repr(h) == (
            f"Halfperiod(n=3, initial_permutation={h.initial_permutation!r}, "
            f"swaps={h.swaps!r}, direction={h.direction!r}, labels=None)"
        )

    def test_a_point_set_never_equals_a_halfperiod(self):
        h = build_halfperiod(TRIANGLE)
        assert TRIANGLE != h and h != TRIANGLE
        assert not TRIANGLE == h


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
    return kset_vector_from_sites(ps.n, build_halfperiod(ps).site_counts[0])


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
        h_bad = next(
            (h for h in (build_halfperiod(ps, u) for u in gap_samples(ps.classes))
             if block_roles(h.initial_permutation, h.labels) is None),
            None,
        )
        assert h_bad is not None
        with pytest.raises(LabelingError):
            build_valid_digraphs(h_bad, 4)

    def test_block_roles_need_thirds(self):
        # Four points do not split into thirds; three do.
        assert block_roles((0, 1, 2, 3), "abca") is None
        assert block_roles((2, 0, 1), "abc") == ("c", "a", "b")

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
            roles = block_roles(h.initial_permutation, h.labels)
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
