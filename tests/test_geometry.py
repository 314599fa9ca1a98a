import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksetlab import (
    GeneralPositionError,
    OracleSizeError,
    Point,
    PointSet,
    crossing_number,
    generate,
    is_general_position,
    k_set_oracle,
    orientation,
)
from ksetlab import decompose, geometry
from ksetlab.circular import build_halfperiod, gap_samples, kset_vector_from_sites, site_counts
from ksetlab.geometry import KSetVector, group_pairs
from ksetlab.verify import random_general_position_set

from support import (
    DEGENERATE_SETS,
    classes_by_sorting,
    critical_direction_pairs_by_fractions,
    gap_samples_of,
    general_position_by_triples,
    kset_counts_by_hulls,
    read_splits_by_replay,
    site_counts_by_replay,
    sweep_by_classes,
)

HEXAGON = PointSet.from_coords([(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)])


def pt(x, y):
    return Point.of(x, y)


class TestOrientation:
    def test_ccw(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) == 1

    def test_collinear(self):
        assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) == 0

    def test_cw(self):
        assert orientation(pt(0, 0), pt(0, 1), pt(1, 0)) == -1

    def test_antisymmetric_under_argument_swaps(self):
        # Swapping any two arguments flips the sign (= permutation parity).
        rng_points = [pt(0, 0), pt(3, 1), pt(1, 4)]
        base = orientation(*rng_points)
        for perm in permutations(range(3)):
            parity = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            assert orientation(*(rng_points[i] for i in perm)) == parity * base


class TestGeneralPosition:
    def test_triangle(self):
        assert is_general_position(PointSet.from_coords([(0, 0), (1, 0), (0, 1)]))

    def test_collinear_triple(self):
        ps = PointSet.from_coords([(0, 0), (1, 1), (2, 2), (0, 5)])
        assert not is_general_position(ps)

    def test_duplicate_points(self):
        assert not is_general_position(PointSet.from_coords([(0, 0), (0, 0), (1, 2)]))

    def test_rational_hexagon_all_triples_checked_by_hand_oracle(self):
        # Hand oracle: the raw 3x3 determinant over all C(6,3) triples.
        def det(p, q, r):
            return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)

        for p, q, r in combinations(HEXAGON.points, 3):
            assert det(p, q, r) != 0
        assert is_general_position(HEXAGON)

    # Coordinates on a small grid of thirds, so that repeated points and
    # collinear triples are common.
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([1, 2, 3])
            ),
            max_size=8,
        )
    )
    def test_matches_triple_scan(self, coords):
        ps = PointSet.from_coords(
            [(Fraction(x, d), Fraction(y, d)) for x, y, d in coords]
        )
        assert is_general_position(ps) == general_position_by_triples(ps)


# Mixed non-dyadic denominators per coordinate, and numerators on a small
# grid so that repeated points and collinear triples still occur.
MIXED_POINTS = st.tuples(
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 3, 5, 7, 9])),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 3, 11, 13])),
)


class TestGeneralPositionDraw:
    # Small integer points, as the random sampler offers, and non-dyadic
    # fractions, so that repeats and collinear triples are common.
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)) | MIXED_POINTS,
                    max_size=12))
    def test_keeps_a_point_exactly_when_the_triple_scan_accepts_it(self, candidates):
        draw = geometry.GeneralPositionDraw()
        for p in candidates:
            kept = list(draw.points)
            accepted = general_position_by_triples(PointSet.from_coords(kept + [p]))
            assert draw.offer(p) == accepted
            assert draw.points == kept + [p] * accepted


def grouping_or_error(group, ps):
    """The classes ``group(ps)`` returns, counterclockwise, as (direction,
    pairs) items, or the error it raises."""
    try:
        return list(group(ps))
    except GeneralPositionError as exc:
        return ("error", str(exc))


def by_fractions(ps):
    return by_exact_angle(critical_direction_pairs_by_fractions(ps))


class TestIntegerKernel:
    def test_coords_scale_by_common_denominator(self):
        ps = PointSet.from_coords([("1/2", "1/3"), (2, "5/6"), ("-3/4", 0)])
        assert ps.coords == ((6, 4), (24, 10), (-9, 0))
        assert PointSet.from_coords([(1, 2), (-3, 0)]).coords == ((1, 2), (-3, 0))
        assert PointSet(()).coords == ()

    def test_with_labels_keeps_the_grouping(self):
        ps = generate(9, 0)
        classes = ps.classes
        relabeled = ps.with_labels(None).with_labels(ps.labels)
        assert relabeled.__dict__["classes"] is classes
        assert relabeled == ps

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(MIXED_POINTS, max_size=9)
        | st.lists(MIXED_POINTS, min_size=4, max_size=9, unique=True)
    )
    def test_grouping_matches_fraction_oracle(self, coords):
        ps = PointSet.from_coords(coords)
        assert grouping_or_error(group_pairs, ps) == grouping_or_error(by_fractions, ps)

    @pytest.mark.parametrize("ps", DEGENERATE_SETS)
    def test_degenerate_sets_same_error(self, ps):
        scaled = PointSet.from_coords(
            [(p.x / 7 + Fraction(1, 3), p.y / 7) for p in ps.points]
        )
        for case in (ps, scaled):
            got = grouping_or_error(group_pairs, case)
            assert got[0] == "error"
            assert got == grouping_or_error(by_fractions, case)

    def test_random_sets_match_fraction_oracle(self):
        for n, seed in ((10, 1), (20, 2), (30, 3)):
            base = random_general_position_set(n, seed)
            ps = PointSet.from_coords(
                [(p.x / (3 + i % 5), p.y / (7 + i % 3)) for i, p in enumerate(base.points)]
            )
            assert grouping_or_error(group_pairs, ps) == grouping_or_error(by_fractions, ps)


def by_exact_angle(grouping: dict) -> list:
    """The classes of a grouping sorted counterclockwise over the upper half
    plane, keyed by the rational cotangent of their direction."""
    return sorted(
        grouping.items(), key=lambda c: (c[0][1] > 0, Fraction(-c[0][0], c[0][1] or 1))
    )


class TestAngularSort:
    @staticmethod
    def _count_exact_sorts(monkeypatch):
        calls = []
        real = geometry.cmp_to_key

        def counting(cmp):
            calls.append(cmp)
            return real(cmp)

        monkeypatch.setattr(geometry, "cmp_to_key", counting)
        return calls

    def test_float_near_tie_takes_exact_sort(self, monkeypatch):
        # (big, 1) and (big + 1, 1) have one float angle, so the presort
        # keeps their pairs in the order they are enumerated, (0, 1) before
        # (0, 2) (point 1 is above point 2), which is the wrong one.
        big = 10**17
        ps = PointSet.from_coords([(0, 0), (1, -big), (1, -big - 1), (-3, 2)])
        assert math.atan2(1, big) == math.atan2(1, big + 1)
        order = [pairs for _, pairs in group_pairs(PointSet(ps.points))]
        assert order.index(((0, 2),)) < order.index(((0, 1),))
        calls = self._count_exact_sorts(monkeypatch)
        assert list(ps.classes) == by_fractions(ps)
        assert len(calls) == 1
        assert kset_vector_from_sites(ps.n, site_counts(ps)[0]) == k_set_oracle(ps)

    def test_float_order_accepted_without_near_ties(self, monkeypatch):
        for n, seed in ((12, 5), (30, 6)):
            base = random_general_position_set(n, seed)
            ps = PointSet.from_coords(
                [(p.x / (3 + i % 5), p.y / (7 + i % 3)) for i, p in enumerate(base.points)]
            )
            calls = self._count_exact_sorts(monkeypatch)
            assert list(ps.classes) == by_fractions(ps)
            assert calls == []


def flat_kernel(ps):
    """The flat kernel's classes, gap samples, site counts, splits into
    thirds (n a positive multiple of 3) and the halfperiod from the default
    start, every gap sample and every negated one; or the error."""
    try:
        classes = list(ps.classes)
    except GeneralPositionError as exc:
        return ("error", str(exc))
    samples = gap_samples(ps.classes)
    starts = [None, *samples, *[(-x, -y) for x, y in samples]]
    halfperiods = [build_halfperiod(ps, u) for u in starts]
    out = {
        "classes": classes,
        "samples": samples,
        "site_counts": site_counts(ps),
        "halfperiods": [(h.initial_permutation, h.swaps) for h in halfperiods],
    }
    if ps.n and ps.n % 3 == 0:
        out["splits"] = list(decompose._read_splits(ps).items())
    return out


def reference_kernel(ps):
    """``flat_kernel`` from the dict-of-tuples grouping and the class by
    class replay of ``support``."""
    try:
        classes = classes_by_sorting(ps)
    except GeneralPositionError as exc:
        return ("error", str(exc))
    samples = gap_samples_of(classes)
    starts = [samples[0], *samples, *[(-x, -y) for x, y in samples]]
    halfperiods = []
    for u in starts:
        initial, flips = sweep_by_classes(ps, u)
        halfperiods.append((initial, tuple(s for swaps in flips for s in swaps)))
    out = {
        "classes": classes,
        "samples": samples,
        "site_counts": site_counts_by_replay(ps),
        "halfperiods": halfperiods,
    }
    if ps.n and ps.n % 3 == 0:
        out["splits"] = read_splits_by_replay(ps)
    return out


@st.composite
def kernel_inputs(draw):
    coords = draw(
        st.lists(MIXED_POINTS, max_size=9)
        | st.lists(MIXED_POINTS, min_size=3, max_size=12, unique=True)
    )
    labels = None
    if coords and len(coords) % 3 == 0 and draw(st.booleans()):
        labels = draw(st.permutations("abc" * (len(coords) // 3)))
    return PointSet.from_coords(coords, labels)


class TestFlatKernel:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kernel_inputs())
    def test_matches_dict_kernel(self, ps):
        assert flat_kernel(ps) == reference_kernel(ps)

    def test_large_coordinates_at_n_150(self):
        rng = random.Random(150)
        coords = [(rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)) for _ in range(150)]
        labels = [c for c in "abc" for _ in range(50)]
        rng.shuffle(labels)
        for ps in (PointSet.from_coords(coords), PointSet.from_coords(coords, labels)):
            classes = classes_by_sorting(ps)
            assert list(ps.classes) == classes
            assert len(classes) == math.comb(150, 2)
            assert site_counts(ps) == site_counts_by_replay(ps)
            assert list(decompose._read_splits(ps).items()) == read_splits_by_replay(ps)
            samples = gap_samples_of(classes)
            assert gap_samples(ps.classes) == samples
            for u in (samples[0], samples[4000], samples[-1], (-samples[77][0], -samples[77][1])):
                initial, flips = sweep_by_classes(ps, u)
                h = build_halfperiod(ps, u)
                assert h.initial_permutation == initial
                assert h.swaps == tuple(s for swaps in flips for s in swaps)


class TestCrossingNumber:
    def test_convex_quadrilateral(self):
        assert crossing_number(PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])) == 1

    def test_triangle_with_interior_point(self):
        assert crossing_number(PointSet.from_coords([(0, 0), (6, 0), (0, 6), (1, 1)])) == 0

    def test_eight_in_convex_position(self):
        octagon = PointSet.from_coords(
            [(4, 0), (3, 3), (0, 4), (-3, 3), (-4, 0), (-3, -3), (0, -4), (3, -3)]
        )
        assert crossing_number(octagon) == 70  # C(8,4): every quadruple is convex

    def test_degenerate_small_sets(self):
        assert crossing_number(PointSet.from_coords([(0, 0), (1, 0), (0, 1)])) == 0
        assert crossing_number(PointSet.from_coords([(0, 0), (1, 0)])) == 0

    def test_rejects_collinear(self):
        with pytest.raises(GeneralPositionError):
            crossing_number(PointSet.from_coords([(0, 0), (1, 1), (2, 2), (0, 5)]))

    def test_similarity_invariance(self):
        for seed in range(5):
            ps = random_general_position_set(7, 500 + seed)
            moved = PointSet(
                tuple(
                    Point(Fraction(3, 7) * p.x + 11, Fraction(3, 7) * p.y - 5)
                    for p in ps.points
                )
            )
            assert crossing_number(moved) == crossing_number(ps)
            assert k_set_oracle(moved) == k_set_oracle(ps)


class TestKSetOracle:
    def test_convex_hexagon(self):
        v = k_set_oracle(HEXAGON)
        assert v.e[1] == 6 and v.e[2] == 6
        assert v.prefix[2] == 12

    def test_triangle(self):
        assert k_set_oracle(PointSet.from_coords([(0, 0), (1, 0), (0, 1)])).e == {1: 3}

    def test_size_cap(self):
        ps = random_general_position_set(16, 7)
        with pytest.raises(OracleSizeError):
            k_set_oracle(ps)
        # explicit cap raises the limit
        assert k_set_oracle(ps, cap=16).e[1] >= 3

    def test_generated_nine_point_set_vs_hull_oracle(self):
        ps = generate(9, seed=2)
        assert k_set_oracle(ps).e == kset_counts_by_hulls(ps)

    def test_random_sets_vs_hull_oracle(self):
        for n in (4, 5, 6, 7, 8):
            for seed in range(4):
                ps = random_general_position_set(n, 900 + 13 * n + seed)
                assert k_set_oracle(ps).e == kset_counts_by_hulls(ps)

    def test_prefix_monotone_and_total(self):
        for seed in range(5):
            ps = random_general_position_set(9, 40 + seed)
            v = k_set_oracle(ps)
            values = [v.prefix[k] for k in sorted(v.prefix)]
            assert values == sorted(values)
            # every pair line yields one subset of size < n/2 per orientation
            assert v.prefix[4] <= 2 * 36

    def test_vector_invariants(self):
        with pytest.raises(ValueError):
            KSetVector.from_counts(4, {1: -1})
        assert k_set_oracle(PointSet(())).e == {}
        assert k_set_oracle(PointSet((Point.of(0, 0),))).e == {}
        two = k_set_oracle(PointSet.from_coords([(0, 0), (1, 0)]))
        assert two.e == {1: 2}
