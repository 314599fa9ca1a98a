import ast
import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

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
from ksetlab.circular import (
    build_halfperiod,
    gap_sample,
    gap_samples,
    kset_vector_from_sites,
)
from ksetlab.geometry import KSetVector, group_pairs, slope_keys
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
    return Point(Fraction(x), Fraction(y))


class TestOrientation:
    def test_ccw(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) == 1

    def test_collinear(self):
        assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) == 0

    def test_cw(self):
        assert orientation(pt(0, 0), pt(0, 1), pt(1, 0)) == -1

    def test_any_xy_pairs(self):
        # Integer grid points and tuples of Fractions give the sign that
        # Points give.
        for p, q, r in permutations([(0, 0), (3, 1), (1, 4), (2, 2)], 3):
            sign = orientation(pt(*p), pt(*q), pt(*r))
            assert orientation(p, q, r) == sign
            assert orientation(*(tuple(map(Fraction, v)) for v in (p, q, r))) == sign

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
    # fractions, so that repeats and collinear triples are common; each
    # list is offered scaled by the lcm of its denominators, to integers.
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)) | MIXED_POINTS,
                    max_size=12))
    def test_keeps_a_point_exactly_when_the_triple_scan_accepts_it(self, candidates):
        m = math.lcm(*(Fraction(c).denominator for p in candidates for c in p))
        self.offer_each(candidates, [(int(x * m), int(y * m)) for x, y in candidates])

    def test_coordinates_beyond_64_bits(self):
        # With B = 2^64 + 7, (0, 0), (B, 1) and (2B + 1, 2) are not
        # collinear, though a float cross product of the three reads 0;
        # (2B, 2) repeats no point but is collinear with the first two, and
        # (B, 1) repeats one.
        big = 2**64 + 7
        candidates = [(0, 0), (big, 1), (2 * big + 1, 2), (2 * big, 2), (big, 1),
                      (-big, 3 * big), (big * big, -big)]
        self.offer_each(candidates, candidates)

    @staticmethod
    def offer_each(candidates, offers):
        # Offer each integer point; the triple scan decides on the candidate.
        draw, kept, offered = geometry.GeneralPositionDraw(), [], []
        for p, q in zip(candidates, offers):
            accepted = general_position_by_triples(PointSet.from_coords(kept + [p]))
            assert draw.offer(q) == accepted
            if accepted:
                kept.append(p)
                offered.append(q)
            assert draw.points == offered


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

    def test_on_grid_divides_by_the_common_gcd(self):
        # Six times (1/2, 1/3), (2, 5/6), (-3/4, 0) over 72: divided by 6
        # to the grid from_coords scales to, over the lcm 12.
        ps = PointSet([(36, 24), (144, 60), (-54, 0)], 72, "abc")
        expected = PointSet.from_coords([("1/2", "1/3"), (2, "5/6"), ("-3/4", 0)], "abc")
        assert (ps.coords, ps.scale) == (expected.coords, expected.scale) == (
            ((6, 4), (24, 10), (-9, 0)), 12)
        assert "points" not in ps.__dict__
        assert ps == expected and hash(ps) == hash(expected) and repr(ps) == repr(expected)
        assert PointSet([]).scale == 1 and PointSet([], 8).scale == 1
        for scale in (0, -4):
            with pytest.raises(ValueError, match="scale must be positive"):
                PointSet([(1, 2)], scale)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equal_exactly_when_fraction_points_and_labels_are(self, data):
        # The grid and the labels are the set's identity.  Two sets, each
        # built from rationals or as a grid over a multiple of their lcm,
        # the second the first's points, one of them moved, or all scaled:
        # equal, and hashed alike, exactly when the Fraction points and the
        # labels are, with no Fraction point built to compare them.
        n = data.draw(st.sampled_from([0, 1, 3, 3, 6]))
        first = data.draw(st.lists(MIXED_POINTS, min_size=n, max_size=n))
        second = list(first)
        change = data.draw(st.sampled_from(["same", "moved", "scaled"]))
        if change == "moved" and n:
            second[data.draw(st.integers(0, n - 1))] = data.draw(MIXED_POINTS)
        elif change == "scaled":
            t = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), 2, 3]))
            second = [(x * t, y * t) for x, y in first]
        sets = []
        for points in (first, second):
            labels = None if n % 3 else data.draw(st.none() | st.permutations("abc" * (n // 3)))
            if data.draw(st.booleans()):
                sets.append(PointSet.from_coords(points, labels))
            else:
                m = math.lcm(*(c.denominator for p in points for c in p))
                m *= data.draw(st.integers(1, 12))
                sets.append(PointSet([(int(x * m), int(y * m)) for x, y in points], m, labels))
        a, b = sets
        equal = a == b
        assert "points" not in a.__dict__ and "points" not in b.__dict__
        assert equal == ((a.points, a.labels) == (b.points, b.labels))
        if equal:
            assert hash(a) == hash(b)

    def test_with_labels_keeps_the_grouping(self):
        ps = generate(9, 0)
        classes = ps.classes
        relabeled = ps.with_labels(None).with_labels(ps.labels)
        assert relabeled.__dict__["classes"] is classes
        assert relabeled.coords is ps.coords and relabeled.scale == ps.scale
        assert "points" not in relabeled.__dict__
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


def ranked(ps):
    """The integer coordinates in the order ``group_pairs`` ranks them, left
    to right and downwards on a vertical: the input of ``slope_keys``."""
    xy = ps.coords
    rank = sorted(range(len(xy)), key=lambda p: (xy[p][0], -xy[p][1]))
    return [xy[p][0] for p in rank], [xy[p][1] for p in rank]


#: Coordinates on scales where float slopes tie, lose digits or overflow:
#: a small integer times a scale, plus a small offset.
SCALES = [1, 7, 2**53 + 1, 10**17, 10**400]


@st.composite
def extreme_sets(draw):
    """Up to 7 points, each axis on one of ``SCALES``: pairs one ulp apart
    in slope, vertical pairs, coordinates beyond 2^53 and beyond the float
    range, and slopes whose division overflows."""
    sx, sy = draw(st.sampled_from(SCALES)), draw(st.sampled_from(SCALES))
    small = st.integers(-3, 3)
    coords = draw(st.lists(st.tuples(small, small, small, small), max_size=7))
    return PointSet.from_coords([(x * sx + dx, y * sy + dy) for x, dx, y, dy in coords])


class TestAngularSort:
    """The pairs are presorted by their slope keys; only a run of equal
    keys is looked at exactly, and sorted by ``cmp_to_key`` only if its
    pairs are not all parallel."""

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
        # (1, -big) and (1, -big - 1) have one float slope from (0, 0), and
        # so have they from (-3, 2): two runs of equal keys, neither of one
        # class, each sorted exactly.
        big = 10**17
        ps = PointSet.from_coords([(0, 0), (1, -big), (1, -big - 1), (-3, 2)])
        assert -big / 1 == (-big - 1) / 1 and (-big - 2) / 4 == (-big - 3) / 4
        calls = self._count_exact_sorts(monkeypatch)
        assert list(ps.classes) == by_fractions(ps) == classes_by_sorting(ps)
        assert len(calls) == 2
        assert kset_vector_from_sites(ps.n, build_halfperiod(ps).site_counts[0]) == k_set_oracle(ps)

    def test_float_order_accepted_without_near_ties(self, monkeypatch):
        for n, seed in ((12, 5), (30, 6)):
            base = random_general_position_set(n, seed)
            ps = PointSet.from_coords(
                [(p.x / (3 + i % 5), p.y / (7 + i % 3)) for i, p in enumerate(base.points)]
            )
            keys = slope_keys(*ranked(ps))
            assert len(set(keys)) == len(keys) == math.comb(n, 2)
            calls = self._count_exact_sorts(monkeypatch)
            assert list(ps.classes) == by_fractions(ps)
            assert calls == []

    def test_parallel_runs_sort_nothing_exactly(self, monkeypatch):
        # A square's opposite sides share a key, and so do its two vertical
        # sides (-inf): each run is one class.
        square = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2), (7, 3)])
        calls = self._count_exact_sorts(monkeypatch)
        assert list(square.classes) == by_fractions(square)
        assert calls == []
        assert len(square.classes.multi) == 2

    def test_overflowing_slope_sorts_only_its_run(self, monkeypatch):
        # The slopes from (3, 10^400) to the 299 random points right of it
        # are beyond the float range: they key as -inf, one run of 299
        # pairs, and only that run is sorted exactly, not all C(300, 2).
        rng = random.Random(54)
        coords = [(rng.randint(4, 10**9), rng.randint(0, 10**9)) for _ in range(299)]
        ps = PointSet.from_coords([(3, 10**400), *coords])
        keys = slope_keys(*ranked(ps))
        assert keys[:299] == [-math.inf] * 299 and all(map(math.isfinite, keys[299:]))
        calls, compared = [], set()  # the exact sorts, and the pairs they compare
        real = geometry.cmp_to_key

        def counting(cmp):
            calls.append(cmp)
            return real(lambda k, m: compared.update((k, m)) or cmp(k, m))

        monkeypatch.setattr(geometry, "cmp_to_key", counting)
        assert grouping_or_error(group_pairs, ps) == grouping_or_error(classes_by_sorting, ps)
        assert len(calls) == 1 and len(compared) == 299

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(extreme_sets())
    def test_grouping_matches_dict_grouping(self, ps):
        assert grouping_or_error(group_pairs, ps) == grouping_or_error(classes_by_sorting, ps)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(extreme_sets())
    def test_each_key_is_the_nearest_float(self, ps):
        xs, ys = ranked(ps)
        keys = slope_keys(xs, ys)
        pairs = [(r, s) for r in range(len(xs)) for s in range(r + 1, len(xs))]
        assert len(keys) == len(pairs)
        for key, (r, s) in zip(keys, pairs):
            if xs[s] == xs[r]:
                assert key == -math.inf
                continue
            exact = Fraction(ys[s] - ys[r], xs[s] - xs[r])
            if math.isinf(key):  # beyond the float range, on the key's side
                assert (exact > 0) == (key > 0) and abs(exact) > sys.float_info.max
                continue
            error = abs(Fraction(key) - exact)
            for side in (-math.inf, math.inf):
                neighbour = math.nextafter(key, side)
                if math.isfinite(neighbour):
                    assert error <= abs(Fraction(neighbour) - exact)


def read_splits(ps):
    """``decompose._read_splits(ps)`` as a list of items, each split with
    the sample of its gap."""
    first = decompose._read_splits(ps)
    return [(split, gap_sample(ps.classes, g)) for split, g in first.items()]


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
        "site_counts": build_halfperiod(ps).site_counts,
        "halfperiods": [(h.initial_permutation, h.swaps) for h in halfperiods],
    }
    if ps.n and ps.n % 3 == 0:
        out["splits"] = read_splits(ps)
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
            assert build_halfperiod(ps).site_counts == site_counts_by_replay(ps)
            assert read_splits(ps) == read_splits_by_replay(ps)
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
            moved = PointSet.from_coords(
                (Fraction(3, 7) * p.x + 11, Fraction(3, 7) * p.y - 5) for p in ps.points
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
        # the cap is the largest n the oracle takes
        assert k_set_oracle(random_general_position_set(15, 7)).e[1] >= 3

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
        assert k_set_oracle(PointSet(((0, 0),))).e == {}
        two = k_set_oracle(PointSet.from_coords([(0, 0), (1, 0)]))
        assert two.e == {1: 2}


def test_geometry_imports_only_errors():
    # geometry imports no ksetlab module but errors, at the top or inside a
    # function: read off its source, then seen in a fresh interpreter whose
    # ksetlab package is bare (its __init__ imports every module).
    source = Path(geometry.__file__)
    tree = ast.parse(source.read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported == {"errors"}
    code = (
        "import sys, types\n"
        "package = types.ModuleType('ksetlab')\n"
        f"package.__path__ = [{str(source.parent)!r}]\n"
        "sys.modules['ksetlab'] = package\n"
        "from ksetlab.geometry import PointSet, crossing_number, k_set_oracle\n"
        "ps = PointSet([(0, 0), (5, 1), (2, 4)], 3, 'abc').with_labels(None)\n"
        "ps.classes, ps.points, hash(ps), crossing_number(ps), k_set_oracle(ps)\n"
        "print(sorted(m for m in sys.modules if m.startswith('ksetlab')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    ).stdout
    assert out == "['ksetlab', 'ksetlab.errors', 'ksetlab.geometry']\n"
