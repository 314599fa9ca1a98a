import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ksetlab.circular as circular_mod
from ksetlab import (
    GeneralPositionError,
    LabelingError,
    PointSet,
    bound_report,
    build_halfperiod,
    check_halfperiod,
    check_partition,
    find_partition,
    generate,
    generate_with_witness,
    is_general_position,
    kset_vector_from_halfperiod,
    locate_halfperiod_witness,
)
from ksetlab.circular import gap_samples
from ksetlab.decompose import GENERATOR_SHAPES
from ksetlab.geometry import DRAWS_PER_POINT
from ksetlab.verify import random_general_position_set

from support import (
    DEGENERATE_SETS,
    block_pattern_indices_by_permutations,
    check_partition_by_sampling,
    dot_point,
    generate_with_witness_by_fractions,
)

# Frozen 6-point set on which no balanced labeling is a decomposition.
NON_DECOMPOSABLE_6 = PointSet.from_coords(
    [(-3, -54), (38, 0), (38, 46), (41, 37), (59, 49), (-28, 30)]
)

#: Every balanced labeling of six points.
BALANCED_6 = sorted(set(permutations("aabbcc")))


@st.composite
def unlabeled_grid_sets(draw, n):
    """n distinct points in general position on a small integer grid."""
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
    return ps


def assert_witness_orders(ps, witness):
    """Re-verify witness directions by exact projection sorting."""
    orders = [("a", "b", "c"), ("b", "a", "c"), ("b", "c", "a")]
    for direction, expected in zip(witness.directions, orders):
        if direction is None:
            continue
        ranked = sorted(range(ps.n), key=lambda i: dot_point(direction, ps.points[i]))
        seen = [witness.partition[i] for i in ranked]
        s = ps.n // 3
        assert seen == [expected[0]] * s + [expected[1]] * s + [expected[2]] * s


class TestCheckPartition:
    def test_single_point_clusters_always_decomposable(self):
        ps = PointSet.from_coords([(0, 0), (7, 1), (3, 5)], labels=["a", "b", "c"])
        w = check_partition(ps)
        assert w is not None
        assert_witness_orders(ps, w)

    def test_tight_clusters(self):
        ps = generate(12, seed=3)
        w = check_partition(ps)
        assert w is not None
        assert_witness_orders(ps, w)

    def test_points_on_circle_contiguous_arcs(self):
        # Nine nearly equally spaced rational points on a circle via the
        # tangent half-angle map t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)); the
        # checker's verdict is the oracle, trusted either way, but the
        # witness (if any) must re-verify.
        ts = [Fraction(p, q) for p, q in
              [(0, 1), (9, 25), (21, 25), (7, 5), (12, 5), (6, 1), (-5, 2), (-13, 10), (-4, 5)]]
        coords = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
        labels = ["a"] * 3 + ["b"] * 3 + ["c"] * 3
        ps = PointSet.from_coords(coords, labels)
        assert is_general_position(ps)
        w = check_partition(ps, labels)
        if w is not None:
            assert_witness_orders(ps, w)

    def test_two_condition_mode_is_weaker(self):
        ps = generate(9, seed=4)
        w3 = check_partition(ps, mode="three")
        w2 = check_partition(ps, mode="two")
        assert w3 is not None and w2 is not None
        assert w2.directions[2] is None

    def test_malformed_partition(self):
        ps = generate(9, seed=0)
        with pytest.raises(LabelingError):
            check_partition(ps, ["a"] * 9)
        with pytest.raises(LabelingError):
            check_partition(ps.with_labels(None))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            check_partition(generate(9, seed=0), mode="one")


class TestFindPartition:
    def test_recovers_partition_of_cluster_set(self):
        ps = generate(9, seed=6).with_labels(None)
        w = find_partition(ps)
        assert w is not None
        assert check_partition(ps, w.partition) is not None

    def test_triangle_always_found(self):
        w = find_partition(PointSet.from_coords([(0, 0), (4, 1), (1, 3)]))
        assert w is not None

    def test_absence_after_exhausting_all_candidates(self, monkeypatch):
        sweeps = []
        real = circular_mod.replay

        def recording(ps, u):
            sweeps.append(u)
            return real(ps, u)

        monkeypatch.setattr(circular_mod, "replay", recording)
        for mode in ("three", "two"):
            # A fresh copy each time: the replay is cached on the point set.
            assert find_partition(PointSet.from_coords(NON_DECOMPOSABLE_6.points), mode) is None
        # One sweep per search decides every candidate, and none was missed:
        # no balanced labeling passes even the two-condition projection oracle.
        assert len(sweeps) == 2
        for labels in BALANCED_6:
            assert check_partition_by_sampling(NON_DECOMPOSABLE_6, labels, "two") is None

    def test_bad_mode_raises_before_any_sweep(self, monkeypatch):
        def no_sweep(ps, u):
            raise AssertionError("swept before checking the mode")

        ps = PointSet.from_coords(generate(9, seed=0).points)
        monkeypatch.setattr(circular_mod, "replay", no_sweep)
        with pytest.raises(ValueError, match="mode"):
            find_partition(ps, mode="one")

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(unlabeled_grid_sets(6), st.sampled_from(["three", "two"]))
    def test_none_exactly_when_no_labeling_passes_the_oracle(self, ps, mode):
        w = find_partition(ps, mode)
        passing = [
            labels
            for labels in BALANCED_6
            if check_partition_by_sampling(ps, labels, mode) is not None
        ]
        assert (w is None) == (not passing)
        if w is not None:
            assert w == check_partition_by_sampling(ps, w.partition, mode)

    # Random seed 0 has no decomposition, seed 18 only a two-condition one.
    @pytest.mark.parametrize(
        "ps",
        [random_general_position_set(9, seed) for seed in (0, 18)]
        + [generate(9, seed, shape).with_labels(None)
           for seed, shape in zip((2, 3), GENERATOR_SHAPES)],
    )
    def test_none_exactly_when_no_labeling_passes_the_check(self, ps):
        balanced = set(permutations("aaabbbccc"))
        assert len(balanced) == 1680
        for mode in ("three", "two"):
            w = find_partition(ps, mode)
            passing = [
                labels for labels in balanced if check_partition(ps, labels, mode) is not None
            ]
            assert (w is None) == (not passing)
            if w is not None:
                assert w == check_partition(ps, w.partition, mode)
                assert w == check_partition_by_sampling(ps, w.partition, mode)

    def test_recovers_generated_n30(self):
        ps = generate(30, seed=0)
        w = find_partition(ps.with_labels(None))
        assert w is not None
        assert_witness_orders(ps, w)

        def classes(labels):
            return {frozenset(i for i, c in enumerate(labels) if c == x) for x in "abc"}

        assert classes(w.partition) == classes(ps.labels)

    def test_convex_hexagon_decided(self):
        hexagon = PointSet.from_coords(
            [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
        )
        # No balanced labeling passes the projection oracle, so the search
        # must come back empty.
        assert find_partition(hexagon) is None
        for labels in BALANCED_6:
            assert check_partition_by_sampling(hexagon, labels) is None


# Labeled sets on a small integer grid: n = 3, 6 or 9 distinct points and a
# permutation of the balanced labels.
@st.composite
def labeled_grid_sets(draw):
    n = draw(st.sampled_from([3, 6, 9]))
    coords = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    labels = draw(st.permutations(["a", "b", "c"] * (n // 3)))
    ps = PointSet.from_coords(coords, labels)
    assume(is_general_position(ps))
    return ps


@st.composite
def generated_sets(draw):
    ps = generate(draw(st.sampled_from([3, 6, 9, 12])), draw(st.integers(0, 50)))
    if draw(st.booleans()):
        ps = ps.with_labels(draw(st.permutations(ps.labels)))
    return ps


class TestMatchesSamplingOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(labeled_grid_sets() | generated_sets(), st.sampled_from(["three", "two"]))
    def test_same_witness(self, ps, mode):
        assert check_partition(ps, mode=mode) == check_partition_by_sampling(ps, mode=mode)


class TestScalingInvariance:
    # A uniform positive scaling changes the integer coordinates the kernel
    # reads but no orientation, projection order or critical direction.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        labeled_grid_sets() | generated_sets(),
        st.builds(Fraction, st.integers(1, 60), st.sampled_from([1, 3, 7, 10, 99])),
        st.sampled_from(["three", "two"]),
    )
    def test_same_halfperiod_and_witness(self, ps, factor, mode):
        scaled = PointSet.from_coords(
            ((p.x * factor, p.y * factor) for p in ps.points), ps.labels
        )
        assert build_halfperiod(scaled) == build_halfperiod(ps)
        assert check_partition(scaled, mode=mode) == check_partition(ps, mode=mode)


@st.composite
def generated_sets_any_shape(draw):
    ps = generate(
        draw(st.sampled_from([3, 6, 9, 12, 15])),
        draw(st.integers(0, 50)),
        draw(st.sampled_from(GENERATOR_SHAPES)),
    )
    if draw(st.booleans()):
        ps = ps.with_labels(draw(st.permutations(ps.labels)))
    return ps


class TestWitnessReuse:
    """``gen`` takes the witness the generator's own check found, and reads
    (s, t) off the halfperiod from l1 with ``check_halfperiod``."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([3, 6, 9, 12, 15, 18]),
        st.integers(0, 50),
        st.sampled_from(GENERATOR_SHAPES),
    )
    def test_generator_witness_is_its_check(self, n, seed, shape):
        ps, witness = generate_with_witness(n, seed, shape)
        assert ps == generate(n, seed, shape)
        assert witness == check_partition(ps)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(labeled_grid_sets() | generated_sets_any_shape(), st.sampled_from(["three", "two"]))
    def test_replay_matches_recorded_halfperiod(self, ps, mode):
        # check_halfperiod, from every gap sample and its negation, against
        # the blocks of every permutation; a located witness is its scan of
        # the halfperiod from l1.
        samples = gap_samples(ps.classes)
        for u in samples + [(-x, -y) for x, y in samples]:
            h = build_halfperiod(ps, u)
            assert check_halfperiod(h) == block_pattern_indices_by_permutations(h)
        witness = check_partition(ps, mode=mode)
        if witness is not None:
            located = locate_halfperiod_witness(ps, witness)
            h = build_halfperiod(ps.with_labels(witness.partition), witness.directions[0])
            assert located.halfperiod_indices == block_pattern_indices_by_permutations(h)


@pytest.mark.parametrize("ps", DEGENERATE_SETS)
def test_degenerate_sets_rejected(ps):
    with pytest.raises(GeneralPositionError):
        check_partition(ps, ["a", "b", "c"] * 2)
    with pytest.raises(GeneralPositionError):
        find_partition(ps)


class TestCheckHalfperiod:
    def test_block_form_yields_indices(self):
        ps = generate(9, seed=1)
        w = check_partition(ps)
        h = build_halfperiod(ps, w.directions[0])
        st = check_halfperiod(h)
        assert st is not None
        s, t = st
        assert 0 <= s < t <= math.comb(9, 2)

    def test_non_block_initial_permutation(self):
        # A start direction interleaving the classes cannot witness anything.
        ps = generate(9, seed=1)
        labels = list(ps.labels)
        labels[0], labels[3] = labels[3], labels[0]  # break the blocks
        scrambled = ps.with_labels(labels)
        w = check_partition(ps)
        h = build_halfperiod(scrambled, w.directions[0])
        assert check_halfperiod(h) is None

    def test_singleton_classes(self):
        ps = PointSet.from_coords([(0, 0), (5, 1), (2, 4)], labels=["a", "b", "c"])
        w = check_partition(ps)
        h = build_halfperiod(ps, w.directions[0])
        assert check_halfperiod(h) is not None

    def test_needs_labels(self):
        h = build_halfperiod(random_general_position_set(6, 11))
        with pytest.raises(LabelingError):
            check_halfperiod(h)

    @pytest.mark.parametrize("labels", [["a", "b", "c"], ["x"] * 9])
    def test_given_labels_are_checked(self, labels):
        h = build_halfperiod(generate(9, seed=1))
        with pytest.raises(LabelingError):
            check_halfperiod(h, labels=labels)

    def test_locate_halfperiod_witness(self):
        from ksetlab.decompose import locate_halfperiod_witness

        ps = generate(12, seed=2)
        w = locate_halfperiod_witness(ps, check_partition(ps))
        assert w.halfperiod_indices is not None
        s, t = w.halfperiod_indices
        assert 0 <= s < t <= math.comb(12, 2)


class TestGenerate:
    def test_small_sizes_pass_checker(self):
        for n in (3, 6, 9):
            for seed in (0, 1):
                ps = generate(n, seed)
                assert is_general_position(ps)
                assert check_partition(ps) is not None

    def test_shapes(self):
        for shape in ("triangle-clusters", "near-optimal-template"):
            ps = generate(12, seed=5, shape=shape)
            assert is_general_position(ps)
            assert check_partition(ps) is not None

    @pytest.mark.parametrize("shape", GENERATOR_SHAPES)
    @pytest.mark.parametrize("n", range(3, 61, 3))
    def test_matches_fraction_generator(self, n, shape):
        # The integer grid draws the same sets, and so finds the same
        # witnesses, as the Fraction generator: any drift fails here.
        for seed in range(10):
            assert generate_with_witness(n, seed, shape) == \
                generate_with_witness_by_fractions(n, seed, shape)

    @pytest.mark.parametrize("shape", GENERATOR_SHAPES)
    def test_hands_its_grid_to_coords(self, shape):
        # The integer coordinates come from the generator's grid, divided by
        # the gcd of its denominator and every grid coordinate: the same as
        # scaling the points by the lcm of their denominators.
        for n in range(3, 61, 3):
            for seed in range(10):
                ps = generate(n, seed, shape)
                assert ps.coords == PointSet.from_coords(ps.points).coords

    def test_deterministic(self):
        assert generate(9, seed=8) == generate(9, seed=8)
        assert generate(9, seed=8) != generate(9, seed=9)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            generate(8, seed=0)
        with pytest.raises(ValueError):
            generate(9, seed=0, shape="pentagon")

    def test_cluster_past_the_offset_grid_raises_at_the_draw_cap(self):
        # The 129 x 129 offset grid holds 16641 distinct offsets, and far
        # fewer in general position: a triangle cluster of 16642 points
        # stops at the first point no draw within the cap can place.
        with pytest.raises(GeneralPositionError, match=f"in {DRAWS_PER_POINT} draws"):
            generate(3 * 16642, seed=0)

    @pytest.mark.parametrize("shape", GENERATOR_SHAPES)
    @pytest.mark.parametrize("n, seeds", [(90, range(3)), (150, range(3)), (300, [0])],
                             ids=["90", "150", "300"])
    def test_hundreds_of_points(self, n, seeds, shape):
        for seed in seeds:
            ps = generate(n, seed, shape)
            assert ps.n == n and is_general_position(ps)

    def test_n30_counts_meet_bound(self):
        ps = generate(30, seed=0)
        vec = kset_vector_from_halfperiod(build_halfperiod(ps))
        for k in range(1, 15):
            assert vec.prefix[k] >= bound_report(k, 30).ceil_y

    def test_halfperiod_consistency_small_n(self):
        # If the labeled partition checks out, the halfperiod started at l1
        # must witness the two remaining block orders, in order.
        for n in (6, 9, 12):
            for seed in range(3):
                ps = generate(n, seed)
                w = check_partition(ps)
                assert w is not None
                h = build_halfperiod(ps, w.directions[0])
                assert check_halfperiod(h) is not None
