import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ksetlab.decompose as decompose_mod
from ksetlab import (
    DecompositionWitness,
    GeneralPositionError,
    LabelingError,
    Point,
    PointSet,
    build_halfperiod,
    check_halfperiod,
    check_partition,
    find_partition,
    generate,
    generate_with_witness,
    is_general_position,
    kset_vector_from_halfperiod,
    locate_halfperiod_witness,
    min_kset_count,
)
from ksetlab.circular import gap_samples
from ksetlab.decompose import GENERATOR_SHAPES
from ksetlab.verify import random_general_position_set

from support import (
    DEGENERATE_SETS,
    block_pattern_indices_by_permutations,
    check_partition_by_sampling,
    dot_point,
    halfperiod_witness_by_halfperiod,
)

# Frozen 6-point set on which the exhaustive search finds no decomposition
# (the search itself is the oracle here).
NON_DECOMPOSABLE_6 = PointSet.from_coords(
    [(-3, -54), (38, 0), (38, 46), (41, 37), (59, 49), (-28, 30)]
)


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
        calls = []
        real = decompose_mod.check_partition

        def counting(ps, labels=None, mode="three", **kwargs):
            calls.append(tuple(labels))
            return real(ps, labels, mode=mode, **kwargs)

        monkeypatch.setattr(decompose_mod, "check_partition", counting)
        assert find_partition(NON_DECOMPOSABLE_6) is None
        # every candidate partition is distinct and there are at most
        # 2*C(n,2) of them (thirds of each permutation of the full period)
        assert len(calls) == len(set(calls))
        assert len(calls) <= 2 * math.comb(6, 2)

    def test_candidates_only_at_block_boundaries(self, monkeypatch):
        # The thirds of a permutation change only at a swap at site s or 2s,
        # so the search proposes the initial thirds and those after each such
        # swap, each with its reversal: the distinct thirds of every
        # permutation of the halfperiod and its reversal, in order.
        ps = random_general_position_set(15, 0)
        h = build_halfperiod(ps)
        boundary_swaps = sum(1 for site, _, _ in h.swaps if site in (5, 10))
        every = []
        for perm in h.permutations():
            for candidate in (perm, perm[::-1]):
                labels = [""] * 15
                for site, point in enumerate(candidate):
                    labels[point] = "abc"[site // 5]
                every.append(tuple(labels))
        calls = []
        real = decompose_mod.check_partition

        def counting(ps, labels=None, mode="three", **kwargs):
            calls.append(tuple(labels))
            return real(ps, labels, mode=mode, **kwargs)

        monkeypatch.setattr(decompose_mod, "check_partition", counting)
        assert find_partition(ps) is None
        assert calls == list(dict.fromkeys(every))
        assert len(calls) <= 2 * (1 + boundary_swaps)

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
        w = find_partition(hexagon)
        # exhaustive search is its own oracle; verify whichever way it lands
        if w is not None:
            assert check_partition(hexagon, w.partition) is not None


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
        scaled = PointSet(
            tuple(Point(p.x * factor, p.y * factor) for p in ps.points), ps.labels
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
    (s, t) off a plain replay from l1 instead of a recorded halfperiod."""

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
    @given(
        labeled_grid_sets() | generated_sets_any_shape(),
        st.sampled_from(["three", "two"]),
        st.data(),
    )
    def test_replay_matches_recorded_halfperiod(self, ps, mode, data):
        witness = check_partition(ps, mode=mode)
        if witness is None:
            # Still compare the two routes, from any tie-free direction.
            samples = gap_samples(ps.classes)
            u = data.draw(st.sampled_from(samples + [(-x, -y) for x, y in samples]))
            witness = DecompositionWitness(ps.labels, (u, None, None))
        located = locate_halfperiod_witness(ps, witness)
        assert located == halfperiod_witness_by_halfperiod(ps, witness)
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

    def test_deterministic(self):
        assert generate(9, seed=8) == generate(9, seed=8)
        assert generate(9, seed=8) != generate(9, seed=9)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            generate(8, seed=0)
        with pytest.raises(ValueError):
            generate(9, seed=0, shape="pentagon")

    def test_n30_counts_meet_bound(self):
        ps = generate(30, seed=0)
        vec = kset_vector_from_halfperiod(build_halfperiod(ps))
        for k in range(1, 15):
            assert vec.prefix[k] >= min_kset_count(k, 30)

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
