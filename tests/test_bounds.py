import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ksetlab.bounds as bounds_mod
import ksetlab.cli as cli_mod
from ksetlab import (
    UndefinedWindowError,
    build_extremal_digraph,
    crossing_coefficient,
    crossing_lower_bound,
    extremal_edge_count,
    extremal_edge_summands,
    extremal_indegree,
    kset_lower_bound,
    series_and_integral_report,
    slack_quartic,
)
from ksetlab.bounds import (
    BEST_UPPER_COEFFICIENT,
    GENERAL_LOWER_COEFFICIENT,
    BoundReport,
    _bqr,
    _closed_form,
    _threshold,
    bound_report,
    bound_table,
)
from ksetlab.verify import slack_suite

from support import (
    binom2,
    bound_report_by_fractions,
    bounds_cells_by_fractions,
    crossing_lower_bound_by_terms,
    kset_lower_bound_by_fractions,
)

F = Fraction


class TestRefinementDepth:
    def test_examples(self):
        assert bound_report(1, 9).depth == 1  # 9/6 in (C(2,2), C(3,2)]
        assert bound_report(3, 9).depth == 2  # 9/2 in (C(3,2), C(4,2)]
        assert bound_report(5, 12).depth == 4  # 12 in (C(5,2), C(6,2)]

    def test_threshold_brackets_ratio(self):
        for num in range(2, 40):
            for den in range(1, num):
                ratio = F(num, den)
                b = _threshold(num, den)
                assert math.comb(b + 1, 2) < ratio <= math.comb(b + 2, 2)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        num=st.integers(min_value=1, max_value=10**30),
        den=st.integers(min_value=1, max_value=10**6),
    )
    def test_threshold_brackets_huge_ratios(self, num, den):
        # b reaches about 1.4e15 at 10**30: far beyond any linear scan.
        ratio = F(num, den)
        b = _threshold(num, den)
        assert math.comb(b + 1, 2) < ratio <= math.comb(b + 2, 2)

    @pytest.mark.parametrize("b", [0, 1, 2, 10**15])
    def test_threshold_at_triangular_numbers(self, b):
        # C(b+2,2) itself is still b; one part above it is b+1.
        t = math.comb(b + 2, 2)
        assert _threshold(t, 1) == _threshold(2 * t - 1, 2) == b
        assert _threshold(10**9 * t + 1, 10**9) == b + 1

    def test_empty_window(self):
        assert bound_report(4, 9).depth is None
        with pytest.raises(UndefinedWindowError):
            kset_lower_bound(4, 9)


class TestBqrDecompose:
    def test_examples(self):
        assert _bqr(3, 10) == (2, 0, 1)
        assert _bqr(1, 4) == (2, 0, 1)
        assert _bqr(2, 5) == (1, 1, 1)

    def test_unique_by_enumeration(self):
        # independent oracle: search all (b, q, r) in range for the identity
        for i in range(1, 8):
            for j in range(i, 40):
                matches = [
                    (b, q, r)
                    for b in range(0, 12)
                    for q in range(0, i)
                    for r in range(1, b + 2)
                    if j == i * math.comb(b + 1, 2) + q * (b + 1) + r
                    and math.comb(b + 1, 2) < F(j, i) <= math.comb(b + 2, 2)
                ]
                assert matches == [_bqr(i, j)]


class TestKsetLowerBound:
    def test_examples(self):
        assert kset_lower_bound(1, 9) == F(8, 3)
        assert kset_lower_bound(3, 9) == F(53, 3)
        assert kset_lower_bound(5, 12) == F(143, 3)

    def test_refinement_terms_clamped_at_5_12(self):
        # at (5, 12) the depth is 4 but every refinement argument is below 2
        n, k = 12, 5
        for j in range(2, 5):
            arg = F(k + 1) - (F(1, 2) - F(1, 3 * j * (j + 1))) * n
            assert arg < 2
            assert binom2(arg) == 0

    def test_equals_term_by_term_oracle(self):
        # Every (k, n) with a nonempty window up to n = 300, and every k at
        # n = 3000, where the depth reaches 77.
        pairs = [
            (k, n)
            for n in [*range(6, 301, 3), 3000]
            for k in range(1, (n - 1) // 2 + 1)
            if n - 2 * k - 1 >= 1
        ]
        assert len(pairs) == 7450 + 1499
        for k, n in pairs:
            depth, num, den = _closed_form(k, n, n - 2 * k - 1)
            assert den > 0
            assert (depth, F(num, den)) == kset_lower_bound_by_fractions(k, n)

    def test_refinement_term_active(self):
        # (k, n) = (17, 36): the j = 2 argument is exactly 2, contributing
        # 3 * 2 * 3 * C(2,2) = 18 on top of 459 + 45 - 1/3.
        assert kset_lower_bound(17, 36) == 459 + 45 + 18 - F(1, 3)

    def test_monotone_in_k(self):
        for n in range(6, 91, 3):
            values = [
                kset_lower_bound(k, n)
                for k in range(1, (n - 1) // 2 + 1)
                if n - 2 * k - 1 >= 1
            ]
            assert values == sorted(values)

    def test_window_and_range_errors(self):
        with pytest.raises(UndefinedWindowError):
            kset_lower_bound(4, 9)
        with pytest.raises(ValueError):
            kset_lower_bound(5, 10)  # n not a multiple of 3
        with pytest.raises(ValueError):
            kset_lower_bound(6, 12)  # k >= n/2


class TestGeneralizedBinomial:
    def test_clamp(self):
        assert binom2(2) == 1
        assert binom2(F(1, 2)) == 0  # raw value would be negative
        assert binom2(-3) == 0  # raw value would be positive: clamp matters
        assert binom2(F(7, 2)) == F(35, 8)


class TestHeterogeneousCount:
    def test_examples(self):
        assert bound_report(2, 9).het == 9
        assert bound_report(4, 12).het == 30  # boundary k = n/3
        assert bound_report(5, 12).het == 42

    def test_boundary_continuity(self):
        for n in (9, 12, 15, 18):
            s = n // 3
            low = 3 * math.comb(s + 1, 2)
            assert bound_report(s, n).het == low
            if 2 * (s + 1) < n:
                assert bound_report(s + 1, n).het == low + n


class TestExtremalDigraph:
    def test_edge_count_examples(self):
        assert build_extremal_digraph(5, 12).edge_count == 4
        assert build_extremal_digraph(6, 15).edge_count == 8
        assert extremal_edge_count(5, 12) == 4
        assert extremal_edge_count(6, 15) == 8

    def test_summands_examples(self):
        assert extremal_edge_summands(5, 12) == (2, 0, 2)
        assert extremal_edge_summands(6, 15) == (1, 4, 3)

    def test_summands_nonnegative_and_consistent(self):
        for n in range(6, 61, 3):
            for k in range(n // 3 + 1, (n - 1) // 2 + 1):
                if n - 2 * k - 1 < 1:
                    continue
                parts = extremal_edge_summands(k, n)
                assert all(p >= 0 for p in parts)
                assert sum(parts) == extremal_edge_count(k, n)
                assert extremal_edge_count(k, n) <= math.comb(n // 3, 2)

    def test_greedy_is_maximal_small_cases(self):
        # brute-force maximum over all digraphs with the degree caps
        from itertools import combinations

        def brute_max(m, s):
            pairs = list(combinations(range(1, s + 1), 2))
            best = 0
            for mask in range(1 << len(pairs)):
                ind = [0] * (s + 1)
                out = [0] * (s + 1)
                for t, (l, j) in enumerate(pairs):
                    if mask >> t & 1:
                        ind[j] += 1
                        out[l] += 1
                if all(ind[j] <= min(m + out[j], j - 1) for j in range(1, s + 1)):
                    best = max(best, bin(mask).count("1"))
            return best

        for k, n in ((5, 12), (4, 9)):
            if n - 2 * k - 1 < 1:
                continue
            m, s = n - 2 * k - 1, n // 3
            assert build_extremal_digraph(k, n).edge_count == brute_max(m, s)

    def test_degree_caps_hold(self):
        for k, n in ((5, 12), (6, 15), (7, 18), (8, 18), (13, 30)):
            m = n - 2 * k - 1
            d = build_extremal_digraph(k, n)
            ind, out = d.indegrees(), d.outdegrees()
            for j in range(1, d.order + 1):
                assert ind[j - 1] <= min(m + out[j - 1], j - 1)

    def test_indegree_formula_matches_construction(self):
        for n in range(6, 61, 3):
            for k in range(n // 3 + 1, (n - 1) // 2 + 1):
                if n - 2 * k - 1 < 1:
                    continue
                d = build_extremal_digraph(k, n)
                formula = sorted(
                    extremal_indegree(k, n, i) for i in range(1, n // 3 + 1)
                )
                assert sorted(d.indegrees()) == formula
                assert sum(formula) == extremal_edge_count(k, n)

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            build_extremal_digraph(3, 9)  # k <= n/3
        with pytest.raises(UndefinedWindowError):
            build_extremal_digraph(4, 9)  # empty window

    @pytest.mark.parametrize("i", [0, 5])
    def test_indegree_refuses_a_vertex_outside_the_digraph(self, i):
        # k = 5, n = 12: vertices 1..4.
        with pytest.raises(ValueError, match=r"vertex index must be in 1\.\.4"):
            extremal_indegree(5, 12, i)


class TestHomogeneousLowerBound:
    def test_empty_window_error(self):
        # The empty window leaves hom undefined.
        assert bound_report(4, 9).hom_num is None

    def test_zero_below_one_third(self):
        assert bound_report(3, 9).hom_num == 0
        assert bound_report(2, 12).hom_num == 0

    def test_value_and_sharp_companion(self):
        # closed form: Y - het; sharp companion: 3 * (C(s,2) - E)
        r = bound_report(5, 12)
        hom = F(r.hom_num, r.y_den)
        assert hom == F(143, 3) - 42
        sharp_hom = r.l - r.het
        assert sharp_hom == 48 - 42 == 3 * (math.comb(4, 2) - extremal_edge_count(5, 12))
        assert sharp_hom >= hom


class TestSharpBound:
    def test_examples(self):
        assert bound_report(5, 12).l == 48
        assert bound_report(2, 9).l == 9  # k <= n/3 branch
        assert bound_report(6, 15).l == 66

    def test_sharp_minus_closed_form_example(self):
        assert bound_report(5, 12).l - kset_lower_bound(5, 12) == F(1, 3)

    def test_window_error(self):
        # The empty window leaves L undefined.
        assert bound_report(4, 9).l is None

    def test_checked_against_closed_form(self, monkeypatch):
        # Too many extremal edges would put L below Y: every report checks.
        monkeypatch.setattr(bounds_mod, "_edge_summands", lambda m, s: (10**6, 0, 0))
        with pytest.raises(AssertionError, match="fell below the closed form"):
            bound_report(5, 12)


class TestSlackQuartic:
    def test_values(self):
        assert slack_quartic(0, 1) == 0
        assert slack_quartic(1, 1) == 0
        # numerator at b = 1 is 12 (r - 1)^2, so r = 2 gives 12/16
        assert slack_quartic(1, 2) == F(3, 4)
        assert slack_quartic(2, 1) == 2

    def test_continuous_minimizer_identity(self):
        # both sides are degree-4 polynomials in b, so equality at 6 points
        # proves the identity; check many more anyway
        for b in range(0, 41):
            r0 = F(b + 1, 2)
            assert slack_quartic(b, r0) == F((b + 3) * (b + 1) * (b - 1), 8)

    def test_minimum_on_integer_domain(self):
        values = {
            (b, r): slack_quartic(b, r) for b in range(0, 60) for r in range(1, b + 2)
        }
        assert min(values.values()) == 0
        assert values[(0, 1)] == 0
        assert all(v >= F(-1, 3) for v in values.values())


class TestMinKsetCount:
    def test_examples(self):
        assert bound_report(3, 9).ceil_y == 18
        assert bound_report(1, 9).ceil_y == 3
        assert bound_report(5, 12).ceil_y == 48

    def test_empty_window_fallback(self):
        assert bound_report(4, 9).ceil_y == 3 * math.comb(5, 2)
        assert bound_report(1, 3).ceil_y == 3
        assert bound_report(7, 15).ceil_y == 3 * math.comb(8, 2)


class TestCrossingBound:
    def test_coefficient_six_decimals(self):
        assert round(crossing_coefficient(), 6) == 0.380029

    def test_identity_with_closed_form(self):
        import mpmath

        with mpmath.workdps(40):
            closed = float((mpmath.mpf(2) / 27) * (15 - mpmath.pi**2))
        assert abs(crossing_coefficient() - closed) < 1e-10

    def test_rational_identity_is_exact(self):
        # 3/8 + 1/216 + (2/27)(79/8 - pi^2) = (2/27)(15 - pi^2): the rational
        # parts agree exactly, and the coefficient is 10/9 - (2/27) pi^2.
        assert F(3, 8) + F(1, 216) + F(2, 27) * F(79, 8) == F(2, 27) * 15 == F(10, 9)
        assert crossing_coefficient() == 10 / 9 - 2 * math.pi**2 / 27

    def test_gap_closure(self):
        closure = (crossing_coefficient() - GENERAL_LOWER_COEFFICIENT) / (
            BEST_UPPER_COEFFICIENT - GENERAL_LOWER_COEFFICIENT
        )
        assert closure > 0.40

    def test_finite_n_ratio_approaches_coefficient(self):
        coeff = crossing_coefficient()
        ratios = {
            n: crossing_lower_bound(n) / math.comb(n, 4) for n in (30, 90, 150, 300)
        }
        # cubic-order error band: |ratio - coeff| = O(1/n)
        for n, ratio in ratios.items():
            assert abs(ratio - coeff) < 12.0 / n
        assert abs(ratios[300] - coeff) < abs(ratios[30] - coeff)

    def test_small_value(self):
        # n = 6: weights (n-2k-1) = 3, 1 for k = 1, 2
        assert bound_report(1, 6).ceil_y == 3 and bound_report(2, 6).ceil_y == 9
        assert crossing_lower_bound(6) == 3 * 3 + 1 * 9 == 18


class TestSeriesAndIntegrals:
    def test_report(self):
        report = series_and_integral_report(terms=1000)
        assert report.series_ok and report.ok
        assert report.series_error <= 1e-9
        quoted = {c.name: c for c in report.integrals}
        assert abs(quoted["(1-2x)x^2 on [0,1/2]"].exact - 1 / 96) == 0
        assert abs(quoted["(1-2x)(x-1/3)^2 on [1/3,1/2]"].exact - 1 / 7776) == 0
        # j = 2 window: delta = 1/18, closed form delta^4/6 = 1/629856
        assert abs(quoted["window integral j=2"].exact - 1 / 629856) < 1e-18

    def test_quadratures_match_mpmath(self):
        import mpmath

        with mpmath.workdps(40):
            lefts = {
                "(1-2x)x^2 on [0,1/2]": mpmath.mpf(0),
                "(1-2x)(x-1/3)^2 on [1/3,1/2]": mpmath.mpf(1) / 3,
            }
            for j in (2, 3, 4):
                lefts[f"window integral j={j}"] = 0.5 - 1 / mpmath.mpf(3 * j * (j + 1))
            checks = series_and_integral_report().integrals
            assert [c.name for c in checks] == list(lefts)
            for c in checks:
                a = lefts[c.name]
                oracle = mpmath.quad(lambda x: (1 - 2 * x) * (x - a) ** 2, [a, 0.5])
                assert abs(c.quadrature - float(oracle)) <= 1e-12, c.name

    def test_series_tail_shrinks(self):
        short = series_and_integral_report(terms=50).series_error
        long = series_and_integral_report(terms=1000).series_error
        assert long < short


class TestBoundReport:
    def test_regular_case(self):
        br = bound_report(5, 12)
        assert (br.y, br.l, br.edges, br.ceil_y) == (F(143, 3), 48, 4, 48)
        assert br.edge_summands == (2, 0, 2)

    def test_empty_window_case(self):
        br = bound_report(4, 9)
        assert br.m == 0
        assert br.y is None and br.l is None and br.edges is None
        assert br.ceil_y == 30

    def test_low_k_case(self):
        br = bound_report(2, 9)
        assert br.l == 9 and br.edges is None and br.hom_num == 0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=2, max_value=1000).map(lambda t: 3 * t),
        k=st.integers(min_value=1, max_value=1499),
    )
    @example(n=438, k=218)  # Y = 90398, an integer
    @example(n=9, k=4)  # the empty window
    def test_integer_fields_equal_fraction_recomputation(self, n, k):
        # Y, ceil(Y), hom and L are derived on integers; each must be what
        # Fraction arithmetic on the term-by-term Y gives: Y and hom as
        # Fractions, L as an int.
        assume(2 * k < n)
        s, m = n // 3, n - 2 * k - 1
        het = 3 * math.comb(k + 1, 2) if k <= s else 3 * math.comb(s + 1, 2) + (k - s) * n
        br = bound_report(k, n)
        assert br.het == het
        if m == 0:
            assert br.y is None and br.ceil_y == 3 * math.comb(k + 1, 2)
            return
        depth, y = kset_lower_bound_by_fractions(k, n)
        if k <= s:
            hom, sharp = F(0), F(3 * math.comb(k + 1, 2))
        else:
            hom, sharp = y - het, F(het + 3 * (math.comb(s, 2) - extremal_edge_count(k, n)))
        assert (br.depth, br.y, br.ceil_y, F(br.hom_num, br.y_den), br.l) == (
            depth, y, math.ceil(y), hom, sharp
        )
        assert type(br.y) is Fraction
        assert type(br.hom_num) is type(br.l) is int
        assert br.l >= br.y

    def test_equals_single_quantity_functions(self):
        # bound_report computes Y once per (k, n); every field must be what
        # the public functions for Y and E return on their own, or the
        # definition on them of ceil(Y), het, hom and L, and the depth b the
        # one with C(b+1,2) < n/m <= C(b+2,2).
        for n in range(3, 151, 3):
            s = n // 3
            for k in range(1, (n - 1) // 2 + 1):
                m = n - 2 * k - 1
                extremal = k > s and m >= 1
                y = kset_lower_bound(k, n) if m >= 1 else None
                low = 3 * math.comb(k + 1, 2)
                het = low if k <= s else 3 * math.comb(s + 1, 2) + (k - s) * n
                if k <= s:
                    hom, sharp = F(0), low
                elif extremal:
                    hom = y - het
                    sharp = het + 3 * (math.comb(s, 2) - extremal_edge_count(k, n))
                else:
                    hom = sharp = None
                # The report holds Y in lowest terms and hom over Y's denominator.
                den = 1 if y is None else y.denominator
                expected = BoundReport(
                    n=n,
                    k=k,
                    m=m,
                    s=s,
                    depth=_threshold(n, m) if m >= 1 else None,
                    y_num=None if y is None else y.numerator,
                    y_den=None if y is None else den,
                    ceil_y=low if y is None else math.ceil(y),
                    het=het,
                    hom_num=None if hom is None else int(hom * den),
                    edges=extremal_edge_count(k, n) if extremal else None,
                    edge_summands=extremal_edge_summands(k, n) if extremal else None,
                    l=sharp,
                )
                got = bound_report(k, n)
                assert got == expected
                assert [type(v) for v in got._asdict().values()] == [
                    type(v) for v in expected._asdict().values()
                ]
                assert type(got.y) is type(y) and got.y == y

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(min_value=1, max_value=1000).map(lambda t: 3 * t),
        k=st.integers(min_value=1, max_value=1499),
    )
    @example(n=9, k=4)  # m = 0 with k > s
    @example(n=300, k=100)  # k = s
    @example(n=300, k=101)  # k = s + 1
    @example(n=438, k=218)  # Y = 90398, an integer
    @example(n=3, k=1)  # m = 0 with k <= s, and no bounds row (C(3,4) = 0)
    def test_fields_accessors_and_cells_equal_the_fraction_oracle(self, n, k):
        # The integer pass against the earlier Fraction derivation: every
        # field and accessor, and every cell of the bounds row.
        assume(2 * k < n)
        expected = bound_report_by_fractions(k, n)
        table = bound_table(n, (k,))
        (got,) = table.reports
        assert got == bound_report(k, n)
        # The oracle's hom_lower is the report's hom_num over y_den.
        fields = {**got._asdict(), "y": got.y, "hom_lower": None if got.hom_num is None
                  else F(got.hom_num, got.y_den or 1)}
        for name, value in expected._asdict().items():
            assert fields[name] == value, name
            assert type(fields[name]) is type(value), name
        if expected.y is None:
            assert (got.y_num, got.y_den) == (None, None)
        else:
            assert math.gcd(got.y_num, got.y_den) == 1 and got.y_den > 0
        assert str(cli_mod._cell(got.y_num, got.y_den)) == (
            "undefined" if expected.y is None else str(expected.y)
        )
        if n >= 6:
            (line,) = cli_mod._bounds_rows([n], k)
            assert line == ",".join(bounds_cells_by_fractions(expected, table.crossing))


class TestBoundTable:
    def test_crossing_equals_per_k_sum(self):
        for n in range(3, 301, 3):
            assert crossing_lower_bound(n) == crossing_lower_bound_by_terms(n)

    def test_reports_equal_bound_report(self):
        for n in range(3, 301, 3):
            table = bound_table(n)
            assert table.n == n
            assert [r.k for r in table.reports] == list(range(1, (n - 1) // 2 + 1))
            for got in table.reports:
                expected = bound_report(got.k, n)
                assert got == expected
                assert [type(v) for v in got._asdict().values()] == [
                    type(v) for v in expected._asdict().values()
                ]

    def test_one_pass_keeps_the_reports_asked_for(self):
        # The table kept for one k holds that k's report alone, and the table
        # kept for none holds no report; both sum the whole crossing bound.
        for n in range(3, 301, 3):
            crossing = bound_table(n).crossing
            assert bound_table(n, ()) == (n, (), crossing)
            k_max = (n - 1) // 2
            for k in {1, n // 3, n // 3 + 1, k_max - 1, k_max} & set(range(1, k_max + 1)):
                assert bound_table(n, (k,)) == (n, (bound_report(k, n),), crossing)
            assert bound_table(n, (0, k_max + 1)).reports == ()

    def test_one_kept_report_holds_little_memory(self):
        # The pass holds the reports it keeps and the running sum, not the
        # 1499 reports of n = 3000 (about 830 KB).
        tracemalloc.start()
        try:
            table = bound_table(3000, (1,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.k for r in table.reports] == [1]
        assert peak < 64 * 1024

    def test_a_dropped_k_still_checks_l_against_y(self, monkeypatch):
        # Every k derives E and L and checks L >= Y, kept or not: an edge
        # count too large for any digraph on s vertices puts L below Y at
        # every k > n/3, which neither keep below holds.
        monkeypatch.setattr(bounds_mod, "_edge_summands", lambda m, s: (s * s, 0, 0))
        for keep in ((1,), ()):
            with pytest.raises(AssertionError, match="fell below the closed form"):
                bound_table(30, keep)

    def test_slack_sweep_reads_the_gap(self):
        # The slack suite's pair sweep reads L - Y off the tables.
        gaps = [
            bound_report(k, n).l - kset_lower_bound(k, n)
            for n in range(6, 61, 3)
            for k in range(1, (n - 1) // 2 + 1)
            if n - 2 * k - 1 >= 1
        ]
        check = slack_suite(max_b=0, max_n=60).checks[1]
        assert check.ok
        assert check.name == f"sharp >= closed form, n<=60 ({len(gaps)} pairs)"
        assert check.detail == f"min gap {min(gaps)}"

    def test_builds_no_fraction(self, monkeypatch):
        # The pass derives every quantity on integers; only reading an
        # accessor builds a Fraction.
        built = []

        class Counted(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(bounds_mod, "Fraction", Counted)
        table = bound_table(300)
        assert len(table.reports) == 149 and built == []
        assert table.reports[-1].y == F(877943, 21)
        assert len(built) == 1

    def test_rejects_bad_n(self):
        for n in (0, -3, 1, 10):
            with pytest.raises(ValueError):
                bound_table(n)
            with pytest.raises(ValueError):
                crossing_lower_bound(n)
