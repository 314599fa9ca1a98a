"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All tolerances are
pinned here: combinatorial checks are exact (integer/rational equality);
the transcendental checks use SERIES_TOL = 1e-9, QUAD_TOL = 1e-12,
COEFF_IDENTITY_TOL = 1e-10, and six-decimal rounding for the coefficient.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from ksetlab import (
    bound_report,
    build_extremal_digraph,
    build_halfperiod,
    check_partition,
    critical_counts,
    crossing_coefficient,
    crossing_number,
    extremal_edge_count,
    find_partition,
    generate,
    k_set_oracle,
    kset_lower_bound,
    kset_vector_from_halfperiod,
    series_and_integral_report,
    slack_quartic,
)
from ksetlab.bounds import BEST_UPPER_COEFFICIENT, GENERAL_LOWER_COEFFICIENT
from ksetlab.verify import random_general_position_set

from support import dot_point

SERIES_TOL = 1e-9
QUAD_TOL = 1e-12
COEFF_IDENTITY_TOL = 1e-10

GENERATED_NS = (6, 9, 12, 15, 18)
SETS_PER_N = 50


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def generated_sets():
    """50 3-decomposable sets per size: 40 triangle-cluster + 10 template."""
    sets = {}
    for n in GENERATED_NS:
        batch = [generate(n, seed) for seed in range(40)]
        batch += [
            generate(n, seed, shape="near-optimal-template") for seed in range(10)
        ]
        sets[n] = batch
    return sets


def test_criterion_1_oracle_equivalence():
    mismatches = 0
    total = 0
    for n in range(4, 13):
        for t in range(20):
            ps = random_general_position_set(n, 1000 + 97 * n + t)
            total += 1
            fast = kset_vector_from_halfperiod(build_halfperiod(ps))
            if fast != k_set_oracle(ps):
                mismatches += 1
    for n in (6, 9, 12):
        for seed in range(3):
            ps = generate(n, seed)
            total += 1
            if kset_vector_from_halfperiod(build_halfperiod(ps)) != k_set_oracle(ps):
                mismatches += 1
    report(
        "C1 oracle equivalence",
        mismatches == 0,
        f"{total} sets, every k, exact",
    )


def test_criterion_2_crossing_identity_residual():
    # cr(S) - sum_k (n-2k-1) e_{<=k}(S) must be a constant depending only
    # on n.  The expected constants were derived by hand from the double
    # count sum_{pairs} j(n-2-j) = 3 C(n,4) - cr (each convex quadruple is
    # counted by its two diagonals, each non-convex one by its three
    # spokes), giving 3C(n,4) - ((n-1)(n-3)/4) C(n,2) for odd n and
    # 3C(n,4) - (1 + n(n-4)/4) C(n,2) for even n.
    expected = {}
    for n in range(5, 13):
        if n % 2:
            expected[n] = 3 * math.comb(n, 4) - (n - 1) * (n - 3) * math.comb(n, 2) // 4
        else:
            expected[n] = 3 * math.comb(n, 4) - (1 + n * (n - 4) // 4) * math.comb(n, 2)

    ok = True
    for n in range(5, 13):
        residuals = set()
        for t in range(5):
            ps = random_general_position_set(n, 5000 + 31 * n + t)
            vec = k_set_oracle(ps)
            weighted = sum(
                (n - 2 * k - 1) * vec.prefix[k] for k in range(1, (n - 1) // 2 + 1)
            )
            residuals.add(crossing_number(ps) - weighted)
        if len(residuals) != 1 or residuals != {expected[n]}:
            ok = False
    report("C2 crossing identity residual", ok, "constant per n in 5..12, exact")


def test_criterion_3_heterogeneous_exactness(generated_sets):
    # Three clauses.  The first and third hold exactly.  The middle-range
    # per-i clause is checked in both possible readings of "i-critical
    # count" (swaps at the mirrored sites {i, n-i}, per the definition, and
    # swaps at site i alone) and holds in neither: the mirrored count is n
    # for every n/3 < i < n/2 (the two stated values 2n-3i and 3i-n are
    # only a per-mirror-pair split of that n, and actual halfperiods
    # realize a different split; tight clusters give the site profile
    # n - i).  Kept as stated deliberately; see the decisions ledger.
    low_ok = middle_mirrored_ok = middle_site_ok = prefix_ok = True
    for n in (6, 9, 12, 15):
        s = n // 3
        for ps in generated_sets[n][:10]:
            witness = check_partition(ps)
            h = build_halfperiod(ps, witness.directions[0])
            rep = critical_counts(h, 1)
            per_site = rep.het_by_position
            for i in range(1, s + 1):
                if rep.i_critical_het[i] != 3 * i:
                    low_ok = False
            for i in range(s + 1, 2 * s):
                mirrored = per_site[i] + (per_site[n - i] if i != n - i else 0)
                if mirrored != 2 * n - 3 * i:
                    middle_mirrored_ok = False
                if per_site[i] != 2 * n - 3 * i:
                    middle_site_ok = False
            for k in range(1, (n - 1) // 2 + 1):
                if critical_counts(h, k).het != bound_report(k, n).het:
                    prefix_ok = False
    middle_ok = middle_mirrored_ok or middle_site_ok
    report(
        "C3 heterogeneous exactness",
        low_ok and middle_ok and prefix_ok,
        f"3i clause {'PASS' if low_ok else 'FAIL'}; "
        f"2n-3i clause {'PASS' if middle_ok else 'FAIL'} "
        "(actual mirrored counts are n, site profile n-i on cluster sets); "
        f"prefix sums {'PASS' if prefix_ok else 'FAIL'}",
    )


def test_criterion_4_kset_bound_at_desk_scale(generated_sets):
    violations = 0
    checked = 0
    for n in GENERATED_NS:
        for ps in generated_sets[n]:
            vec = kset_vector_from_halfperiod(build_halfperiod(ps))
            for k in range(1, (n - 1) // 2 + 1):
                checked += 1
                if vec.prefix[k] < bound_report(k, n).ceil_y:
                    violations += 1
    report(
        "C4 k-set bound on generated sets",
        violations == 0,
        f"{SETS_PER_N} sets per n in {GENERATED_NS}, {checked} inequalities",
    )


def test_criterion_5_extremal_digraph_consistency():
    ok = True
    pairs = 0
    for n in range(6, 61, 3):
        s = n // 3
        for k in range(s + 1, (n - 1) // 2 + 1):
            m = n - 2 * k - 1
            if m < 1:
                continue
            pairs += 1
            d = build_extremal_digraph(k, n)
            if d.edge_count != extremal_edge_count(k, n):
                ok = False
            ind, out = d.indegrees(), d.outdegrees()
            for j in range(1, s + 1):
                if ind[j - 1] > min(m + out[j - 1], j - 1):
                    ok = False
    report("C5 extremal digraph consistency", ok, f"{pairs} (k, n) pairs, n <= 60")


def test_criterion_6_quartic_scan_and_bound_gap():
    minimum = None
    argmin = None
    ok = True
    for b in range(0, 1001):
        for r in range(1, b + 2):
            v = slack_quartic(b, r)
            if v < Fraction(-1, 3):
                ok = False
            if minimum is None or v < minimum:
                minimum, argmin = v, (b, r)
    if minimum != 0 or argmin != (0, 1):
        ok = False
    for n in range(6, 301, 3):
        for k in range(1, (n - 1) // 2 + 1):
            if n - 2 * k - 1 < 1:
                continue
            if bound_report(k, n).l < kset_lower_bound(k, n):
                ok = False
    report(
        "C6 quartic scan and bound gap",
        ok,
        f"b <= 1000 (min {minimum} at {argmin}); sharp >= closed form, n <= 300",
    )


def test_criterion_7_coefficient_reproduction():
    coeff = crossing_coefficient()
    with mpmath.workdps(40):
        closed = float((mpmath.mpf(2) / 27) * (15 - mpmath.pi**2))
    six_dp = round(coeff, 6) == 0.380029
    identity = abs(coeff - closed) <= COEFF_IDENTITY_TOL
    closure = (coeff - GENERAL_LOWER_COEFFICIENT) / (
        BEST_UPPER_COEFFICIENT - GENERAL_LOWER_COEFFICIENT
    )
    report(
        "C7 coefficient reproduction",
        six_dp and identity and closure > 0.40,
        f"coefficient {coeff:.7f}, gap closure {closure:.4f}",
    )


def test_criterion_8_series_and_integrals():
    rep = series_and_integral_report(terms=1000)
    ok = rep.series_error <= SERIES_TOL and all(
        c.error <= QUAD_TOL for c in rep.integrals
    )
    closed_forms = {c.name: c.exact for c in rep.integrals}
    ok = ok and closed_forms["(1-2x)x^2 on [0,1/2]"] == 1 / 96
    ok = ok and closed_forms["(1-2x)(x-1/3)^2 on [1/3,1/2]"] == 1 / 7776
    ok = ok and abs(closed_forms["window integral j=2"] - (1 / 18) ** 4 / 6) == 0
    report(
        "C8 series and integrals",
        ok,
        f"series error {rep.series_error:.2e} <= 1e-9, quadrature <= 1e-12",
    )


def test_criterion_9_decomposability_soundness(generated_sets):
    ok = True
    for n in GENERATED_NS:
        for ps in generated_sets[n]:
            witness = check_partition(ps)
            if witness is None:
                ok = False
                continue
            # re-verify each witness direction by exact projection sorting
            for direction, order in zip(
                witness.directions, (("a", "b", "c"), ("b", "a", "c"), ("b", "c", "a"))
            ):
                ranked = sorted(
                    range(ps.n), key=lambda i: dot_point(direction, ps.points[i])
                )
                seen = [witness.partition[i] for i in ranked]
                s = ps.n // 3
                if seen != [order[0]] * s + [order[1]] * s + [order[2]] * s:
                    ok = False
    for n in (6, 9, 12):
        stripped = generate(n, 7).with_labels(None)
        found = find_partition(stripped)
        if found is None or check_partition(stripped, found.partition) is None:
            ok = False
    report(
        "C9 decomposability soundness",
        ok,
        "witnesses re-verified; stripped labels recovered",
    )
