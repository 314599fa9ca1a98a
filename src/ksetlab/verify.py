"""Verification suites: each one cross-checks a fast computation against an
independent oracle or sweeps an exact inequality, and returns a structured
result the CLI can render as JSON.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from . import bounds, circular, decompose
from .errors import OracleSizeError
from .geometry import DEFAULT_ORACLE_CAP, DRAWS_PER_POINT, GeneralPositionDraw, PointSet
from .geometry import k_set_oracle


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class SuiteResult(NamedTuple):
    suite: str
    ok: bool
    checks: tuple[CheckResult, ...]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "passed": sum(1 for c in self.checks if c.ok),
            "failed": sum(1 for c in self.checks if not c.ok),
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


#: Random sets have integer coordinates in [-RANDOM_SPREAD, RANDOM_SPREAD].
RANDOM_SPREAD = 60
#: The oracle suite checks random sets of size n with seeds
#: ORACLE_BASE_SEED + 97 n + t, and generate(n, seed) for these n and seeds.
ORACLE_BASE_SEED = 1000
ORACLE_GENERATED_NS = (6, 9, 12)
ORACLE_GENERATED_SEEDS = (0, 1, 2)


def _finish(name: str, checks: list[CheckResult]) -> SuiteResult:
    return SuiteResult(name, all(c.ok for c in checks), tuple(checks))


def random_general_position_set(n: int, seed: int) -> PointSet:
    """Deterministic random point set with integer coordinates in general
    position: each point is drawn uniformly from [-spread, spread]^2,
    spread = max(RANDOM_SPREAD, n), until ``GeneralPositionDraw`` keeps it
    (it repeats no point and is collinear with no two).  Raises
    ``ValueError`` after ``DRAWS_PER_POINT * n`` draws."""
    spread = max(RANDOM_SPREAD, n)
    rng = random.Random(seed)
    draw = GeneralPositionDraw()
    for _ in range(DRAWS_PER_POINT * n):
        if len(draw.points) == n:
            break
        draw.offer((rng.randint(-spread, spread), rng.randint(-spread, spread)))
    if len(draw.points) < n:
        raise ValueError(f"seed {seed} kept {len(draw.points)} points in general "
                         f"position after {DRAWS_PER_POINT * n} draws, got n = {n}")
    return PointSet.from_coords(draw.points)


def oracle_suite(max_n: int = 12, sets_per_n: int = 20) -> SuiteResult:
    """Halfperiod k-set counts must equal the brute-force pair-line oracle,
    on random sets of every size 4..max_n and on generated 3-decomposable
    sets.  Raises ``OracleSizeError`` up front when ``max_n`` exceeds the
    oracle's cap."""
    if max_n > DEFAULT_ORACLE_CAP:
        raise OracleSizeError(
            f"oracle capped at n <= {DEFAULT_ORACLE_CAP}, got max_n = {max_n}"
        )
    groups = [
        (f"random n={n} ({sets_per_n} sets)",
         [random_general_position_set(n, ORACLE_BASE_SEED + 97 * n + t)
          for t in range(sets_per_n)])
        for n in range(4, max_n + 1)
    ] + [
        (f"generated n={n} ({len(ORACLE_GENERATED_SEEDS)} sets)",
         [decompose.generate(n, seed) for seed in ORACLE_GENERATED_SEEDS])
        for n in ORACLE_GENERATED_NS
    ]
    checks: list[CheckResult] = []
    for name, sets in groups:
        bad = sum(
            circular.kset_vector_from_sites(ps.n, circular.site_counts(ps)[0])
            != k_set_oracle(ps)
            for ps in sets
        )
        checks.append(
            CheckResult(
                name,
                bad == 0,
                f"{bad} mismatches" if bad else "halfperiod counts = oracle counts",
            )
        )
    return _finish("oracle", checks)


def edges_suite(max_n: int = 60) -> SuiteResult:
    """Greedy extremal digraph vs closed-form edge count, degree caps, and
    the closed-form indegree multiset, for all valid (k, n) up to max_n."""
    checks: list[CheckResult] = []
    pairs = 0
    bad_count = bad_degree = bad_multiset = 0
    for n in range(6, max_n + 1, 3):
        s = n // 3
        for k in range(s + 1, (n - 1) // 2 + 1):
            m = n - 2 * k - 1
            if m < 1:
                continue
            pairs += 1
            dig = bounds.build_extremal_digraph(k, n)
            if dig.edge_count != bounds.extremal_edge_count(k, n):
                bad_count += 1
            ind = dig.indegrees()
            out = dig.outdegrees()
            if any(
                ind[j - 1] > min(m + out[j - 1], j - 1) for j in range(1, s + 1)
            ):
                bad_degree += 1
            formula = sorted(bounds._indegree(m, i) for i in range(1, s + 1))
            if sorted(ind) != formula:
                bad_multiset += 1
    checks.append(
        CheckResult(
            f"edge counts ({pairs} pairs)",
            bad_count == 0,
            f"{bad_count} mismatches" if bad_count else "greedy = closed form",
        )
    )
    checks.append(
        CheckResult(
            "degree caps",
            bad_degree == 0,
            "ind <= min(m + outd, j-1) everywhere" if not bad_degree else f"{bad_degree} violations",
        )
    )
    checks.append(
        CheckResult(
            "indegree multisets",
            bad_multiset == 0,
            "greedy realizes the closed-form indegrees" if not bad_multiset else f"{bad_multiset} mismatches",
        )
    )
    return _finish("edges", checks)


def slack_suite(max_b: int = 1000, max_n: int = 300) -> SuiteResult:
    """Scan the slack quartic over its integer domain and sweep the sharp
    bound against the closed form."""
    checks: list[CheckResult] = []
    minimum = None
    argmin = None
    below = 0
    for b in range(max_b + 1):
        for r in range(1, b + 2):
            v = bounds.slack_quartic(b, r)
            if minimum is None or v < minimum:
                minimum, argmin = v, (b, r)
            if v < Fraction(-1, 3):
                below += 1
    checks.append(
        CheckResult(
            f"quartic scan b <= {max_b}",
            below == 0 and minimum == 0 and argmin == (0, 1),
            f"min {minimum} at {argmin}, {below} values below -1/3",
        )
    )
    worst: Fraction | None = None
    negative = 0
    pairs = 0
    for n in range(6, max_n + 1, 3):
        for report in bounds.bound_table(n).reports:
            if report.y is None:
                continue
            pairs += 1
            gap = report.l - report.y
            if worst is None or gap < worst:
                worst = gap
            if gap < 0:
                negative += 1
    checks.append(
        CheckResult(
            f"sharp >= closed form, n<={max_n} ({pairs} pairs)",
            negative == 0,
            f"min gap {worst}",
        )
    )
    return _finish("slack", checks)


def series_suite(terms: int = 1000) -> SuiteResult:
    """Series and quadrature confirmations of the asymptotic coefficient."""
    report = bounds.series_and_integral_report(terms)
    checks = [
        CheckResult(
            f"series partial sum ({terms} terms)",
            report.series_ok,
            f"|sum - (79/8 - pi^2)| = {report.series_error:.3e}",
        )
    ]
    for c in report.integrals:
        checks.append(CheckResult(c.name, c.ok, f"error {c.error:.3e}"))
    coeff = bounds.crossing_coefficient()
    checks.append(
        CheckResult(
            "coefficient value",
            round(coeff, 6) == 0.380029,
            f"coefficient = {coeff:.10f}",
        )
    )
    return _finish("series", checks)


SUITES = {
    "oracle": oracle_suite,
    "edges": edges_suite,
    "slack": slack_suite,
    "series": series_suite,
}
#: The parameters of each suite, which ``verify`` fills from its options.
SUITE_OPTIONS = {
    "oracle": ("max_n", "sets_per_n"),
    "edges": ("max_n",),
    "slack": ("max_b", "max_n"),
    "series": ("terms",),
}


def run_suite(name: str, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
