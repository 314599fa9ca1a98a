"""Verification suites: each one cross-checks a fast computation against an
independent oracle or sweeps an exact inequality, and returns a structured
result the CLI can render as JSON.  A counted check passes exactly when
none of its cases failed; when some did, its detail is "N mismatches" (or
"N violations" for the degree caps).
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
            "checks": [c._asdict() for c in self.checks],
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


def _tally(name: str, bad: int, ok_detail: str, bad_noun: str = "mismatches") -> CheckResult:
    """The check ``name`` over counted cases, ``bad`` of which failed."""
    return CheckResult(name, bad == 0, f"{bad} {bad_noun}" if bad else ok_detail)


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
    return PointSet(draw.points)


def oracle_suite(max_n: int = 12, sets_per_n: int = 20) -> SuiteResult:
    """Halfperiod k-set counts must equal the brute-force pair-line oracle,
    on random sets of every size 4..max_n and on generated 3-decomposable
    sets.  ``run_suite("oracle", ...)`` refuses a ``max_n`` above the
    oracle's cap, or a value below its least in ``SUITE_OPTIONS``, before
    it draws any set."""
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
    return _finish("oracle", [
        _tally(name, sum(
            circular.kset_vector_from_sites(ps.n, circular.site_counts(ps)[0])
            != k_set_oracle(ps)
            for ps in sets
        ), "halfperiod counts = oracle counts")
        for name, sets in groups
    ])


def edges_suite(max_n: int = 60) -> SuiteResult:
    """The greedy extremal digraph's degrees vs closed-form edge count, degree
    caps, and the closed-form indegree multiset (``bounds._indegrees``'s
    sorted walk, O(s) per (k, n)), for valid (k, n) to max_n."""
    pairs = 0
    bad_count = bad_degree = bad_multiset = 0
    for n in range(6, max_n + 1, 3):
        s = n // 3
        for k in range(s + 1, (n - 1) // 2 + 1):
            m = n - 2 * k - 1
            if m < 1:
                continue
            pairs += 1
            ind, out = bounds._extremal_degrees(m, s)
            if sum(ind) != bounds.extremal_edge_count(k, n):
                bad_count += 1
            # Vertex j = v + 1: ind(j) <= min(m + outd(j), j - 1).
            if any(d > v or d > m + o for v, d, o in zip(range(s), ind, out)):
                bad_degree += 1
            if sorted(ind) != bounds._indegrees(m, s):
                bad_multiset += 1
    return _finish("edges", [
        _tally(f"edge counts ({pairs} pairs)", bad_count, "greedy = closed form"),
        _tally("degree caps", bad_degree, "ind <= min(m + outd, j-1) everywhere",
               "violations"),
        _tally("indegree multisets", bad_multiset,
               "greedy realizes the closed-form indegrees"),
    ])


def slack_suite(max_b: int = 1000, max_n: int = 300) -> SuiteResult:
    """Scan the slack quartic over its integer domain and sweep the sharp
    bound against the closed form."""
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
    # The least gap L - Y as (L*den - num, den), compared by cross-multiplying.
    worst: tuple[int, int] | None = None
    negative = 0
    pairs = 0
    for n in range(6, max_n + 1, 3):
        for report in bounds.bound_table(n).reports:
            if report.y_num is None:
                continue
            pairs += 1
            gap, den = report.l * report.y_den - report.y_num, report.y_den
            if worst is None or gap * worst[1] < worst[0] * den:
                worst = (gap, den)
            if gap < 0:
                negative += 1
    return _finish("slack", [
        CheckResult(f"quartic scan b <= {max_b}",
                    below == 0 and minimum == 0 and argmin == (0, 1),
                    f"min {minimum} at {argmin}, {below} values below -1/3"),
        CheckResult(f"sharp >= closed form, n<={max_n} ({pairs} pairs)", negative == 0,
                    f"min gap {worst and Fraction(*worst)}"),
    ])


def series_suite(terms: int = 1000) -> SuiteResult:
    """Series and quadrature confirmations of the asymptotic coefficient."""
    report = bounds.series_and_integral_report(terms)
    coeff = bounds.crossing_coefficient()
    return _finish("series", [
        CheckResult(f"series partial sum ({terms} terms)", report.series_ok,
                    f"|sum - (79/8 - pi^2)| = {report.series_error:.3e}"),
        *(CheckResult(c.name, c.ok, f"error {c.error:.3e}") for c in report.integrals),
        CheckResult("coefficient value", round(coeff, 6) == 0.380029,
                    f"coefficient = {coeff:.10f}"),
    ])


SUITES = {
    "oracle": oracle_suite,
    "edges": edges_suite,
    "slack": slack_suite,
    "series": series_suite,
}
#: The parameters of each suite, which ``verify`` fills from its options,
#: as (least value, greatest value or None).  Only the oracle has a
#: greatest, its cap.  The edges and slack sweeps start at n = 6, and the
#: series needs SERIES_MIN_TERMS to meet its tolerance.
SUITE_OPTIONS = {
    "oracle": {"max_n": (1, DEFAULT_ORACLE_CAP), "sets_per_n": (1, None)},
    "edges": {"max_n": (6, None)},
    "slack": {"max_b": (0, None), "max_n": (6, None)},
    "series": {"terms": (bounds.SERIES_MIN_TERMS, None)},
}


def check_options(name: str, **options: int) -> None:
    """Refuse a value ``run_suite(name, **options)`` cannot use, before any
    work: ``ValueError`` below its least in ``SUITE_OPTIONS``, and
    ``OracleSizeError`` above the oracle's cap.  An option the suite does
    not take is left for the suite to refuse (``TypeError``)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    for option, value in options.items():
        least, most = SUITE_OPTIONS[name].get(option, (value, None))
        if value < least:
            raise ValueError(f"the {name} suite needs {option} at least {least}, got {value}")
        if most is not None and value > most:
            raise OracleSizeError(f"oracle capped at n <= {most}, got {option} = {value}")


def run_suite(name: str, **kwargs: int) -> SuiteResult:
    check_options(name, **kwargs)
    return SUITES[name](**kwargs)
