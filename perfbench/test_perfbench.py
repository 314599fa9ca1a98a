"""Tests of the benchmark itself: its input generator and its output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import random
import signal
import sys
import time
from pathlib import Path

import pytest

import checks
import spans
import workloads
from reference import Timed
from workloads import CallResult

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ksetlab import cli  # noqa: E402


def run_cli(argv: list[str]) -> CallResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return CallResult(rc, out.getvalue(), "")


@pytest.fixture
def random_set(tmp_path: Path) -> Path:
    path = tmp_path / "random.json"
    workloads.write_random_set(path, random.Random(7), 15)
    return path


def test_generator_is_deterministic_per_seed(tmp_path: Path) -> None:
    texts = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        path = tmp_path / f"{name}.json"
        workloads.write_random_set(path, random.Random(seed), 30)
        texts.append(path.read_text())
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_generator_gives_general_position_and_thirds(random_set: Path) -> None:
    points, labels = checks.read_point_file(random_set)
    pts = checks.integer_points(points)
    assert len(set(pts)) == len(pts) == 15
    checks.pair_low_counts(pts)  # raises on a collinear triple
    assert sorted(labels) == sorted("abc" * 5)
    assert any(q.denominator not in (1, 2, 4, 8, 16, 32) for p in points for q in p)


def test_pair_low_counts_rejects_collinear_triple() -> None:
    with pytest.raises(ValueError):
        checks.pair_low_counts([(0, 0), (1, 1), (2, 2), (0, 5)])


def test_hull_vertex_count() -> None:
    assert checks.hull_vertex_count([(0, 0), (4, 0), (0, 4), (1, 1), (4, 4)]) == 4


def test_analyze_check_accepts_and_rejects_perturbed_e1(random_set: Path) -> None:
    result = run_cli(["analyze", "--input", str(random_set)])
    assert checks.check_analyze(result.rc, result.out, random_set, require_satisfied=False) == []
    lines = result.out.splitlines()
    cells = lines[1].split(",")
    cells[2] = str(int(cells[2]) + 1)  # e_k of the k = 1 row
    bad = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    problems = checks.check_analyze(result.rc, bad, random_set, require_satisfied=False)
    assert any("hull" in p for p in problems)


def test_analyze_check_rejects_wrong_exit_code(random_set: Path) -> None:
    result = run_cli(["analyze", "--input", str(random_set)])
    assert checks.check_analyze(1 - result.rc, result.out, random_set, require_satisfied=False)


def test_gen_check_accepts_and_rejects_swapped_direction(tmp_path: Path) -> None:
    path = tmp_path / "gen.json"
    result = run_cli(["gen", "--n", "12", "--seed", "5", "--out", str(path)])
    assert checks.check_gen(result.rc, result.out, path, 12) == []
    swapped = result.out.replace("l1 =", "tmp =").replace("l2 =", "l1 =").replace("tmp =", "l2 =")
    assert checks.check_gen(result.rc, swapped, path, 12)


def test_bounds_check_pin_and_altered_csv() -> None:
    result = run_cli(["bounds", "--n-range", workloads.BOUNDS_N_RANGE])
    assert checks.check_bounds(result.rc, result.out, workloads.BOUNDS_CSV_SHA256) == []
    header, first, rest = result.out.split("\r\n", 2)
    cells = first.split(",")
    cells[4] = "1/3"  # the Y cell of n = 6, k = 1
    altered = "\r\n".join([header, ",".join(cells), rest])
    assert checks.check_bounds(result.rc, altered, workloads.BOUNDS_CSV_SHA256)


def test_verify_check_rejects_failed_suite() -> None:
    result = run_cli(["verify", "--suite", "edges", "--max-n", "12"])
    assert checks.check_verify(result.rc, result.out, "edges") == []
    failed = result.out.replace('"ok": true', '"ok": false', 1)
    assert checks.check_verify(result.rc, failed, "edges")
    assert checks.check_verify(1, result.out, "edges")


def test_tracer_self_times_and_restore(tmp_path: Path) -> None:
    from ksetlab import circular, decompose

    original = circular.build_halfperiod
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert decompose.build_halfperiod is circular.build_halfperiod is not original
        tracer.begin_op(0)
        run_cli(["gen", "--n", "9", "--seed", "1", "--out", str(tmp_path / "g.json")])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert circular.build_halfperiod is original
    assert decompose.build_halfperiod is original
    layers = spans.layer_metrics(tracer.spans, {0})
    assert layers["decompose.generate.calls"] == 1
    assert layers["circular.halfperiod.calls"] == 1
    assert layers["circular.swaps"] == 36
    assert layers["decompose.generator_yield"] == 1.0
    assert 0.5 < layers["trace.coverage"] <= 1.0  # argparse is outside every span
    op_s = (tracer.spans[0][2] - tracer.spans[0][1]) / 1e9
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(op_s * layers["trace.coverage"], rel=1e-6)


def test_timed_probes_during_block_and_restores_handler() -> None:
    previous = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with Timed() as timed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(timed.probes) >= 4  # one before, one after, and some inside
    assert 0 < timed.seconds < 0.3 < wall
    assert timed.reference_seconds > 0
