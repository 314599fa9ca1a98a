import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ksetlab
from ksetlab import (
    Point,
    PointSet,
    bounds,
    circular,
    cli,
    decompose,
    generate,
    geometry,
    load_point_set,
    save_point_set,
    verify,
)
from ksetlab.cli import main
from ksetlab.errors import OracleSizeError
from ksetlab.io import (
    _ratio,
    point_set_from_dict,
)
from ksetlab.verify import random_general_position_set

from support import (
    DEGENERATE_SETS,
    bounds_rows_by_fractions,
    csv_text_by_writer,
    general_position_by_triples,
    parse_fraction_whole,
    point_set_text_by_fractions,
    random_general_position_set_by_rejection,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_plain_cells(rows):
    """No cell holds a character that the excel dialect would quote."""
    assert not [c for row in rows for c in map(str, row) if set(c) & set(',"\r\n')]


#: ASCII and other Unicode decimal digits (Arabic-Indic, full-width),
#: zeros among them; ``_DIGITS`` adds the underscore ``Fraction`` allows
#: between digits.
_DECIMAL_CHARS = "0123456789\u0660\u0663\uff10\uff13"
_DECIMALS = st.text(st.sampled_from(_DECIMAL_CHARS), min_size=1, max_size=5)
_DIGITS = st.text(st.sampled_from(_DECIMAL_CHARS + "_"), max_size=5)
_SIGNS = st.sampled_from(["", "-", "+", "--"])
_SPACE = st.sampled_from(["", " ", "\t", " \n"])


@st.composite
def fraction_texts(draw):
    """Half of them a sign and ``digits/digits``: with no sign or "-" the
    strings read as two ints (leading zeros, Unicode digits, zero
    denominators).  The rest with underscores, an optional "/" with an
    empty, zero or signed denominator, or a decimal point and a small
    exponent, and padded."""
    if draw(st.booleans()):
        return draw(_SIGNS) + draw(_DECIMALS) + "/" + draw(_DECIMALS)
    text = draw(_SIGNS) + draw(_DIGITS)
    tail = draw(st.sampled_from(["", "/", ".", "e"]))
    if tail == "/":
        text += "/" + draw(_SIGNS) + draw(_DIGITS)
    elif tail:
        if tail == ".":
            text += "." + draw(_DIGITS)
        if tail == "e" or draw(st.booleans()):
            text += draw(st.sampled_from("eE")) + draw(_SIGNS)
            text += draw(st.text(st.sampled_from("0123456789_"), min_size=1, max_size=3))
    return draw(_SPACE) + text + draw(_SPACE)


#: Numerators beyond 2^53 as well as small ones; denominators sharing
#: powers of 2 and 5 as a generated file's do, and small ones.
_NUMERATORS = st.integers(-60, 60) | st.integers(-(10**30), 10**30)
_DENOMINATORS = st.sampled_from([1, 2, 8, 64, 640, 5120, 7, 9]) | st.integers(1, 30)


@st.composite
def point_set_files(draw):
    """The data of a point-set file, n = 0..12: "p/q" strings with
    negative and zero numerators, most of them unreduced (numerator and
    denominator times up to 9), and labels, in either case, for some sets
    of n a multiple of 3."""
    n = draw(st.integers(0, 12))

    def coordinate():
        k = draw(st.integers(1, 9))
        return f"{draw(_NUMERATORS) * k}/{draw(_DENOMINATORS) * k}"

    data = {"n": n, "points": [[coordinate(), coordinate()] for _ in range(n)]}
    if n % 3 == 0 and draw(st.booleans()):
        case = draw(st.sampled_from([str.lower, str.upper]))
        data["labels"] = [case(c) for c in draw(st.permutations("abc" * (n // 3)))]
    return data


def _read(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return "ValueError", str(exc)


class TestPointSetFiles:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(fraction_texts())
    @example("3/\u0660")
    @example("1" * 4301 + "/3")
    @example("-" + "1" * 4301 + "/3")
    @example("3/" + "1" * 4301)
    @example("-/3")
    @example("3/-4")
    @example("\uff13/\uff14")
    def test_parse_fraction_agrees_with_fraction(self, text):
        # The two-int read of "p/q" gives the value, or the ValueError
        # message, of reading the whole string with Fraction.
        whole = _read(lambda t: parse_fraction_whole(t).as_integer_ratio(), text)
        assert _read(_ratio, text) == whole

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(point_set_files())
    def test_grid_files_match_the_fraction_reader_and_writer(self, data):
        # A file read to the grid holds what the Fraction reader's points
        # scale to, and is written byte for byte as json.dumps writes the
        # Fraction points; neither builds them.
        points = [Point(parse_fraction_whole(x), parse_fraction_whole(y)) for x, y in data["points"]]
        expected = PointSet.from_coords(points, data.get("labels"))
        text = point_set_text_by_fractions(points, expected.labels).encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.json"
            path.write_text(json.dumps(data))
            ps = load_point_set(path)
            assert (ps.coords, ps.scale, ps.labels) == (
                expected.coords, expected.scale, expected.labels)
            save_point_set(ps, path)
            assert "points" not in ps.__dict__
            assert path.read_bytes() == text
            assert ps.points == tuple(points)
            save_point_set(expected, path)
            assert path.read_bytes() == text

    def test_round_trip(self, tmp_path):
        for seed in range(3):
            ps = generate(9, seed)
            path = tmp_path / f"s{seed}.json"
            save_point_set(ps, path)
            assert load_point_set(path) == ps

    def test_round_trip_unlabeled(self, tmp_path):
        ps = random_general_position_set(7, 77)
        path = tmp_path / "u.json"
        save_point_set(ps, path)
        assert load_point_set(path) == ps

    def test_fraction_strings(self):
        assert _ratio("3/4") == (3, 4)
        assert _ratio("-7/2") == (-7, 2)
        assert _ratio("15e-1") == (3, 2)
        assert _ratio("1e4300") == (10**4300, 1)

    @pytest.mark.parametrize("text", ["1e5000", "1e-5000", " 1E+5_000 "])
    def test_exponent_beyond_the_digit_limit_rejected(self, text):
        # Fraction reads 10**exponent, which the int digit limit does not
        # guard; without the check these parse in under a millisecond, but
        # an exponent in the millions runs for seconds.
        with pytest.raises(ValueError, match="exponent beyond 4300"):
            _ratio(text)

    def test_interpreter_without_a_digit_limit(self, monkeypatch):
        # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits; the
        # guards then use CPython's default of 4300.
        monkeypatch.setattr("ksetlab.io.sys", types.SimpleNamespace())
        assert _ratio("1/2") == (1, 2)
        with pytest.raises(ValueError, match="exponent beyond 4300"):
            _ratio("1e5000")

    def test_huge_common_denominator_rejected(self, tmp_path, capsys):
        # Twelve 901-digit denominators, pairwise nearly coprime: their lcm
        # passes 4300 digits at the sixth point.  Scaling to it made analyze
        # slow down about as n^3 (8 s at 12 points).
        points = [[f"1/{10**900 + i}", f"{i * i}/1"] for i in range(12)]
        src = tmp_path / "huge.json"
        src.write_text(json.dumps({"points": points}))
        start = time.perf_counter()
        assert main(["analyze", "--input", str(src)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds 4300 digits" in err
        assert err.count("\n") == 1

    def test_guard_reads_the_reduced_denominators(self, tmp_path):
        # Twelve 901-digit numbers, each over itself: the unreduced
        # denominators' lcm passes 4300 digits, the reduced ones are all 1.
        points = [[f"{10**900 + i}/{10**900 + i}", f"{i * i}/1"] for i in range(12)]
        src = tmp_path / "unreduced.json"
        src.write_text(json.dumps({"points": points}))
        ps = load_point_set(src)
        assert ps.scale == 1 and ps.coords == tuple((1, i * i) for i in range(12))

    def test_non_dyadic_sets_load_unchanged(self, tmp_path):
        # 60 points whose 120 coordinates have distinct odd prime
        # denominators (an lcm of about 280 digits), and a generated set.
        primes = [p for p in range(3, 700) if all(p % d for d in range(2, p))][:120]
        coords = [(Fraction(i + 1, primes[2 * i]), Fraction(i * i + 1, primes[2 * i + 1]))
                  for i in range(60)]
        path = tmp_path / "set.json"
        for ps in (PointSet.from_coords(coords), generate(60, 0)):
            save_point_set(ps, path)
            assert load_point_set(path) == ps

    def test_schema_fields(self, tmp_path):
        ps = generate(6, 0)
        path = tmp_path / "set.json"
        save_point_set(ps, path)
        d = json.loads(path.read_text())
        assert list(d) == ["n", "points", "labels"]
        assert d["n"] == 6 and len(d["points"]) == 6 and len(d["labels"]) == 6
        assert all("/" in x and "/" in y for x, y in d["points"])

    def test_n_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "points": [["0/1", "0/1"]]}))
        with pytest.raises(ValueError):
            load_point_set(path)

    @pytest.mark.parametrize("n", ["3", 3.0, True])
    def test_n_must_be_an_integer(self, n):
        # Refused as the wrong type, not as a count that disagrees.
        with pytest.raises(ValueError, match="'n' must be an integer"):
            point_set_from_dict({**TRIANGLE_JSON, "n": n})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_sampler_matches_rejection_loop(seed):
    for n in [*range(31), 45, 60]:
        expected = random_general_position_set_by_rejection(n, seed)
        assert random_general_position_set(n, seed) == expected


@pytest.mark.parametrize("n", [200, 243, 300])
def test_random_sampler_reaches_hundreds_of_points(n):
    # Past the sizes a 121 x 121 grid holds in general position: the
    # spread grows with n.
    ps = random_general_position_set(n, 0)
    assert ps.n == n and general_position_by_triples(ps)


class TestGenCommand:
    def test_gen_writes_and_prints_witness(self, tmp_path, capsys):
        out = tmp_path / "p9.json"
        assert main(["gen", "--n", "9", "--seed", "1", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "l1 =" in printed and "l2 =" in printed and "l3 =" in printed
        ps = load_point_set(out)
        assert ps.n == 9 and ps.labels is not None

    def test_gen_three_points(self, tmp_path):
        out = tmp_path / "p3.json"
        assert main(["gen", "--n", "3", "--seed", "0", "--out", str(out)]) == 0
        assert load_point_set(out).n == 3

    def test_gen_rejects_non_multiple(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["gen", "--n", "8", "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: n must be a positive multiple of 3, got 8\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, seed", [
        (["gen", "--n", "9", "--seed", "4"], 4),
        (["sweep", "--ns", "9", "--seeds", "1"], 0),
    ], ids=["gen", "sweep"])
    def test_gen_that_gives_up_exits_two(self, tmp_path, capsys, monkeypatch, argv, seed):
        # Every attempt fails the partition check, so the generator gives up;
        # sweep (serial) removes the --out file it opened before the work.
        monkeypatch.setattr(decompose, "check_partition", lambda ps: None)
        out = tmp_path / "x.json"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: generator gave up on n=9, seed={seed} after 256 ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestAnalyzeCommand:
    def test_analyze_generated_nine(self, tmp_path):
        src = tmp_path / "p9.json"
        save_point_set(generate(9, 1), src)
        out = tmp_path / "report.csv"
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["k"] for r in rows] == ["1", "2", "3", "4"]
        k3 = rows[2]
        assert k3["ceilY"] == "18" and k3["satisfied"] == "true"
        assert k3["Y"] == "53/3"
        k4 = rows[3]  # empty window: exact cells undefined, ceilY falls back
        assert k4["Y"] == "undefined" and k4["ceilY"] == "30"
        assert int(k4["e_le_k"]) == 36  # C(9,2): every pair is critical

    def test_require_decomp_builds_no_fraction_points(self, tmp_path, capsys):
        # A gen file is read straight to the integer grid: the partition
        # check, the partition search and the rows read only the grid.
        src = tmp_path / "g.json"
        assert main(["gen", "--n", "30", "--seed", "3", "--out", str(src)]) == 0
        ps = load_point_set(src)
        assert decompose.check_partition(ps) is not None
        cli._analyze_rows(ps, 1, 14)
        unlabeled = ps.with_labels(None)
        relabeled = unlabeled.with_labels(decompose.find_partition(unlabeled).partition)
        cli._analyze_rows(relabeled, 1, 14)
        assert all("points" not in s.__dict__ for s in (ps, unlabeled, relabeled))

    def test_analyze_triangle_single_row(self, tmp_path):
        src = tmp_path / "tri.json"
        save_point_set(PointSet.from_coords([(0, 0), (1, 0), (0, 1)]), src)
        out = tmp_path / "tri.csv"
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 and rows[0]["k"] == "1"
        assert rows[0]["e_le_k"] == "3" and rows[0]["het"] == "undefined"

    def test_analyze_k_range(self, tmp_path):
        src = tmp_path / "p12.json"
        save_point_set(generate(12, 0), src)
        out = tmp_path / "p12.csv"
        assert main(
            ["analyze", "--input", str(src), "--k-range", "2:3", "--out", str(out)]
        ) == 0
        assert [r["k"] for r in read_csv(out)] == ["2", "3"]

    def test_analyze_labeled_het_hom(self, tmp_path):
        src = tmp_path / "p9.json"
        save_point_set(generate(9, 4), src)
        out = tmp_path / "p9.csv"
        main(["analyze", "--input", str(src), "--out", str(out)])
        for row in read_csv(out):
            assert int(row["het"]) + int(row["hom"]) == int(row["e_le_k"])

    def test_require_decomp_refusal(self, tmp_path, capsys):
        bad = PointSet.from_coords(
            [(-3, -54), (38, 0), (38, 46), (41, 37), (59, 49), (-28, 30)]
        )
        src = tmp_path / "bad.json"
        save_point_set(bad, src)
        assert main(["analyze", "--input", str(src), "--require-decomp"]) == 2
        assert "not 3-decomposable" in capsys.readouterr().err

    def test_require_decomp_adopts_found_partition(self, tmp_path):
        src = tmp_path / "p6.json"
        save_point_set(generate(6, 2).with_labels(None), src)
        out = tmp_path / "p6.csv"
        assert main(
            ["analyze", "--input", str(src), "--require-decomp", "--out", str(out)]
        ) == 0
        assert all(r["het"] != "undefined" for r in read_csv(out))

    def test_analyze_n_not_multiple_of_three(self, tmp_path):
        src = tmp_path / "p10.json"
        save_point_set(random_general_position_set(10, 55), src)
        out = tmp_path / "p10.csv"
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["k"] for r in rows] == ["1", "2", "3", "4"]
        assert all(r["Y"] == "undefined" and r["satisfied"] == "undefined" for r in rows)

    def test_non_general_position_rejected(self, tmp_path, capsys):
        src = tmp_path / "collinear.json"
        save_point_set(PointSet.from_coords([(0, 0), (1, 1), (2, 2), (0, 5)]), src)
        assert main(["analyze", "--input", str(src)]) == 2
        assert "collinear" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "--input", "/nonexistent.json"]) == 2

    def test_violated_bound_exits_one(self, tmp_path, monkeypatch):
        # force an unsatisfiable ceiling to exercise the failure exit path
        import ksetlab.cli as cli_mod

        real = cli_mod.bounds_mod.bound_table

        def inflated(n, keep):
            table = real(n, keep)
            return table._replace(reports=tuple(r._replace(ceil_y=10**6) for r in table.reports))

        monkeypatch.setattr(cli_mod.bounds_mod, "bound_table", inflated)
        src = tmp_path / "p6.json"
        save_point_set(generate(6, 0), src)
        out = tmp_path / "p6.csv"
        assert main(["analyze", "--input", str(src), "--out", str(out)]) == 1
        assert all(r["satisfied"] == "false" for r in read_csv(out))

    @pytest.mark.parametrize(
        "make, k_range",
        [
            (lambda: generate(12, 0), None),
            (lambda: generate(12, 0), "2:4"),
            (lambda: generate(9, 1).with_labels(None), None),
            (lambda: random_general_position_set(10, 55), "2:9"),
        ],
        ids=["labeled", "labeled-k-range", "unlabeled", "unlabeled-n10-k-range"],
    )
    def test_stdout_equals_the_csv_writer_rendering(self, tmp_path, capsys, make, k_range):
        # One joined line per row, byte for byte as csv.writer writes the rows.
        ps = make()
        src = tmp_path / "p.json"
        save_point_set(ps, src)
        argv = ["analyze", "--input", str(src)] + (["--k-range", k_range] if k_range else [])
        assert main(argv) == 0
        lo, hi = map(int, k_range.split(":")) if k_range else (1, (ps.n - 1) // 2)
        rows = cli._analyze_rows(load_point_set(src), lo, min(hi, (ps.n - 1) // 2))
        assert_plain_cells(rows)
        assert capsys.readouterr().out == csv_text_by_writer(cli.ANALYZE_COLUMNS, rows)


class TestBoundsCommand:
    def test_n12_table(self, tmp_path):
        out = tmp_path / "b12.csv"
        assert main(["bounds", "--n", "12", "--out", str(out)]) == 0
        rows = {r["k"]: r for r in read_csv(out)}
        assert rows["5"]["Y"] == "143/3"
        assert rows["5"]["L"] == "48"
        assert rows["5"]["E"] == "4"
        assert rows["5"]["Y_dec"].startswith("47.66")

    def test_undefined_window_cell(self, tmp_path):
        out = tmp_path / "b9.csv"
        assert main(["bounds", "--n", "9", "--k", "4", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert row["Y"] == "undefined" and row["L"] == "undefined"
        assert row["ceilY"] == "30"

    def test_coefficient(self, capsys):
        assert main(["bounds", "--coefficient"]) == 0
        out = capsys.readouterr().out
        assert "0.380029" in out and "gap closure" in out

    def test_requires_some_n(self, capsys):
        assert main(["bounds"]) == 2

    def test_n_range_filters_multiples(self, tmp_path):
        out = tmp_path / "range.csv"
        assert main(["bounds", "--n-range", "6:13", "--k", "1", "--out", str(out)]) == 0
        assert [r["n"] for r in read_csv(out)] == ["6", "9", "12"]

    def test_each_y_computed_once(self, monkeypatch, capsys):
        # 7,499 rows, of which 7,450 have a nonempty valid window and so a Y;
        # each of those is computed once, cr_lower included.
        real = bounds._closed_form
        calls = []

        def counted(k, n, m):
            calls.append((k, n))
            return real(k, n, m)

        monkeypatch.setattr(bounds, "_closed_form", counted)
        assert main(["bounds", "--n-range", "6:300"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 7499
        assert len(calls) == len(set(calls)) == 7450

    def test_n_range_6_300_file_digest(self, tmp_path):
        # --out writes the same bytes as stdout.
        out = tmp_path / "b.csv"
        assert main(["bounds", "--n-range", "6:300", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "47ba94f374e13bca81ba35b2726b2bea8d4e350704c929b9717cd4c8f4ed74ec"

    def test_single_rows_equal_their_table_rows(self, capsys):
        # At n = 300: k = 77 <= n/3 (depth 1, hom 0, no E), k = 140 > n/3
        # (depth 5, E and L from the extremal digraph), k = 149 (m = 1).
        assert main(["bounds", "--n-range", "6:300"]) == 0
        table = capsys.readouterr().out.splitlines()
        for k in (77, 140, 149):
            assert main(["bounds", "--n", "300", "--k", str(k)]) == 0
            header, row = capsys.readouterr().out.splitlines()
            assert table[0] == header
            assert [line for line in table if line.startswith(f"300,{k},")] == [row]

    @pytest.mark.parametrize("k", [1, 2, 50, 99, 149])
    def test_k_rows_equal_the_full_table_rows(self, capsys, k):
        # The --k path keeps k's report of the same pass: its rows are the
        # full table's rows with that k, byte for byte, line ends included.
        assert main(["bounds", "--n-range", "6:300"]) == 0
        header, *table = capsys.readouterr().out.splitlines(keepends=True)
        assert main(["bounds", "--n-range", "6:300", "--k", str(k)]) == 0
        got_header, *rows = capsys.readouterr().out.splitlines(keepends=True)
        assert got_header == header
        expected = [line for line in table if line.split(",")[1] == str(k)]
        assert rows == expected
        assert len(rows) == sum(1 for n in range(6, 301, 3) if 2 * k < n)

    def test_one_row_holds_little_memory(self, capsys):
        # --k keeps one report per n, not every k's (about 960 KB at
        # n = 3000).  The parser is built before tracing starts.
        assert main(["bounds", "--n", "3000", "--k", "1"]) == 0
        expected = capsys.readouterr().out
        tracemalloc.start()
        try:
            assert main(["bounds", "--n", "3000", "--k", "1"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == expected
        assert len(expected.splitlines()) == 2
        assert peak < 256 * 1024

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        lo=st.integers(min_value=6, max_value=900),
        width=st.integers(min_value=0, max_value=30),
        k=st.none() | st.integers(min_value=1, max_value=449),
    )
    @example(lo=6, width=6, k=None)  # n = 9 ends in m = 0 at k = 4
    @example(lo=6, width=30, k=4)  # m = 0 at n = 9, m >= 1 beyond
    @example(lo=438, width=0, k=None)  # Y = 90398 at k = 218, an integer
    @example(lo=436, width=4, k=218)
    def test_stdout_equals_the_csv_writer_rendering(self, lo, width, k):
        # The integer pass's lines against csv.writer over the Fraction
        # oracle's cells, byte for byte, header and line ends included.
        ns = [n for n in range(max(6, lo), min(900, lo + width) + 1) if n % 3 == 0]
        assume(ns and (k is None or 2 * k < ns[-1]))
        argv = ["bounds", "--n-range", f"{lo}:{lo + width}"] + ([] if k is None else ["--k", str(k)])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        rows = bounds_rows_by_fractions(ns, k)
        assert_plain_cells(rows)
        assert out.getvalue() == csv_text_by_writer(cli.BOUNDS_COLUMNS, rows)

    def test_n_range_6_300_digest(self, capsys):
        # The whole table, byte for byte.  The cr_lower fix planned in
        # ROADMAP.md (item 1: add the constant c(n) of the crossing identity)
        # changes the cr_lower and cr_ratio_dec columns; it must re-pin this
        # digest and declare the change.
        assert main(["bounds", "--n-range", "6:300"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "47ba94f374e13bca81ba35b2726b2bea8d4e350704c929b9717cd4c8f4ed74ec"


class TestVerifyCommand:
    def test_series_suite_json(self, tmp_path):
        out = tmp_path / "series.json"
        assert main(["verify", "--suite", "series", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["suite"] == "series" and payload["ok"] is True
        assert payload["failed"] == 0

    def test_slack_small_scan(self, capsys):
        assert main(["verify", "--suite", "slack", "--max-b", "40", "--max-n", "60"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_edges_suite(self, capsys):
        # n <= 300 checks the greedy at every (k, n) whose E the pinned
        # bounds --n-range 6:300 table prints.
        assert main(["verify", "--suite", "edges", "--max-n", "300"]) == 0
        printed = sum(r.edges is not None for n in range(6, 301, 3)
                      for r in bounds.bound_table(n).reports)
        assert printed == 2401
        name = json.loads(capsys.readouterr().out)["checks"][0]["name"]
        assert name == f"edge counts ({printed} pairs)"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["edges", "--max-n", "30"],
             "8133a8cd22dfc93748babdea11594ca796366b5f49cb7fe316f1229c46584f0a"),
            (["slack", "--max-b", "12", "--max-n", "30"],
             "d92692aec61b69d2678025558a89394ecfc9b0d8a66dc3faca4c7f4e0c2c7fc9"),
            (["oracle", "--max-n", "6", "--sets-per-n", "2"],
             "c741e1bed5080a79832558eba2676dcc3c4293b2265af6839a8784855bd547e3"),
            (["series"], "802a6c228b411878a142ff98abeff2c949d4398aba122ae965382ff8f18a2fcf"),
        ],
        ids=["edges", "slack", "oracle", "series"],
    )
    def test_suite_json_digest(self, capsys, argv, digest):
        # Each suite's JSON report, byte for byte: check names, order,
        # details and the passed/failed counts.
        assert main(["verify", "--suite", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_suite_options_are_the_suite_parameters(self):
        # verify passes each suite the options named in SUITE_OPTIONS.
        import inspect

        assert verify.SUITE_OPTIONS.keys() == verify.SUITES.keys()
        for name, suite in verify.SUITES.items():
            assert tuple(verify.SUITE_OPTIONS[name]) == tuple(inspect.signature(suite).parameters)

    @pytest.mark.parametrize(
        "name, options, error",
        [
            ("edges", {"max_n": 3}, ValueError),
            ("oracle", {"max_n": 5, "sets_per_n": 0}, ValueError),
            ("slack", {"max_b": -1}, ValueError),
            ("series", {"terms": 10}, ValueError),
            ("oracle", {"max_n": 16}, OracleSizeError),
        ],
    )
    def test_run_suite_refuses_out_of_range_options(self, monkeypatch, name, options,
                                                    error):
        # The library call refuses what the command line refuses, before the
        # suite runs.
        def not_run(**kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(verify.SUITES, name, not_run)
        with pytest.raises(error) as excinfo:
            verify.run_suite(name, **options)
        assert excinfo.type is error

    def test_run_suite_refuses_an_option_the_suite_does_not_take(self):
        with pytest.raises(TypeError):
            verify.run_suite("edges", terms=50)

    def test_verify_flags_follow_the_option_table(self, monkeypatch, capsys):
        # A suite's row in SUITE_OPTIONS brings its flags and their help.
        monkeypatch.setitem(verify.SUITE_OPTIONS, "proof", {"max_n": (6, None),
                                                            "depth": (1, None)})
        parser = cli._build_parser.__wrapped__()
        assert parser.parse_args(["verify", "--depth", "3"]).depth == 3
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--max-n MAX_N for oracle, edges, slack, proof" in help_text
        assert "--depth DEPTH for proof" in help_text
        assert "--terms TERMS for series" in help_text

    def test_check_options_refuses_an_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite 'nope'"):
            verify.check_options("nope")

    def test_options_reach_the_suite(self, monkeypatch, capsys):
        calls = []
        real = verify.run_suite

        def recording(name, **kwargs):
            calls.append((name, kwargs))
            return real(name, **kwargs)

        monkeypatch.setattr(verify, "run_suite", recording)
        assert main(["verify", "--suite", "slack", "--max-b", "3", "--max-n", "12"]) == 0
        assert main(["verify", "--suite", "edges", "--max-n", "12", "--terms", "50"]) == 0
        assert calls == [("slack", {"max_b": 3, "max_n": 12}), ("edges", {"max_n": 12})]

    def test_oracle_suite_small(self, capsys):
        assert (
            main(["verify", "--suite", "oracle", "--max-n", "7", "--sets-per-n", "3"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


def _oracle_off_by_one(real):
    return lambda ps: geometry.KSetVector.from_counts(
        ps.n, {k: e + 1 for k, e in real(ps).e.items()}
    )


def _complete_degrees(real):
    # The degrees of every edge l -> j, l < j: at k = 5, n = 12 (m = 1)
    # vertex 4 takes indegree 3, above its cap min(m + outdegree 0, 3).
    return lambda m, s: ([j - 1 for j in range(1, s + 1)], [s - l for l in range(1, s + 1)])


def _first_report_below(real):
    # The k = 1 report of each table with L one below Y.
    def table(n):
        t = real(n)
        r = t.reports[0]
        return t._replace(reports=(r._replace(l=r.y - 1),) + t.reports[1:])

    return table


#: (verify arguments, module, name, double of the named function, check it
#: breaks, (name, detail) of every check that then fails, in report order)
_BROKEN_CHECKS = [
    (["oracle", "--max-n", "5", "--sets-per-n", "1"], verify, "k_set_oracle",
     _oracle_off_by_one, "random n=4",
     [("random n=4 (1 sets)", "1 mismatches"), ("random n=5 (1 sets)", "1 mismatches"),
      ("generated n=6 (3 sets)", "3 mismatches"), ("generated n=9 (3 sets)", "3 mismatches"),
      ("generated n=12 (3 sets)", "3 mismatches")]),
    (["edges", "--max-n", "12"], bounds, "extremal_edge_count",
     lambda real: lambda k, n: real(k, n) + 1, "edge counts",
     [("edge counts (1 pairs)", "1 mismatches")]),
    (["edges", "--max-n", "12"], bounds, "_extremal_degrees",
     _complete_degrees, "degree caps",
     [("edge counts (1 pairs)", "1 mismatches"), ("degree caps", "1 violations"),
      ("indegree multisets", "1 mismatches")]),
    (["edges", "--max-n", "12"], bounds, "_indegrees",
     lambda real: lambda m, s: [*real(m, s)[:-1], real(m, s)[-1] + 1], "indegree multisets",
     [("indegree multisets", "1 mismatches")]),
    (["slack", "--max-b", "2", "--max-n", "12"], bounds, "slack_quartic",
     lambda real: lambda b, r: Fraction(-1) if (b, r) == (1, 2) else real(b, r),
     "quartic scan",
     [("quartic scan b <= 2", "min -1 at (1, 2), 1 values below -1/3")]),
    (["slack", "--max-b", "2", "--max-n", "12"], bounds, "bound_table",
     _first_report_below, "sharp >= closed form",
     [("sharp >= closed form, n<=12 (10 pairs)", "min gap -1")]),
    (["series"], bounds, "series_and_integral_report",
     lambda real: lambda terms: real(terms)._replace(series_error=1.0),
     "series partial sum",
     [("series partial sum (1000 terms)", "|sum - (79/8 - pi^2)| = 1.000e+00")]),
    (["series"], bounds, "crossing_coefficient",
     lambda real: lambda: 0.38, "coefficient value",
     [("coefficient value", "coefficient = 0.3800000000")]),
]


class TestVerifyChecksCanFail:
    """Each suite's checks compare two computations; breaking one side makes
    that check fail, and ``verify`` then exits 1 with its JSON report."""

    @pytest.mark.parametrize("argv, module, name, double, check, failures", _BROKEN_CHECKS,
                             ids=[row[4] for row in _BROKEN_CHECKS])
    def test_a_broken_check_fails(self, monkeypatch, capsys, argv, module, name, double,
                                  check, failures):
        monkeypatch.setattr(module, name, double(getattr(module, name)))
        assert main(["verify", "--suite", *argv]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        failed = [(c["name"], c["detail"]) for c in payload["checks"] if not c["ok"]]
        assert any(c.startswith(check) for c, _ in failed), failed
        assert failed == failures

    def test_a_cap_exceeded_by_one_fails(self, monkeypatch, capsys):
        # Each outdegree one short where positive: at k = 5, n = 12 (m = 1)
        # the greedy's vertex 3, indegree 2 and outdegree 1, then exceeds its
        # cap min(m + 0, 2) by exactly one; its indegrees stay as built.
        real = bounds._extremal_degrees

        def short(m, s):
            ind, out = real(m, s)
            return ind, [max(o - 1, 0) for o in out]

        monkeypatch.setattr(bounds, "_extremal_degrees", short)
        assert main(["verify", "--suite", "edges", "--max-n", "12"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failed = [(c["name"], c["detail"]) for c in payload["checks"] if not c["ok"]]
        assert failed == [("degree caps", "1 violations")]

    def test_random_sets_refuse_after_their_draws(self, monkeypatch):
        monkeypatch.setattr(verify, "DRAWS_PER_POINT", 0)
        with pytest.raises(ValueError, match="after 0 draws"):
            random_general_position_set(6, 0)


TRIANGLE_JSON = {"points": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]]}


def triangle_at(x):
    """``TRIANGLE_JSON`` with its first point moved to x = ``x`` on the
    x-axis, written as the JSON value ``x``."""
    return {"points": [[x, "0/1"], *TRIANGLE_JSON["points"][1:]]}


@pytest.mark.parametrize(
    "argv, payload, code",
    [
        (["analyze"], TRIANGLE_JSON, 0),
        (["analyze"], {"points": [["1/0", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]]}, 2),
        (["analyze"], {**TRIANGLE_JSON, "labels": "abc"}, 2),
        (["analyze"], {**TRIANGLE_JSON, "labels": 3}, 2),
        (["analyze"], [["0/1", "0/1"]], 2),
        (["analyze"], {"points": "0/1 0/1"}, 2),
        (["analyze"], {"points": ["12", "35", "57"]}, 2),
        (["analyze"], {"points": [["0/1", "0/1", "1/1"]]}, 2),
        (["analyze"], {}, 2),
        (["analyze"], {**TRIANGLE_JSON, "labels": ["a", "b"]}, 2),
        (["analyze"], {"points": [["0/1", "0/1"], ["1/1", "1/1"], ["2/1", "2/1"]]}, 2),
        (["verify", "--suite", "oracle", "--max-n", "16"], None, 2),
        (["bounds", "--n", "9", "--k", "0"], None, 2),
        (["bounds", "--n", "9", "--k", "7"], None, 2),
        (["bounds", "--n", "9", "--k", "3"], None, 0),
        (["analyze", "--k-range", "3:2"], TRIANGLE_JSON, 2),
        (["analyze", "--k-range", "5:9"], TRIANGLE_JSON, 2),
        (["verify", "--suite", "slack", "--max-b", "-5", "--max-n", "9"], None, 2),
        (["gen", "--n", "9", "--seed", "0", "--out", "{missing}/x.json"], None, 2),
        (["analyze", "--out", "{missing}/r.csv"], TRIANGLE_JSON, 2),
        (["bounds", "--n", "9", "--out", "{missing}/b.csv"], None, 2),
        (["verify", "--suite", "series", "--terms", "46", "--out", "{missing}/v.json"],
         None, 2),
        (["sweep", "--ns", "6", "--seeds", "1", "--out", "{missing}/s.csv"], None, 2),
        (["verify", "--suite", "series", "--terms", "0"], None, 2),
        (["verify", "--suite", "series", "--terms", "1"], None, 2),
        (["verify", "--suite", "edges", "--max-n", "0"], None, 2),
        (["verify", "--suite", "slack", "--max-b", "2", "--max-n", "-3"], None, 2),
        (["sweep", "--ns", "6", "--seeds", "0"], None, 2),
        (["sweep", "--ns", "6", "--seeds", "-1"], None, 2),
        (["verify", "--suite", "oracle", "--sets-per-n", "0", "--max-n", "5"], None, 2),
        (["verify", "--suite", "oracle", "--sets-per-n", "-3", "--max-n", "5"], None, 2),
        (["verify", "--sets-per-n", "0"], None, 2),
        # Checks 0 pairs, yet exits 0: a benchmark's cold start runs it.
        (["verify", "--suite", "edges", "--max-n", "9"], None, 0),
        (["sweep", "--ns", "6", "--seeds", "1", "--parallel", "0"], None, 2),
        (["sweep", "--ns", "6", "--seeds", "1", "--parallel", "-2"], None, 2),
        (["analyze", "--require-decomp"],
         {"points": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"], ["2/1", "3/1"]]}, 2),
        (["verify", "--suite", "slack", "--max-b", "0", "--max-n", "3"], None, 2),
        (["verify", "--suite", "slack", "--max-n", "5"], None, 2),
        (["verify", "--max-n", "5"], None, 2),
        (["verify", "--suite", "slack", "--max-b", "0", "--max-n", "6"], None, 0),
        # Malformed or unusable values, each command.
        (["gen", "--n", "8", "--seed", "0", "--out", "{missing}/x.json"], None, 2),
        (["gen", "--n", "0", "--seed", "0", "--out", "{missing}/x.json"], None, 2),
        (["analyze", "--k-range", "x"], TRIANGLE_JSON, 2),
        (["analyze", "--k-range", "1:2:3"], TRIANGLE_JSON, 2),
        (["bounds", "--n-range", "foo"], None, 2),
        (["bounds", "--n-range", "7:8"], None, 2),
        (["verify", "--suite", "oracle", "--max-n", "0"], None, 2),
        (["sweep", "--ns", "6,x"], None, 2),
        (["sweep", "--ns", "6,8"], None, 2),
        # A series too short for its tolerance: the proven tail bound
        # 1/(5J^5) needs J >= 46 for 1e-9.
        (["verify", "--suite", "series", "--terms", "10"], None, 2),
        (["verify", "--suite", "series", "--terms", "45"], None, 2),
        (["verify", "--terms", "45"], None, 2),
        (["verify", "--suite", "series", "--terms", "46"], None, 0),
        # A decimal exponent beyond the int digit limit.
        (["analyze"], {"points": [["1e5000", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]]}, 2),
        # The edges sweep starts at n = 6; below it, it would check nothing.
        (["verify", "--suite", "edges", "--max-n", "3"], None, 2),
        (["verify", "--suite", "edges", "--max-n", "5"], None, 2),
        (["verify", "--suite", "edges", "--max-n", "6"], None, 0),
        (["gen", "--n", "49926", "--seed", "0", "--out", "{tmp}/g.json"], None, 2),
        (["bounds", "--n-range", "6:1000000000000", "--k", "0"], None, 2),
        # Two points, too few to analyze; four labeled points, not in thirds.
        (["analyze"], {"points": [["0/1", "0/1"], ["1/1", "0/1"]]}, 2),
        (["analyze"], {"points": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"],
                                  ["2/1", "3/1"]], "labels": ["a", "b", "c", "a"]}, 2),
        # A declared n must be a JSON integer: not a string, a float or a bool.
        (["analyze"], {**TRIANGLE_JSON, "n": "3"}, 2),
        (["analyze"], {**TRIANGLE_JSON, "n": 3.0}, 2),
        (["analyze"], {**TRIANGLE_JSON, "n": True}, 2),
        # Coordinate strings at the edges of the two-int read of "p/q": a
        # Unicode zero denominator, a numerator past the int digit limit and
        # a sign on the wrong side are refused; a plus sign, padding,
        # full-width digits and an underscore go through Fraction.
        (["analyze"], triangle_at("3/\u0660"), 2),
        (["analyze"], triangle_at("1" * 4301 + "/3"), 2),
        (["analyze"], triangle_at("-/3"), 2),
        (["analyze"], triangle_at("3/-4"), 2),
        (["analyze"], triangle_at("+3/4"), 0),
        (["analyze"], triangle_at(" 3/4 "), 0),
        (["analyze"], triangle_at("\uff13/\uff14"), 0),
        (["analyze"], triangle_at("1_0/3"), 0),
        # A coordinate that is not a JSON string: a number goes through
        # Fraction, anything else, and a non-finite number, is refused.
        # json reads the bare text 1e400 as inf.
        (["analyze"], triangle_at(None), 2),
        (["analyze"], triangle_at(True), 2),
        (["analyze"], triangle_at([1]), 2),
        (["analyze"], triangle_at({}), 2),
        (["analyze"], triangle_at(float("nan")), 2),
        (["analyze"], triangle_at(float("-inf")), 2),
        (["analyze"], json.dumps(triangle_at(0.5)).replace("0.5", "1e400"), 2),
        (["analyze"], triangle_at(0.5), 0),
    ],
)
def test_exit_codes(tmp_path, capsys, argv, payload, code):
    # 0 success, 2 usage or input error with a one-line message on stderr.
    # A string payload is the file's text as it stands.
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
    if payload is not None:
        src = tmp_path / "in.json"
        src.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = argv + ["--input", str(src)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_file_exits_two(tmp_path, capsys):
    # json.loads raises RecursionError on 100,000 open brackets.
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000)
    assert main(["analyze", "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n-range", "foo"],
        ["analyze", "--input", "{input}", "--k-range", "x"],
        ["gen", "--n", "8", "--seed", "0", "--out", "{tmp}/x.json"],
        ["verify", "--suite", "oracle", "--max-n", "16"],
    ],
)
def test_exit_two_from_a_shell(tmp_path, argv):
    # The exit code a shell sees, not the one main returns in process.
    src = tmp_path / "in.json"
    src.write_text(json.dumps(TRIANGLE_JSON))
    argv = [a.format(input=src, tmp=tmp_path) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(ksetlab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ksetlab.cli", *argv], capture_output=True, text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


#: Unicode digits a coordinate may be spelt in: Arabic-Indic and full-width.
_ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

#: Coordinates the reader must refuse: zero denominators, read as two ints
#: or (signed with "+" or padded) by ``Fraction``, forms ``Fraction``
#: rejects, an exponent and a digit run past the int digit limit, and JSON
#: values of the wrong type.
_BAD_COORDINATES = st.builds(
    "{1}{0}{2}/0{1}".format, st.sampled_from(["", "-", "+"]), st.sampled_from(["", " "]),
    st.integers(0, 99),
) | st.sampled_from([
    "1/-2", "1/2/3", "", "x", "nan", "inf", "1e99999", "1" * 4301, None, True, [1, 2], {"p": 1},
])
#: Point counts, mostly multiples of 3, at most 60.
_NS = st.integers(-1, 20).map(lambda k: 3 * k) | st.integers(-3, 60)
#: Files that hold no point-set object.
_BAD_TEXTS = ["", "{", "[" * 40, "nul", '{"points": [}', "[]", "3", '"points"', "null"]


def _spelling(draw, value: Fraction):
    """``value`` as a point-set file may spell it: reduced or not (with
    digit runs up to about 100 long, under the int digit limit), signed,
    padded, in Unicode digits, or as a JSON integer or an exponent."""
    p, q = value.numerator, value.denominator
    k = draw(st.integers(1, 9) | st.integers(40, 100).map(lambda e: 10**e))
    forms = [f"{p}/{q}", f"{p * k}/{q * k}", f"+{p}/{q}" if p >= 0 else f"-{-p}/{q}",
             f" {p}/{q}\t", f"{p}/{q}".translate(_ARABIC), f"{p}/{q}".translate(_FULL_WIDTH)]
    if q == 1:
        forms += [p, f"{p}e0", f"{p * 10}e-1", f"{p}.000"]
    return draw(st.sampled_from(forms))


@st.composite
def contract_documents(draw):
    """The text of a point-set file, n <= 60, around the schema: a
    generated 3-decomposable set, a random general-position set or a
    small drawn one (duplicates and collinear triples among them),
    perhaps with a point duplicated, dropped or a midpoint added, spelt in
    every form the reader takes; and in about half of them one fault: text
    that is no such object, a wrong or missing key, a bad entry, a refused
    coordinate or bad labels."""
    fault = draw(st.sampled_from([None] * 8 + ["text", "top", "n", "points", "entry",
                                               "coordinate", "coordinate", "labels", "key"]))
    if fault == "text":
        return draw(st.sampled_from(_BAD_TEXTS))
    kind = draw(st.sampled_from(["generated", "random", "drawn"]))
    labels = None
    if kind == "drawn":
        small = st.integers(-4, 4)
        points = [(Fraction(x), Fraction(y))
                  for x, y in draw(st.lists(st.tuples(small, small), max_size=9))]
    else:
        if kind == "generated":
            ps = generate(3 * draw(st.integers(1, 20)), draw(st.integers(0, 3)),
                          draw(st.sampled_from(decompose.GENERATOR_SHAPES)))
            labels = list(ps.labels) if draw(st.booleans()) else None
        else:
            ps = random_general_position_set(draw(_NS.filter(lambda n: n >= 0)),
                                             draw(st.integers(0, 3)))
        points = [(Fraction(x, ps.scale), Fraction(y, ps.scale)) for x, y in ps.coords]
    if len(points) >= 2 and not draw(st.integers(0, 3)):
        i, j = draw(st.integers(0, len(points) - 1)), draw(st.integers(0, len(points) - 1))
        edit = draw(st.sampled_from(["duplicate", "midpoint", "drop"]))
        if edit == "duplicate":
            points.append(points[i])
        elif edit == "midpoint":
            points.append(((points[i][0] + points[j][0]) / 2, (points[i][1] + points[j][1]) / 2))
        else:
            del points[i]
    n = len(points)
    cells = [[_spelling(draw, x), _spelling(draw, y)] for x, y in points]
    if labels is None and n % 3 == 0 and draw(st.booleans()):
        labels = list(draw(st.permutations("abc" * (n // 3))))
    if labels is not None and draw(st.booleans()):
        labels = [c.upper() for c in labels]
    if fault == "labels":
        labels = labels or ["a", "b", "c"] * (n // 3)
        labels = draw(st.sampled_from([
            labels[1:], labels + ["a"], ["d"] + labels[1:], [1] + labels[1:], [None] * n,
            "".join(labels), ["a"] * n, {"labels": labels},
        ]))
    if cells and fault == "coordinate":
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(_BAD_COORDINATES)
    if cells and fault == "entry":
        cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [["1/2"], ["1/2", "1/3", "1/5"], "1/2", {"x": "1/2", "y": "1/3"}, None]))
    doc = {"n": n, "points": cells, "labels": labels}
    if fault == "n":
        doc["n"] = draw(st.sampled_from([n + 1, -1, str(n), float(n), True, None]))
    if fault == "points":
        doc["points"] = draw(st.sampled_from(["1/2", {}, 3, None]))
    if fault == "key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault != "n" and draw(st.booleans()):
        del doc["n"]  # n is optional
    if fault == "top":
        return json.dumps(draw(st.sampled_from([[doc], "points", 3, None])))
    return json.dumps(doc)


#: Where an ``--out`` goes: a fresh file, or one in a missing directory.
_OUTS = st.sampled_from(["{tmp}/out"] * 3 + ["{tmp}/missing/out"])


def _range_texts():
    """LO:HI ranges, well formed or not."""
    ranges = st.builds("{}:{}".format, st.integers(-3, 40), st.integers(-3, 60))
    return ranges | st.sampled_from(["", "x", ":", "5", "1:2:3", "a:b", " 2 : 9 "])


@st.composite
def contract_cases(draw):
    """argv for one command, from its own options, and the text of the
    file ``analyze`` reads.  Values are small, negative, empty or
    malformed, but each passes argparse (an int option gets an int; each
    option is written ``--name=value``, so a value may start with "-"),
    with ``--parallel`` <= 2, n <= 60 and ``--max-b`` <= 50.  Every option
    of a chosen suite is given, since some suites' defaults run for
    seconds."""
    command = draw(st.sampled_from(["gen", "analyze", "bounds", "verify", "sweep"]))
    argv, document = [command], None

    def option(name, values, always=False):
        if always or draw(st.booleans()):
            argv.append(f"{name}={draw(values)}")

    shapes = st.sampled_from(decompose.GENERATOR_SHAPES)
    if command == "gen":
        option("--n", _NS, True)
        option("--seed", st.integers(-3, 3), True)
        option("--shape", shapes)
        option("--out", _OUTS, True)
    elif command == "analyze":
        document = draw(contract_documents())
        option("--input", st.sampled_from(["{tmp}/in.json"] * 8 + ["{tmp}/none.json", "{tmp}"]),
               True)
        option("--k-range", _range_texts())
        if draw(st.booleans()):
            argv.append("--require-decomp")
        option("--decomp-mode", st.sampled_from(["three", "two"]))
        option("--out", _OUTS)
    elif command == "bounds":
        way = draw(st.sampled_from(["--n", "--n-range", "--coefficient", None]))
        if way == "--n":
            option(way, _NS, True)
        elif way == "--n-range":
            option(way, _range_texts(), True)
        elif way:
            argv.append(way)
        option("--k", st.integers(-2, 40))
        option("--out", _OUTS)
    elif command == "verify":
        suite = draw(st.sampled_from(sorted(verify.SUITES) + ["all", None]))
        if suite is not None:
            argv.append(f"--suite={suite}")
        suites = verify.SUITES if suite in ("all", None) else [suite]
        needed = {o for name in suites for o in verify.SUITE_OPTIONS[name]}
        values = {"max_n": _NS, "sets_per_n": st.integers(-1, 2), "max_b": st.integers(-2, 50),
                  "terms": st.integers(40, 2000)}
        for name, drawn in values.items():
            option(f"--{name.replace('_', '-')}", drawn, name in needed)
        option("--out", _OUTS)
    else:
        ns = st.lists(_NS.map(str) | st.sampled_from(["", "x", " 9", "6.0"]),
                      min_size=1, max_size=2)
        argv.append(f"--ns={','.join(draw(ns))}")
        option("--seeds", st.integers(-1, 2), True)
        option("--shape", shapes)
        option("--parallel", st.integers(-1, 2))
        option("--out", _OUTS)
    return argv, document


def _false_cells(text):
    """Whether a CSV's ``satisfied`` column holds ``false``."""
    return any(row.get("satisfied") == "false" for row in csv.DictReader(io.StringIO(text)))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(contract_cases())
@example((["analyze", "--input={tmp}/in.json"], json.dumps({"points": [["+1/0", "0"]]})))
def test_exit_code_contract(case):
    # Every command, in process: exit 0, 1 or 2 and no exception; 2 with
    # one error: line and no --out file; 1 exactly when a satisfied cell
    # is false (analyze, sweep) or a check failed (verify).
    argv, document = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.format(tmp=tmp) for a in argv]
        if document is not None:
            Path(tmp, "in.json").write_text(document)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        outs = [a.partition("=")[2] for a in argv if a.startswith("--out=")]
        path = Path(outs[0]) if outs else None
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert path is None or not path.exists()
            return
        assert "error:" not in err.getvalue()
        written = path.read_text() if path is not None and path.exists() else out.getvalue()
        if argv[0] in ("analyze", "sweep"):
            assert (code == 1) == _false_cells(written)
        elif argv[0] == "verify":
            assert (code == 1) == (json.loads(written)["ok"] is False)
        else:
            assert code == 0


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["verify", "--suite", "slack", "--max-b", "2", "--max-n", "6"], verify,
         "run_suite"),
        (["verify", "--suite", "edges", "--max-n", "9"], verify, "run_suite"),
        (["sweep", "--ns", "6,9", "--seeds", "2"], cli, "_sweep_work"),
    ],
    ids=["verify-slack", "verify-edges", "sweep"],
)
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                              module, name):
    # The output is opened after the arguments are checked and before the
    # first suite or set is computed, as bounds does.
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    assert main([*argv, "--out", str(tmp_path / "missing" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "oracle", "--max-n", "16"],
        ["verify", "--suite", "slack", "--max-b", "-5", "--max-n", "9"],
        ["sweep", "--ns", "6", "--seeds", "0"],
        ["bounds", "--n", "9", "--k", "0"],
        ["analyze", "--input", "{degenerate}"],
        ["analyze", "--input", "{triangle}", "--k-range", "5:9"],
        ["analyze", "--input", "{refused}", "--require-decomp"],
    ],
)
def test_usage_error_writes_no_out(tmp_path, capsys, argv):
    # The arguments are checked before the output is opened; analyze opens
    # it only once the input has proved usable: a degenerate set, a k range
    # holding no k and a set --require-decomp refuses leave no file.
    inputs = {
        "degenerate": DEGENERATE_SETS[0],
        "triangle": PointSet.from_coords([(0, 0), (1, 0), (0, 1)]),
        "refused": random_general_position_set(9, 0),  # no 3-decomposition
    }
    for name, ps in inputs.items():
        save_point_set(ps, tmp_path / f"{name}.json")
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in inputs}) for a in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


class TestSweepCommand:
    def test_sweep_serial(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--ns", "6,9", "--seeds", "2", "--out", str(out)]
        ) == 0
        rows = read_csv(out)
        assert all(r["satisfied"] == "true" for r in rows)
        # deterministic ordering by (n, seed, k)
        key = [(int(r["n"]), int(r["seed"]), int(r["k"])) for r in rows]
        assert key == sorted(key)

    def test_sweep_parallel_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        args = ["sweep", "--ns", "6,9", "--seeds", "2"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--parallel", "2", "--out", str(parallel)]) == 0
        assert serial.read_text() == parallel.read_text()

    def test_sweep_starts_no_more_workers_than_sets(self, tmp_path, monkeypatch):
        # A process pool starts all max_workers processes at its first
        # submit; a fake pool records how many were asked for.
        import concurrent.futures

        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        out = ["--parallel", "16", "--out", str(tmp_path / "s.csv")]
        assert main(["sweep", "--ns", "6", "--seeds", "1", *out]) == 0
        assert asked == []  # one set: run serially
        assert main(["sweep", "--ns", "6,9", "--seeds", "2", *out]) == 0
        assert asked == [4]

    def test_stdout_equals_the_csv_writer_rendering(self, capsys):
        # One joined line per row, byte for byte as csv.writer writes them.
        assert main(["sweep", "--ns", "6,9", "--seeds", "2"]) == 0
        rows = [row for n in (6, 9) for seed in (0, 1)
                for row in cli._sweep_work((n, seed, "triangle-clusters"))]
        assert_plain_cells(rows)
        assert capsys.readouterr().out == csv_text_by_writer(cli.SWEEP_COLUMNS, rows)

    def test_ns_9_12_digest(self, capsys):
        # The sweep table, byte for byte: every count, bound and cell.
        assert main(["sweep", "--ns", "9,12", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 19
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "6d1570d493f9870fe65da9ff009c84563a9e50774d9748c8233445de7425d26a"

    def test_sweep_rejects_bad_ns(self, capsys):
        assert main(["sweep", "--ns", "6,8"]) == 2

    def test_repeated_n_swept_once(self, tmp_path):
        once = tmp_path / "once.csv"
        assert main(["sweep", "--ns", "6", "--seeds", "1", "--out", str(once)]) == 0
        for extra in ([], ["--parallel", "2"]):
            twice = tmp_path / "twice.csv"
            argv = ["sweep", "--ns", "6,6", "--seeds", "1", *extra, "--out", str(twice)]
            assert main(argv) == 0
            assert twice.read_text() == once.read_text()


class TestGroupOnce:
    """The pairs are grouped by critical direction once per point set: each
    command reads one cached grouping, and the relabeled sets it derives
    inherit it."""

    @staticmethod
    def _record(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counting(ps):
            calls.append(ps)
            return real(ps)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("require_decomp", [False, True])
    def test_analyze_groups_once(self, tmp_path, capsys, monkeypatch, labeled,
                                 require_decomp):
        ps = generate(9, 4)
        path = tmp_path / "in.json"
        save_point_set(ps if labeled else ps.with_labels(None), path)
        groupings = self._record(monkeypatch, geometry, "group_pairs")
        argv = ["analyze", "--input", str(path)] + ["--require-decomp"] * require_decomp
        assert main(argv) == 0
        assert len(groupings) == 1

    @pytest.mark.parametrize("labeled", [True, False])
    def test_analyze_require_decomp_replays_once(self, tmp_path, capsys, monkeypatch,
                                                 labeled):
        # check_partition's splits (or find_partition's, then the relabeled
        # copy's) and the site counts read one replay of the default-start
        # halfperiod, kept on the point set: one swap loop, from the order
        # along the default start.
        ps = generate(9, 4)
        path = tmp_path / "in.json"
        save_point_set(ps if labeled else ps.with_labels(None), path)
        initial = circular.build_halfperiod(load_point_set(path)).initial_permutation
        loops = []
        real = circular.replay_sites

        def counting(*args):
            loops.append(args)
            return real(*args)

        monkeypatch.setattr(circular, "replay_sites", counting)
        assert main(["analyze", "--input", str(path), "--require-decomp"]) == 0
        assert [args[1] for args in loops] == [initial]

    # Every draw is in general position, so only a failed partition check
    # starts another attempt, and no seed tried fails one on its own:
    # ``_fail_odd_checks`` fails every other check, so each set is drawn
    # twice.  Each attempt is grouped once, by its check, and the accepted
    # set's witness and halfperiod reuse that grouping.
    @staticmethod
    def _fail_odd_checks(monkeypatch, calls):
        real, checks = decompose.check_partition, []

        def failing(ps):
            witness = real(ps)
            checks.append(ps)
            calls.append(("check_partition", ps))
            return witness if len(checks) % 2 == 0 else None

        monkeypatch.setattr(decompose, "check_partition", failing)

    def test_generate_groups_once_per_attempt(self, monkeypatch):
        groupings = self._record(monkeypatch, geometry, "group_pairs")
        attempts = []
        self._fail_odd_checks(monkeypatch, attempts)
        generate(12, 13)
        generate(12, 16, "near-optimal-template")
        assert len(attempts) == 4
        assert groupings == [ps for _, ps in attempts]

    def test_gen_groups_once_per_attempt(self, tmp_path, capsys, monkeypatch):
        groupings = self._record(monkeypatch, geometry, "group_pairs")
        attempts = []
        self._fail_odd_checks(monkeypatch, attempts)
        argv = ["gen", "--n", "12", "--seed", "16", "--shape", "near-optimal-template"]
        assert main(argv + ["--out", str(tmp_path / "g.json")]) == 0
        assert len(attempts) == 2
        assert groupings == [ps for _, ps in attempts]

    def test_gen_checks_once_per_attempt(self, tmp_path, capsys, monkeypatch):
        # The witness gen prints is the generator's own check: one
        # check_partition per attempt.  One swap loop per attempt, for the
        # default-start halfperiod its check builds and keeps; the
        # halfperiod from l1 for (s, t) runs one more loop and leaves the
        # kept one as it was.  No Swap tuple is built.
        calls = []
        real_build, real_loop = decompose.build_halfperiod, circular.replay_sites

        def build(*args):
            result = real_build(*args)
            calls.append(("halfperiod", result))
            return result

        def loop(*args):
            calls.append(("loop", None))
            return real_loop(*args)

        self._fail_odd_checks(monkeypatch, calls)
        monkeypatch.setattr(decompose, "build_halfperiod", build)
        monkeypatch.setattr(circular, "replay_sites", loop)
        monkeypatch.setattr(circular.Halfperiod, "swaps", property(
            lambda h: calls.append(("swaps", None))
        ))
        argv = ["gen", "--n", "12", "--seed", "16", "--shape", "near-optimal-template"]
        path = tmp_path / "g.json"
        assert main(argv + ["--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "halfperiod witness" in out
        names = [name for name, _ in calls]
        assert "swaps" not in names
        assert names == ["loop", "halfperiod", "check_partition"] * 2 + ["loop", "halfperiod"]
        _, checked, from_l1 = [r for name, r in calls if name == "halfperiod"]
        assert checked.direction == circular.gap_sample(load_point_set(path).classes, 0)
        assert f"l1 = ({from_l1.direction[0]}, {from_l1.direction[1]})" in out


def _run_in_one_process(argvs: list[list[str]]) -> list[list]:
    """Run ``main`` on each argv in turn in one fresh interpreter; return
    [exit code, stdout, stderr] of each call."""
    code = (
        "import contextlib, io, json, sys\n"
        "from ksetlab.cli import main\n"
        "results = []\n"
        f"for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            rc = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            rc = exc.code\n"
        "    results.append([rc, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    src = str(Path(ksetlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
    ).stdout
    return json.loads(out)


class TestParserReuse:
    """One process may call ``main`` many times: the parser is built once
    and each call dispatches to the module's ``cmd_*`` function as it is at
    call time."""

    def test_parser_built_once(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        path = str(tmp_path / "g.json")
        assert main(["gen", "--n", "9", "--seed", "1", "--out", path]) == 0
        assert main(["analyze", "--input", path, "--require-decomp"]) == 0
        with pytest.raises(SystemExit):
            main(["bounds", "--k", "x"])
        assert main(["bounds", "--n", "12", "--k", "5"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_dispatches_to_patched_handler(self, tmp_path, capsys, monkeypatch):
        assert main(["bounds", "--n", "6"]) == 0  # the parser exists already
        seen = []

        def fake(args):
            seen.append(args.input)
            return 7

        monkeypatch.setattr(cli, "cmd_analyze", fake)
        assert main(["analyze", "--input", "x.json"]) == 7
        assert seen == ["x.json"]

    def test_usage_errors_leave_no_trace(self, tmp_path):
        path = str(tmp_path / "g.json")
        argvs = [
            ["gen", "--n", "8", "--seed", "0", "--out", path],
            ["analyze"],
            ["bounds", "--k", "x"],
            ["gen", "--n", "9", "--seed", "1", "--out", path],
            ["analyze", "--input", path, "--require-decomp"],
            ["bounds", "--n", "12", "--k", "5"],
            ["analyze"],
        ]
        together = _run_in_one_process(argvs)
        assert [rc for rc, _, _ in together] == [2, 2, 2, 0, 0, 0, 2]
        for argv, result in zip(argvs, together):
            assert result == _run_in_one_process([argv])[0], argv


class TestStandardLibraryOnly:
    """The commands load no module outside the standard library and ksetlab."""

    @staticmethod
    def _run(argv: list[str]) -> tuple[int, list[str]]:
        # A fresh interpreter, so that only what the command imports is new.
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from ksetlab.cli import main\n"
            f"rc = main({argv!r})\n"
            "allowed = sys.stdlib_module_names | {'ksetlab'}\n"
            "extra = sorted(m for m in set(sys.modules) - before\n"
            "               if m.partition('.')[0] not in allowed)\n"
            "print(repr((rc, extra)))\n"
        )
        src = str(Path(ksetlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            check=True,
        ).stdout
        return ast.literal_eval(out.splitlines()[-1])

    def test_gen_analyze_and_bounds_table(self, tmp_path):
        path = tmp_path / "g.json"
        assert self._run(["gen", "--n", "9", "--seed", "1", "--out", str(path)]) == (0, [])
        assert self._run(["analyze", "--input", str(path), "--require-decomp"]) == (0, [])
        assert self._run(["bounds", "--n", "12"]) == (0, [])

    def test_coefficient_and_series(self):
        assert self._run(["bounds", "--coefficient"]) == (0, [])
        assert self._run(["verify", "--suite", "series"]) == (0, [])


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Which modules load, not how long: a fresh interpreter's modules before
    # and after ``import ksetlab.cli``.  The records are NamedTuples and
    # small classes, and verify's options are listed, not read off
    # signatures.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ksetlab.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ksetlab.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == "[]\n"
