"""Pins on what reads the library from outside it: the README's examples,
the names the benchmark traces, and the public names ``ksetlab.__all__``
exports.

The README examples that show their output are run as written, in order,
in a temporary directory, and their stdout is compared line for line with
the README; the ``verify`` and ``sweep`` examples show none and take
minutes, so they are not run.  The ``bounds`` example's ``cr_lower`` cell
(318) will change when the finite-n crossing bound is corrected (ROADMAP
item 1); the README and this test are re-pinned together then.  The
``gen`` example must stay byte-identical whenever the generator changes.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import ksetlab
from ksetlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SPANS = ROOT / "perfbench" / "spans.py"

#: The README commands whose shown output is pinned, in README order.
PINNED = [
    "gen --n 9 --seed 1 --out points9.json",
    "analyze --input points9.json",
    "bounds --n 12 --k 5",
    "bounds --coefficient",
]

#: ``ksetlab.__all__``, in its order: the 43 public names.
PUBLIC = [
    "BoundReport", "BoundTable", "CriticalityReport", "DecompositionWitness",
    "DEFAULT_ORACLE_CAP", "GeneralPositionError", "Halfperiod", "KSetVector",
    "LabelingError", "OracleSizeError", "Point", "PointSet", "UndefinedWindowError",
    "ValidSwapDigraph", "bound_report", "bound_table", "build_extremal_digraph",
    "build_halfperiod", "build_valid_digraphs", "check_halfperiod", "check_partition",
    "critical_counts", "crossing_coefficient", "crossing_count",
    "crossing_lower_bound", "crossing_number", "extremal_edge_count",
    "extremal_edge_summands", "extremal_indegree", "find_partition", "generate",
    "generate_with_witness", "is_general_position", "k_set_oracle", "kset_lower_bound",
    "kset_vector_from_halfperiod", "kset_vector_from_sites", "load_point_set",
    "locate_halfperiod_witness", "orientation", "save_point_set",
    "series_and_integral_report", "slack_quartic",
]


def _fenced_blocks(text: str) -> list[tuple[str, list[str]]]:
    """The README's fenced blocks: (info string, lines)."""
    return [
        (info, body.splitlines())
        for info, body in re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
    ]


def _cli_examples(text: str) -> list[tuple[str, list[str]]]:
    """Each ``$ ksetlab ...`` command with the output lines shown under it;
    a blank line or the next command ends the output."""
    examples: list[tuple[str, list[str]]] = []
    for _, lines in _fenced_blocks(text):
        out = None
        for line in lines:
            if line.startswith("$ ksetlab "):
                out = []
                examples.append((line[len("$ ksetlab "):], out))
            elif not line.strip():
                out = None
            elif out is not None:
                out.append(line)
    return examples


def test_readme_cli_examples(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shown = [(cmd, out) for cmd, out in _cli_examples(README.read_text()) if out]
    assert [cmd for cmd, _ in shown] == PINNED
    for cmd, expected in shown:
        assert main(shlex.split(cmd)) == 0, cmd
        assert capsys.readouterr().out.splitlines() == expected, cmd


def test_readme_library_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (code,) = [
        "\n".join(lines) for info, lines in _fenced_blocks(README.read_text())
        if info == "python"
    ]
    exec(compile(code, str(README), "exec"), {})


def _wrapped() -> list[tuple]:
    """``WRAPPED`` of the benchmark's tracer, loaded by path without
    importing the rest of the benchmark."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_benchmark_traced_names_exist():
    # A traced name that is renamed or deleted shows up only when a traced
    # benchmark run fails with AttributeError.
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _, _ in _wrapped()
        if not callable(getattr(importlib.import_module(f"ksetlab.{mod}"), fn, None))
    ]
    assert missing == []


def test_public_surface():
    # A name added to or dropped from the package's exports changes this list.
    assert len(PUBLIC) == 43 and len(set(PUBLIC)) == len(PUBLIC)
    assert ksetlab.__all__ == PUBLIC
    assert all(hasattr(ksetlab, name) for name in PUBLIC)
    namespace: dict = {}
    exec("from ksetlab import *", namespace)
    assert set(PUBLIC) <= set(namespace)
