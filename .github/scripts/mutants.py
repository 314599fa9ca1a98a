"""Run the committed mutants of the library: each must fail its tests.

    python .github/scripts/mutants.py

Each row of ``MUTANTS`` is a file under ``src/``, an exact text in it, the
text that replaces it, and the pytest selection that must catch the
change.  The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to
a temporary directory and imports ``ksetlab`` from that copy.  Every
selection is first run on the unmutated copy and must pass there, so no
selection may hold the intentional C3 failure.  Then each row is applied
alone, its selection run, and the file restored.  A row counts as killed
only when pytest exits 1 (tests ran and some failed); any other exit code
(an error collecting, a usage error, a timeout) is reported as such.

An old text that is missing from its file, or found there more than once,
stops the script before any test runs, with exit 2.  Prints one line per
row and exits 0 only when every row is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 900

B = "src/ksetlab/bounds.py"
G = "src/ksetlab/geometry.py"
C = "src/ksetlab/circular.py"
IO = "src/ksetlab/io.py"

#: (name, file, old text, new text, pytest selection)
MUTANTS = [
    ("het off by n for k > s", B,
     "het = low if k <= s else het_s + (k - s) * n",
     "het = low if k <= s else het_s + (k - s + 1) * n",
     ["tests/test_bounds.py::TestHeterogeneousCount"]),
    ("m = 0 ceil(Y) fallback raised by 1", B,
     "        ceil_y = low\n",
     "        ceil_y = low + 1\n",
     ["tests/test_bounds.py::TestMinKsetCount"]),
    ("ceil(Y) rounded down in the crossing sum", B,
     "ceil_y = -(-num // den)",
     "ceil_y = num // den",
     ["tests/test_bounds.py::TestBoundTable::test_crossing_equals_per_k_sum"]),
    ("L raised by 1", B,
     "sharp = het + 3 * (pairs_s - edges)",
     "sharp = het + 3 * (pairs_s - edges) + 1",
     ["tests/test_bounds.py::TestSharpBound"]),
    ("_bqr without r += 1", B,
     "    r += 1\n",
     "",
     ["tests/test_bounds.py::TestBqrDecompose"]),
    ("_threshold without its - 1", B,
     "return (math.isqrt(4 * t - 3) - 1) // 2",
     "return math.isqrt(4 * t - 3) // 2",
     ["tests/test_bounds.py::TestRefinementDepth"]),
    ("grid constructor not dividing by the gcd", G,
     "        if c > 1:\n",
     "        if c < 1:\n",
     ["tests/test_geometry.py::TestIntegerKernel"]),
    ("from_coords taking the lcm of the x denominators only", G,
     "m = math.lcm(*(c.denominator for p in pts for c in p))",
     "m = math.lcm(*(x.denominator for x, _ in pts))",
     ["tests/test_geometry.py::TestIntegerKernel"]),
    ("with_labels dropping the scale", G,
     "out = PointSet(self.coords, self.scale, labels)",
     "out = PointSet(self.coords, 1, labels)",
     ["tests/test_geometry.py::TestIntegerKernel"]),
    ("no exact sort of tie runs", G,
     "order[lo:hi] = run = sorted(order[lo:hi], key=cmp_to_key(turn))",
     "order[lo:hi] = run = order[lo:hi]",
     ["tests/test_geometry.py::TestAngularSort"]),
    ("no block reversal in the rotation", C,
     "                column[block] = column[block][::-1]\n",
     "                column[block] = column[block]\n",
     ["tests/test_circular.py::TestRotation"]),
    ("_ratio not reducing", IO,
     "        return num // g, den // g\n",
     "        return num, den\n",
     ["tests/test_io_cli.py::TestPointSetFiles::test_parse_fraction_agrees_with_fraction"]),
    ("no sign normalisation in offer", G,
     "            if dx < 0 or not dx and dy < 0:\n                g = -g\n",
     "",
     ["tests/test_geometry.py::TestGeneralPositionDraw"]),
]


def check_rows() -> list[str]:
    """The rows whose old text is not found exactly once in its file."""
    bad = []
    for name, path, old, _, _ in MUTANTS:
        found = (ROOT / path).read_text().count(old)
        if found != 1:
            bad.append(f"{name}: old text found {found} times in {path}")
    return bad


def pytest(tree: Path, selection: list[str]) -> int:
    """The exit code of pytest on ``selection`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def main() -> int:
    bad = check_rows()
    if bad:
        for line in bad:
            print(f"error: {line}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        where = subprocess.run(
            [sys.executable, "-c", "import ksetlab; print(ksetlab.__file__)"],
            cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(tree.resolve()):
            print(f"error: ksetlab imported from {where}, not the copy", file=sys.stderr)
            return 2
        clean = {}
        for *_, selection in MUTANTS:
            key = tuple(selection)
            if key not in clean:
                clean[key] = pytest(tree, selection)
                if clean[key] != 0:
                    print(f"error: {' '.join(selection)} exits {clean[key]} unmutated",
                          file=sys.stderr)
        if any(clean.values()):
            return 1
        survived = 0
        for name, path, old, new, selection in MUTANTS:
            target = tree / path
            text = target.read_text()
            target.write_text(text.replace(old, new))
            try:
                code = pytest(tree, selection)
            finally:
                target.write_text(text)
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            survived += code != 1
            print(f"{verdict}: {name} [{' '.join(selection)}]")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
