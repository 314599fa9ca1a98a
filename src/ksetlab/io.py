"""Point-set files: JSON with exact fraction-string coordinates.

Schema::

    {
      "n": 9,
      "points": [["0/1", "1/2"], ...],   # n entries, "p/q" fraction strings
      "labels": ["a", "b", ...]          # optional, n entries of a|b|c
    }

A file is read straight to the point set's integer grid
(``PointSet.coords`` over ``PointSet.scale``, the lcm of the reduced
denominators): a ``[-]digits/digits`` string is read as two ints and
reduced by their gcd, with no ``Fraction``.  Any other form
``fractions.Fraction`` accepts (an integer, a decimal, a padded or
"+"-signed string) still parses through it, behind a guard on the decimal
exponent.  A file is written from the grid, each coordinate the reduced
"p/q" string of ``x / scale``, laid out as ``json.dumps(..., indent=2)``
lays out the schema's object (``save_point_set`` alone writes it);
coordinates round-trip bit exactly.  ``Fraction`` points
(``PointSet.points``) are built by neither.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from .geometry import PointSet


def _int_digit_limit() -> int:
    """The interpreter's int digit limit, ``sys.get_int_max_str_digits()``
    (0 when unlimited), or CPython's default of 4300 where the interpreter
    predates it (Python 3.10.0-3.10.6)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return 4300 if get is None else get()


def _ratio(text: str) -> tuple[int, int]:
    """``text`` as a reduced numerator and a positive denominator.  A
    ``[-]digits/digits`` string is read as two ints; any other form goes to
    ``Fraction`` whole, refusing a decimal exponent beyond the int digit
    limit (``_int_digit_limit()``, when set): ``Fraction`` reads "1e5000"
    as 10**5000, a power that limit does not guard."""
    text = str(text)
    p, slash, q = text.partition("/")
    if slash and q.isdecimal() and p.removeprefix("-").isdecimal():
        num, den = int(p), int(q)
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        g = math.gcd(num, den)
        return num // g, den // g
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    limit = _int_digit_limit()
    if exponent and limit and abs(int(exponent[1])) > limit:
        raise ValueError(f"exponent beyond {limit} in {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return value.numerator, value.denominator


def point_set_from_dict(data: dict) -> PointSet:
    """Validate and build a point set on its integer grid; any malformed
    input raises ``ValueError`` (``LabelingError`` for bad labels) with a
    one-line message."""
    if not isinstance(data, dict):
        raise ValueError("a point-set file must hold a JSON object")
    points = data.get("points")
    if not isinstance(points, list):
        raise ValueError("'points' must be a list of [x, y] pairs")
    if "n" in data and type(data["n"]) is not int:
        raise ValueError(f"'n' must be an integer, got {data['n']!r}")
    if "n" in data and data["n"] != len(points):
        raise ValueError(f"declared n={data['n']} but {len(points)} points given")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("'labels' must be a list")
    # The lcm of the reduced denominators is the grid's scale, and no prime
    # divides it and every coordinate.  Past the digit limit each
    # orientation test on the grid multiplies numbers of that many digits;
    # 10**limit has more than 3 * limit bits, so a shorter lcm is below it.
    limit = _int_digit_limit()
    common = 1
    ratios = []
    for idx, p in enumerate(points):
        if not isinstance(p, list) or len(p) != 2:
            raise ValueError(f"point {idx} is not an [x, y] pair")
        (x, dx), (y, dy) = _ratio(p[0]), _ratio(p[1])
        common = math.lcm(common, dx, dy)
        if limit and common.bit_length() > 3 * limit and common >= 10**limit:
            raise ValueError(
                f"the denominators' least common multiple exceeds {limit} digits"
                f" at point {idx}"
            )
        ratios.append((x, dx, y, dy))
    coords = [(x * (common // dx), y * (common // dy)) for x, dx, y, dy in ratios]
    return PointSet(coords, common, labels)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of the encoded ``items``, as ``json.dumps`` with
    ``indent=2`` lays it out at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def save_point_set(ps: PointSet, path: str | Path) -> None:
    """Write ``ps`` to ``path`` in the schema: the bytes ``json.dumps(...,
    indent=2)`` gives for ``{"n": ..., "points": ..., "labels": ...}`` (no
    "labels" on an unlabeled set) and a newline, from the grid's strings
    without ``json``'s encoder."""
    m, gcd = ps.scale, math.gcd
    points = []
    for x, y in ps.coords:  # each coordinate as its reduced "p/q" string
        g, h = gcd(x, m), gcd(y, m)
        points.append(f'[\n      "{x // g}/{m // g}",\n      "{y // h}/{m // h}"\n    ]')
    text = f'{{\n  "n": {ps.n},\n  "points": {_json_list(points, "  ")}'
    if ps.labels is not None:
        labels = [f'"{c}"' for c in ps.labels]
        text += f',\n  "labels": {_json_list(labels, "  ")}'
    Path(path).write_text(text + "\n}\n")


def load_point_set(path: str | Path) -> PointSet:
    text = Path(path).read_text()
    try:
        return point_set_from_dict(json.loads(text))
    except RecursionError:
        raise ValueError("point-set file is nested too deeply") from None
