"""Point-set files: JSON with exact fraction-string coordinates.

Schema::

    {
      "n": 9,
      "points": [["0/1", "1/2"], ...],   # n entries, "p/q" fraction strings
      "labels": ["a", "b", ...]          # optional, n entries of a|b|c
    }

Coordinates round-trip bit exactly: they are emitted as normalized "p/q"
strings, and a ``[-]digits/digits`` string is read back as two ints.  Any
other form ``fractions.Fraction`` accepts (an integer, a decimal, a padded
or "+"-signed string) still parses through it, behind a guard on the
decimal exponent.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from .geometry import Point, PointSet


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _int_digit_limit() -> int:
    """The interpreter's int digit limit, ``sys.get_int_max_str_digits()``
    (0 when unlimited), or CPython's default of 4300 where the interpreter
    predates it (Python 3.10.0-3.10.6)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return 4300 if get is None else get()


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``.  A ``[-]digits/digits`` string is read as two
    ints; any other form goes to ``Fraction`` whole, refusing a decimal
    exponent beyond the int digit limit (``_int_digit_limit()``, when set):
    ``Fraction`` reads "1e5000" as 10**5000, a power that limit does not
    guard."""
    text = str(text)
    p, slash, q = text.partition("/")
    try:
        if slash and q.isdecimal() and p.removeprefix("-").isdecimal():
            return Fraction(int(p), int(q))
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
        limit = _int_digit_limit()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent beyond {limit} in {text!r}")
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def point_set_to_dict(ps: PointSet) -> dict:
    out: dict = {
        "n": ps.n,
        "points": [[format_fraction(p.x), format_fraction(p.y)] for p in ps.points],
    }
    if ps.labels is not None:
        out["labels"] = list(ps.labels)
    return out


def point_set_from_dict(data: dict) -> PointSet:
    """Validate and build a point set; any malformed input raises
    ``ValueError`` (``LabelingError`` for bad labels) with a one-line
    message."""
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
    # The lcm of the denominators scales every coordinate to an integer
    # (``PointSet.coords``); past the digit limit each orientation test on
    # the scaled coordinates multiplies numbers of that many digits.
    limit = _int_digit_limit()
    too_large = 10**limit if limit else None
    common = 1
    pts = []
    for idx, p in enumerate(points):
        if not isinstance(p, list) or len(p) != 2:
            raise ValueError(f"point {idx} is not an [x, y] pair")
        pt = Point(parse_fraction(p[0]), parse_fraction(p[1]))
        common = math.lcm(common, pt.x.denominator, pt.y.denominator)
        if too_large is not None and common >= too_large:
            raise ValueError(
                f"the denominators' least common multiple exceeds {limit} digits"
                f" at point {idx}"
            )
        pts.append(pt)
    return PointSet(tuple(pts), tuple(labels) if labels is not None else None)


def save_point_set(ps: PointSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(point_set_to_dict(ps), indent=2) + "\n")


def load_point_set(path: str | Path) -> PointSet:
    text = Path(path).read_text()
    try:
        return point_set_from_dict(json.loads(text))
    except RecursionError:
        raise ValueError("point-set file is nested too deeply") from None
