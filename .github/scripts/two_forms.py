"""Write one random point set twice, as "p/q" strings and in other forms.

    python .github/scripts/two_forms.py pq.json forms.json

The first file is the one ``save_point_set`` writes: every coordinate a
normalized "p/q" string, which ``parse_fraction`` reads as two ints.  The
second holds the same points with each coordinate in another form
``fractions.Fraction`` reads, in turn: a JSON integer, a decimal string,
a padded string, a "+"-signed string, or Arabic-Indic digits (a form that
does not fit the value, such as a decimal for a third, falls back to the
padded string).  ``analyze`` must print the same CSV for both files.
"""

from __future__ import annotations

import json
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

from ksetlab.geometry import GeneralPositionDraw, PointSet
from ksetlab.io import save_point_set

N = 30
DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 10)
#: The drawer takes integer points: every coordinate times this scale.
SCALE = math.lcm(*DENOMINATORS)
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def other_form(value: Fraction, turn: int) -> int | str:
    """``value`` in form ``turn % 5`` of the module docstring's list."""
    p, q = value.numerator, value.denominator
    form = turn % 5
    if form == 0 and q == 1:
        return p
    if form == 1 and 10**6 % q == 0:
        return str(Decimal(p) / Decimal(q))
    if form == 3 and p >= 0:
        return f"+{p}/{q}"
    if form == 4:
        return f"{p}/{q}".translate(ARABIC_INDIC)
    return f"  {p}/{q} "


def main(pq_path: str, forms_path: str) -> int:
    rng = random.Random(310)
    draw = GeneralPositionDraw()
    while len(draw.points) < N:
        draw.offer(tuple(rng.randint(-60, 60) * (SCALE // rng.choice(DENOMINATORS)) for _ in "xy"))
    ps = PointSet.from_coords((Fraction(x, SCALE), Fraction(y, SCALE)) for x, y in draw.points)
    save_point_set(ps, pq_path)
    coords = [c for p in ps.points for c in (p.x, p.y)]
    forms = [other_form(c, turn) for turn, c in enumerate(coords)]
    points = [forms[i : i + 2] for i in range(0, len(forms), 2)]
    with open(forms_path, "w") as fh:
        json.dump({"n": N, "points": points}, fh, indent=2)
    print(f"wrote {N} points to {pq_path} as p/q strings and to {forms_path} in other forms")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
