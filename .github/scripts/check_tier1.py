"""Pass a tier-1 JUnit XML report only when its one failure is criterion C3.

    python .github/scripts/check_tier1.py tier1.xml

Acceptance criterion C3 (the per-i ``2n - 3i`` clause) is a documented,
intentional failure: it states the claim literally and reports that actual
3-decomposable halfperiods do not realize it.  So the suite is green when
every test passed except C3, which must still have run and failed.  Any
other failure or error, a skipped C3, or a C3 that passes fails the check.
Prints one line per test that did not pass, then a summary; exits 0 or 1.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURE = "tests/test_acceptance.py::test_criterion_3_heterogeneous_exactness"


def test_id(case: ET.Element) -> str:
    # pytest writes classname "tests.test_acceptance" (plus ".Class" for a
    # test in a class) and name "test_x[param]".
    parts = case.get("classname", "").split(".")
    module = [p for p in parts if p[:1].islower()]
    classes = [p for p in parts if p[:1].isupper()]
    return "::".join(["/".join(module) + ".py", *classes, case.get("name", "")])


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    outcome = {}
    for case in cases:
        kinds = [child.tag for child in case if child.tag in ("failure", "error", "skipped")]
        outcome[test_id(case)] = kinds[0] if kinds else "passed"
    problems = []
    for tid, kind in sorted(outcome.items()):
        if kind != "passed":
            print(f"{kind}: {tid}")
        if kind != "passed" and tid != EXPECTED_FAILURE:
            problems.append(f"unexpected {kind}: {tid}")
    if outcome.get(EXPECTED_FAILURE) != "failure":
        problems.append(f"{EXPECTED_FAILURE} must run and fail, got "
                        f"{outcome.get(EXPECTED_FAILURE, 'not run')}")
    passed = sum(1 for kind in outcome.values() if kind == "passed")
    print(f"{len(cases)} tests, {passed} passed; "
          + ("ok: only the intentional C3 failure" if not problems else "; ".join(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
