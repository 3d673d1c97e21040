"""Run the Tier-1 suite and check that exactly the two known tests fail.

usage: python tools/tier1.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
repository root with ``src`` on PYTHONPATH and a JUnit XML report, prints
the passed, failed and skipped counts, and exits 0 only if the failed tests
(errors included) are exactly ``EXPECTED_FAILURES``.  Every other failure,
and every expected failure that did not fail, is named.  Stdlib only.
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The paper's asymptotic bands, checked outside their validity radius: the
# measured period and amplitude ratio are right (README), the bands are not.
EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_7_simulation_vs_theory",
    "tests.test_acceptance::test_criterion_8_amplitude_scaling",
}


def outcomes(report):
    """{test id: "passed" | "failed" | "skipped"} from a JUnit XML report."""
    result = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            result[name] = "failed"
        elif case.find("skipped") is not None:
            result[name] = "skipped"
        else:
            result[name] = "passed"
    return result


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        f"--junitxml={report}"], cwd=ROOT, env=env, check=False)
        if not report.exists():
            print("tier1: pytest wrote no report")
            return 1
        result = outcomes(report)
    failed = {name for name, outcome in result.items() if outcome == "failed"}
    counts = {outcome: sum(1 for o in result.values() if o == outcome)
              for outcome in ("passed", "failed", "skipped")}
    print("tier1: " + ", ".join(f"{count} {outcome}" for outcome, count in counts.items()))
    for name in sorted(failed - EXPECTED_FAILURES):
        print(f"tier1: unexpected failure: {name}")
    for name in sorted(EXPECTED_FAILURES - failed):
        print(f"tier1: expected failure did not fail: {name} ({result.get(name, 'not run')})")
    return 0 if failed == EXPECTED_FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
