"""Prints one PASS/FAIL line per acceptance criterion after the run, and
registers the hypothesis profile "ci": HYPOTHESIS_PROFILE=ci draws the same
examples on every run and keeps no example database."""
import os
import re

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", derandomize=True, database=None)
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
        settings.load_profile("ci")

_ACCEPTANCE: dict = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    passed = report.outcome == "passed"
    prev = _ACCEPTANCE.get(n)
    _ACCEPTANCE[n] = passed if prev is None else (prev and passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    from test_acceptance import CRITERIA
    for n in sorted(_ACCEPTANCE):
        status = "PASS" if _ACCEPTANCE[n] else "FAIL"
        tw.write_line(f"criterion {n} [{CRITERIA[n]}]: {status}")
