"""Acceptance-criterion summary lines.

Collected by the acceptance tests; the terminal-summary hook in conftest.py
prints them once the run is over, so each criterion gets a visible PASS/FAIL
line even when pytest captures stdout.  A plain module rather than
conftest.py, whose name is shared with bench/conftest.py when both
directories are collected.
"""

CRITERION_LINES = []


def record_criterion(number, outcome, detail):
    CRITERION_LINES.append((number, outcome, detail))
