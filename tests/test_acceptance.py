"""End-to-end acceptance criteria, one test per criterion.

Each test runs its criterion at the stated tolerance and asserts the
result.  Criteria whose mathematical content cannot hold as stated are
expected to fail here; the failure text carries the measured numbers.
Run with -v for one pass/fail line per criterion.
"""

import pytest

from hypolib.acceptance import CRITERIA, _guard, run_criterion

NAMES = {index: name for index, name in CRITERIA}


@pytest.mark.parametrize(
    "index", sorted(NAMES), ids=[f"{i:02d}-{NAMES[i].replace(' ', '-')}" for i in sorted(NAMES)]
)
def test_criterion(index):
    res = run_criterion(index)
    assert res.passed, f"criterion {index} ({res.name}): {res.details}"


def test_unexpected_exceptions_become_failed_rows():
    res = _guard(99, "divides by zero", lambda: 1 / 0)
    assert not res.passed
    assert res.details == "aborted by ZeroDivisionError: division by zero"
