"""End-to-end acceptance criteria, one test per criterion.

Each test runs its criterion at the stated tolerance and asserts the
result.  Criteria whose mathematical content cannot hold as stated are
expected to fail here; the failure text carries the measured numbers.
Run with -v for one pass/fail line per criterion.

Each criterion runs once per session (_result): the per-criterion tests
and the selftest snapshot read the same result.  The snapshot is the
stdout of `hypolib selftest --criteria 1-12 --seed 1301`; every
criterion's status and details must match it, the red ones included.  A
change that moves a detail rewrites it in the same commit, and says which
details moved and why:

    PYTHONPATH=src python -m hypolib.cli selftest --criteria 1-12 --seed 1301 > SNAPSHOT

with SNAPSHOT the path tests/contract/selftest-1301.csv.
"""

import csv
from functools import lru_cache
from pathlib import Path

import pytest

from hypolib.acceptance import CRITERIA, DEFAULT_SEED, _guard, run_criterion

NAMES = {index: name for index, name in CRITERIA}
SELFTEST = Path(__file__).resolve().parent / "contract" / f"selftest-{DEFAULT_SEED}.csv"


@lru_cache(maxsize=None)
def _result(index):
    return run_criterion(index)


@pytest.mark.parametrize(
    "index", sorted(NAMES), ids=[f"{i:02d}-{NAMES[i].replace(' ', '-')}" for i in sorted(NAMES)]
)
def test_criterion(index):
    res = _result(index)
    assert res.passed, f"criterion {index} ({res.name}): {res.details}"


def test_criteria_match_the_selftest_snapshot():
    with open(SELFTEST, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["criterion"]) for row in rows] == list(range(1, 13))
    for row in rows:
        res = _result(int(row["criterion"]))
        assert res.name == row["name"]
        assert ("pass" if res.passed else "fail", res.details) == (row["status"], row["details"])


def test_unexpected_exceptions_become_failed_rows():
    res = _guard(99, "divides by zero", lambda: 1 / 0)
    assert not res.passed
    assert res.details == "aborted by ZeroDivisionError: division by zero"
