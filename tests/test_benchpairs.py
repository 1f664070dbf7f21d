"""The verdict rule of tools/benchpairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

PARENT = [4.0, 4.1, 4.2, 4.1, 4.0, 4.3, 4.1, 4.2, 4.0, 4.1]


@pytest.mark.parametrize("change, bound, expected", [
    # 10 of 10 pairs won, medians 1.2 apart against a parent IQR of 0.1
    ([2.9, 3.0, 2.9, 3.0, 2.9, 3.0, 2.9, 3.0, 2.9, 3.0], 0.25, ("better", 10)),
    # 8 of 10 won is not enough for a claim; the ratio 0.76 is within the bound
    ([2.9, 3.0, 2.9, 3.0, 2.9, 3.0, 2.9, 3.0, 4.5, 4.5], 0.25, ("within bound", 8)),
    # 9 of 10 won, but the medians are 0.01 apart, inside the parent's IQR
    ([3.99, 4.09, 4.19, 4.09, 3.99, 4.29, 4.09, 4.19, 3.99, 4.2], 0.25, ("within bound", 9)),
    # 1.15 times the parent's median is past a bound of 0.1
    ([4.7] * 10, 0.1, ("worse", 0)),
    ([4.5] * 10, 0.1, ("within bound", 0)),
])
def test_verdicts(change, bound, expected):
    assert benchpairs.verdict(PARENT, change, bound) == expected


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.5, 2.0, 2.5, 3.0]        # IQR 1.0 over a median of 2.0
    assert benchpairs.verdict(parent, [2.2] * 5, 0.25) == ("unresolved", 2)
    # unless every change run beats every parent run
    assert benchpairs.verdict(parent, [0.5] * 5, 0.25)[0] == "better"


def test_higher_is_better_metrics_flip_the_comparison():
    assert benchpairs.verdict([1.0] * 10, [2.0] * 10, 0.1, lower_is_better=False) \
        == ("better", 10)
    assert benchpairs.verdict([2.0] * 10, [1.0] * 10, 0.1, lower_is_better=False)[0] == "worse"


def test_seed_ranges():
    assert benchpairs.parse_seeds("1-3,11-12") == [1, 2, 3, 11, 12]
    assert benchpairs.parse_seeds("7") == [7]
