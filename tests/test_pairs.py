"""Tests for the summary maths of tools/pairs.py (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_quartiles_are_inclusive():
    assert pairs.quartiles([10, 11, 12, 13, 14]) == (11, 12, 13)
    assert pairs.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_a_lower_is_better_metric():
    s = pairs.summarize([10, 11, 12, 13, 14], [9, 10, 11, 12, 15], "lower")
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (11, 12, 13)
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (10, 11, 12)
    assert s["relative"] == pytest.approx(-1 / 12)
    assert s["wins"] == 4
    # the medians are 1 apart, inside the parent's IQR of 2
    assert s["resolved"] is False


def test_a_higher_is_better_metric_and_ties():
    parent = [100, 100, 101, 102, 100, 99, 100, 101, 100, 100]
    change = [110, 100, 112, 111, 109, 113, 110, 99, 111, 110]
    s = pairs.summarize(parent, change, "higher")
    assert s["wins"] == 8  # one tie, one loss
    assert s["parent_median"] == 100 and s["change_median"] == 110
    assert (s["parent_q1"], s["parent_q3"]) == (100, 100.75) and s["resolved"] is True
    assert s["relative"] == pytest.approx(0.1)
    assert pairs.summarize(parent, change, "lower")["wins"] == 1


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        pairs.summarize([1, 2], [1], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([], [], "lower")
