"""Tests for table assembly, classification, and the verification checks.

Reference tables below were cross-checked against the Fox-calculus
Alexander oracle and the geometric intersection oracle before freezing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzelhfk.algebra import HalfInteger, HfkTable
from pretzelhfk.curves import TangleParams, pretzel_tangle_curves
from pretzelhfk.hfk import (
    Shape,
    classification_from_table,
    classify,
    closure_slope,
    compute_hfk,
    verify,
)
from pretzelhfk.pairing import pair_curve

D = HalfInteger.halves


def table_of(a, b, c, sign):
    return compute_hfk(TangleParams(a, b, c, sign))


def as_dict(table):
    return {(s, d.twice): rk for (s, d), rk in table.entries.items()}


class TestReferenceTables:
    def test_thin_p2_m3_5(self):
        table = table_of(1, 1, 2, "+")  # P(2,-3,5)
        assert as_dict(table) == {
            (-3, 1): 1, (-2, 1): 2, (-1, 1): 2, (0, 1): 1,
            (1, 1): 2, (2, 1): 2, (3, 1): 1,
        }

    def test_overlap_p6_m3_5(self):
        table = table_of(3, 1, 2, "+")  # P(6,-3,5)
        assert as_dict(table) == {
            (-3, 1): 1, (-2, 1): 2, (-1, 1): 1, (1, 1): 1, (2, 1): 2, (3, 1): 1,
            (-1, -1): 1, (0, -1): 3, (1, -1): 1,
        }
        assert table.total_rank == 13

    def test_thin_p2_m5_5(self):
        table = table_of(1, 2, 2, "+")  # P(2,-5,5)
        assert as_dict(table) == {
            (s, 1): 5 - abs(s) for s in range(-4, 5)
        }
        assert table.total_rank == 25

    def test_disjoint_p2_m3_m3(self):
        table = table_of(1, 1, 1, "-")  # P(2,-3,-3)
        assert as_dict(table) == {
            (-3, 1): 1, (-2, 1): 1, (2, 1): 1, (3, 1): 1, (0, 3): 1,
        }


class TestClassification:
    def test_negative_closure_predicates(self):
        assert classify(TangleParams(2, 1, 3, "-")).shape is Shape.THIN
        assert classify(TangleParams(1, 1, 1, "-")).shape is Shape.TWO_DELTA_DISJOINT
        assert classify(TangleParams(2, 2, 1, "-")).shape is Shape.THIN

    def test_positive_closure_trichotomy(self):
        assert classify(TangleParams(1, 2, 3, "+")).shape is Shape.THIN
        assert classify(TangleParams(3, 2, 2, "+")).shape is Shape.THIN
        assert classify(TangleParams(3, 2, 4, "+")).shape is Shape.TWO_DELTA_DISJOINT
        overlap = classify(TangleParams(4, 1, 3, "+"))
        assert overlap.shape is Shape.OVERLAP
        assert overlap.overlap_gradings == (-2, 2)
        assert overlap.overlap_ranks == (1, 2)

    def test_table_rederivation_agrees(self):
        for tup in [(1, 1, 2, "+"), (3, 1, 2, "+"), (1, 1, 1, "-"), (3, 2, 4, "+")]:
            params = TangleParams(*tup)
            assert classification_from_table(compute_hfk(params)) == classify(params)

    def test_rederivation_rejects_malformed_tables(self):
        bad = HfkTable(
            params=None,
            entries={(0, D(-1)): 1, (0, D(1)): 1, (0, D(3)): 1},
        )
        with pytest.raises(ValueError):
            classification_from_table(bad)


class TestClosureSlope:
    def test_convention(self):
        assert closure_slope(TangleParams(1, 1, 3, "+")).numerator == -1
        assert closure_slope(TangleParams(1, 1, 3, "-")).numerator == 1
        assert closure_slope(TangleParams(1, 1, 3, "-")).denominator == 7


class TestVerify:
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(["+", "-"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_checks_pass_on_the_family(self, a, b, c, sign):
        report = verify(TangleParams(a, b, c, sign))
        assert report.passed, report.failures()

    def test_report_contents(self):
        report = verify(TangleParams(3, 1, 2, "+"))
        assert report.checks["euler_matches_alexander_oracle"] == "pass"
        assert report.checks["overlap_ranks"] == "pass"
        assert report.checks["thin_ranks_match_alexander"] == "skip"

    def test_thin_check_active_on_thin_knots(self):
        report = verify(TangleParams(1, 1, 2, "+"))
        assert report.checks["thin_ranks_match_alexander"] == "pass"
        assert report.checks["overlap_ranks"] == "skip"


class TestAssemblySize:
    """Sizes, not times: pairings stay a few runs however large the rank."""

    @pytest.mark.parametrize("a, b, c", [(100, 20, 100), (100, 99, 100), (20, 100, 20)])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_every_pairing_is_at_most_four_runs(self, a, b, c, sign):
        for curve in pretzel_tangle_curves(a, b):
            assert len(pair_curve(sign, c, curve).generators.runs) <= 4, curve

    def test_large_table_rank_and_cells(self):
        table = table_of(100, 20, 100, "+")
        assert table.total_rank == 27119
        assert len(table.entries) == 243
