"""Tests for the graded tangle curve lists and their invariants."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzelhfk.curves import (
    CaseLabel,
    CurveError,
    CurveKind,
    GradedCurve,
    ReducedSlope,
    TangleParams,
    case_of,
    pretzel_tangle_curves,
    slope_AB,
)

small = st.integers(min_value=1, max_value=8)


def grading_reversed(curve):
    """The involution (kind, m, M) -> (swapped kind, -M, -m) on graded curves."""
    swapped = {CurveKind.SPECIAL14: CurveKind.SPECIAL23, CurveKind.SPECIAL23: CurveKind.SPECIAL14}
    return replace(curve, kind=swapped.get(curve.kind, curve.kind), m=-curve.M, M=-curve.m)


class TestReducedSlope:
    def test_lowest_terms_required(self):
        with pytest.raises(CurveError):
            ReducedSlope(2, 4)
        with pytest.raises(CurveError):
            ReducedSlope(1, -2)

    def test_infinity_encoding(self):
        inf = ReducedSlope(1, 0)
        assert inf.is_infinite
        with pytest.raises(CurveError):
            ReducedSlope(2, 0)


class TestGradedCurve:
    def test_special_span_must_be_4k(self):
        with pytest.raises(CurveError):
            GradedCurve.special14(1, 0, 2)
        GradedCurve.special14(1, 0, 4)

    def test_special_gradings_must_be_even(self):
        with pytest.raises(CurveError):
            GradedCurve.special23(1, 1, 5)

    def test_rational_odd_gradings_allowed(self):
        # closure curves carry odd symmetric gradings
        GradedCurve.rational(1, 3, -3, 3)
        with pytest.raises(CurveError):
            GradedCurve.rational(1, 2, -1, 2)

    def test_grading_reversal_swaps_special_types(self):
        c = GradedCurve.special14(2, -2, 6)
        r = grading_reversed(c)
        assert r.kind is CurveKind.SPECIAL23
        assert (r.m, r.M) == (-6, 2)
        assert grading_reversed(r) == c


class TestCaseSplit:
    def test_boundaries(self):
        assert case_of(2, 2) is CaseLabel.CASE_I
        assert case_of(3, 2) is CaseLabel.CASE_II
        assert case_of(4, 2) is CaseLabel.CASE_III

    def test_slope_data(self):
        # a=3, b=1: A = 2(a-b)-1 = 3, B = A(2b+1)+1 = 10, M = 2b+2 = 4
        assert slope_AB(3, 1) == (3, 10, 4)
        assert slope_AB(4, 1) == (5, 16, 4)
        with pytest.raises(CurveError):
            slope_AB(2, 1)

    @given(small, small)
    def test_slope_AB_identity(self, a, b):
        if case_of(a, b) is CaseLabel.CASE_III:
            A, B, M = slope_AB(a, b)
            assert B == A * (2 * b + 1) + 1
            assert M == 2 * b + 2


class TestTangleCurveLists:
    @given(small, small)
    def test_list_is_grading_reversal_invariant(self, a, b):
        curves = pretzel_tangle_curves(a, b)
        reversed_set = sorted(str(grading_reversed(c)) for c in curves)
        assert reversed_set == sorted(str(c) for c in curves)

    @given(small, small)
    def test_component_census(self, a, b):
        curves = pretzel_tangle_curves(a, b)
        rationals = [c for c in curves if c.kind is CurveKind.RATIONAL]
        specials = [c for c in curves if c.kind is not CurveKind.RATIONAL]
        case = case_of(a, b)
        if case is CaseLabel.CASE_I:
            assert len(rationals) == 2 * (b - a) + 1
            assert len(specials) == 4 * a - 2
        elif case is CaseLabel.CASE_II:
            assert len(rationals) == 1
            assert len(specials) == 4 * (a - 1)
        else:
            assert len(rationals) == 1
            assert len(specials) == 4 * b

    def test_case_two_single_rational_is_symmetric(self):
        (rc,) = [
            c
            for c in pretzel_tangle_curves(3, 2)
            if c.kind is CurveKind.RATIONAL
        ]
        assert (rc.slope.numerator, rc.slope.denominator) == (-1, 6)
        assert (rc.m, rc.M) == (-6, 6)

    def test_case_three_rational_slope(self):
        (rc,) = [
            c
            for c in pretzel_tangle_curves(3, 1)
            if c.kind is CurveKind.RATIONAL
        ]
        assert (rc.slope.numerator, rc.slope.denominator) == (-3, 10)
        assert (rc.m, rc.M) == (-4, 4)


class TestTangleParams:
    def test_validation(self):
        with pytest.raises(CurveError):
            TangleParams(0, 1, 1, "+")
        with pytest.raises(CurveError):
            TangleParams(1, 1, 1, "x")

    def test_pretzel_triple(self):
        assert TangleParams(3, 1, 2, "+").pretzel_triple() == (6, -3, 5)
        assert TangleParams(3, 1, 2, "-").pretzel_triple() == (6, -3, -5)
