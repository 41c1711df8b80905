"""Tests for the graded tangle curve lists and their invariants."""

import hashlib
import math
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_acceptance import grading_reversed

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
from pretzelhfk.hfk import verify

small = st.integers(min_value=1, max_value=8)


class TestReducedSlope:
    def test_lowest_terms_required(self):
        with pytest.raises(CurveError):
            ReducedSlope(2, 4)
        with pytest.raises(CurveError):
            ReducedSlope(1, -2)

    def test_a_zero_denominator_is_rejected(self):
        # every curve of the pairings has a finite slope; 1/0 is not an encoding
        for numerator in (1, -1, 2, 0):
            with pytest.raises(CurveError, match="denominator must be positive"):
                ReducedSlope(numerator, 0)


class TestGradedCurve:
    def test_special_span_must_be_4k(self):
        with pytest.raises(CurveError):
            GradedCurve(CurveKind.SPECIAL14, 0, 2, None, 1)
        GradedCurve(CurveKind.SPECIAL14, 0, 4, None, 1)

    def test_special_gradings_must_be_even(self):
        with pytest.raises(CurveError):
            GradedCurve(CurveKind.SPECIAL23, 1, 5, None, 1)

    def test_rational_odd_gradings_allowed(self):
        # closure curves carry odd symmetric gradings
        GradedCurve.rational(1, 3, -3, 3)
        with pytest.raises(CurveError):
            GradedCurve.rational(1, 2, -1, 2)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((CurveKind.RATIONAL, -2, 2), "rational curve needs a slope and no index"),
            ((CurveKind.RATIONAL, -2, 2, ReducedSlope(1, 2), 1), "rational curve needs a slope and no index"),
            ((CurveKind.SPECIAL14, 0, 0, None, 0), "special curve needs a positive index and no slope"),
            ((CurveKind.SPECIAL23, 0, 4), "special curve needs a positive index and no slope"),
            ((CurveKind.SPECIAL14, 0, 4, ReducedSlope(1, 2), 1), "special curve needs a positive index and no slope"),
            (("special14", -4, 0, None, 1), "curve kind must be a CurveKind member, not 'special14'"),
            (("rational", -2, 2, ReducedSlope(1, 2)), "curve kind must be a CurveKind member, not 'rational'"),
            ((None, 0, 4, None, 1), "curve kind must be a CurveKind member, not None"),
        ],
    )
    def test_malformed_curves_are_rejected(self, args, message):
        with pytest.raises(CurveError, match=message):
            GradedCurve(*args)

    @pytest.mark.parametrize(
        "curve, changes, message",
        [
            (GradedCurve.rational(1, 2, -2, 2), {"slope": None}, "rational curve needs a slope and no index"),
            (GradedCurve.rational(1, 2, -2, 2), {"k": 1}, "rational curve needs a slope and no index"),
            (GradedCurve(CurveKind.SPECIAL14, 0, 4, None, 1), {"k": 0, "M": 0},
             "special curve needs a positive index and no slope"),
            (GradedCurve(CurveKind.SPECIAL23, 0, 4, None, 1), {"k": None},
             "special curve needs a positive index and no slope"),
            (
                GradedCurve(CurveKind.SPECIAL23, 0, 4, None, 1),
                {"slope": ReducedSlope(1, 2)},
                "special curve needs a positive index and no slope",
            ),
            (GradedCurve(CurveKind.SPECIAL14, 0, 4, None, 1), {"M": 8}, "special curve span must be 4k, got 8"),
            (GradedCurve(CurveKind.SPECIAL14, 0, 4, None, 1), {"kind": "special14"},
             "curve kind must be a CurveKind member"),
        ],
    )
    def test_replace_revalidates(self, curve, changes, message):
        with pytest.raises(CurveError, match=message):
            curve._replace(**changes)

    def test_fields_cannot_be_assigned(self):
        curve = GradedCurve(CurveKind.SPECIAL14, 0, 4, None, 1)
        with pytest.raises(AttributeError):
            curve.m = 2
        with pytest.raises(AttributeError):
            curve.slope = ReducedSlope(1, 2)
        assert curve == GradedCurve(CurveKind.SPECIAL14, 0, 4, None, 1)

    @pytest.mark.parametrize(
        "forged, message",
        [
            (tuple.__new__(ReducedSlope, (2, 4)), "slope must be in lowest terms"),
            (tuple.__new__(GradedCurve, (CurveKind.SPECIAL14, 0, 8, None, 1)), "special curve span must be 4k, got 8"),
            (tuple.__new__(TangleParams, (0, 1, 1, "+")), "a must be an int of at least 1, not 0"),
        ],
    )
    def test_unpickling_rechecks_at_every_protocol(self, forged, message):
        # a record made past its __new__ pickles as its fields, and loading runs __new__
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(forged, protocol)
            with pytest.raises(CurveError, match=re.escape(message)):
                pickle.loads(data)

    def test_grading_reversal_swaps_special_types(self):
        c = GradedCurve(CurveKind.SPECIAL14, -2, 6, None, 2)
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
        # a = b + 1: the same formulas give r(-1/2a) t^-2a t^2a
        assert slope_AB(2, 1) == (1, 4, 4)
        assert slope_AB(5, 4) == (1, 10, 10)
        for a, b in ((2, 2), (1, 3)):
            with pytest.raises(CurveError, match="slope_AB requires a > b"):
                slope_AB(a, b)

    @given(small, small)
    def test_slope_AB_identity(self, a, b):
        if a > b:
            A, B, M = slope_AB(a, b)
            assert B == A * (2 * b + 1) + 1
            assert math.gcd(A, B) == 1
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

    def test_every_curve_survives_revalidation(self):
        """_replace() and unpickling both rerun __new__; both give the same curve."""
        assert {case_of(a, b) for a in range(1, 13) for b in range(1, 13)} == set(CaseLabel)
        for a in range(1, 13):
            for b in range(1, 13):
                for curve in pretzel_tangle_curves(a, b):
                    for copy in (curve._replace(), pickle.loads(pickle.dumps(curve))):
                        assert copy == curve and hash(copy) == hash(curve), (a, b, curve)
                        assert str(copy) == str(curve)

    def test_case_one_rationals_share_one_slope(self):
        for a in range(1, 13):
            for b in range(a, 13):
                slopes = [c.slope for c in pretzel_tangle_curves(a, b) if c.kind is CurveKind.RATIONAL]
                assert slopes[0] == ReducedSlope(1, 2 * a)
                assert all(s is slopes[0] for s in slopes), (a, b)

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

    def test_every_ordered_list_up_to_40_is_pinned(self):
        # (a, b, [str(curve), ...]) for all a, b <= 40 pins every curve of
        # every list and its position in the list
        digest = hashlib.sha256()
        for a in range(1, 41):
            for b in range(1, 41):
                digest.update(f"{(a, b, [str(c) for c in pretzel_tangle_curves(a, b)])}\n".encode())
        assert digest.hexdigest() == "561b7051ec51fc1f5f34e83e12956d76efa127ab534cace3732d24814a57b5b3"


def memo_sample():
    """The 6x6 grid plus 60 seeded (a, b) with a, b <= 100, 20 from each case."""
    rng = random.Random(1515)
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7)]
    for case in CaseLabel:
        drawn = 0
        while drawn < 20:
            a = rng.randint(2, 100)
            b = a - 1 if case is CaseLabel.CASE_II else rng.randint(1, 100)
            if case_of(a, b) is case:
                pairs.append((a, b))
                drawn += 1
    return pairs


class TestTangleCurveMemo:
    def test_every_result_is_the_unmemoized_tuple(self):
        pairs = memo_sample()
        assert {case_of(a, b) for a, b in pairs} == set(CaseLabel)
        for a, b in pairs:
            fresh = pretzel_tangle_curves.__wrapped__(a, b)
            for _ in range(2):  # the built result, then the kept one
                curves = pretzel_tangle_curves(a, b)
                assert type(curves) is tuple and curves == fresh, (a, b)

    def test_verify_builds_the_list_once(self):
        pretzel_tangle_curves.cache_clear()
        verify(TangleParams(5, 2, 3, "+"))
        info = pretzel_tangle_curves.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 1, 1)

    def test_a_cold_build_checks_each_curve_once(self, monkeypatch):
        checked = []
        new = GradedCurve.__new__

        def counted(cls, *args):
            curve = new(cls, *args)
            checked.append(curve)
            return curve

        monkeypatch.setattr(GradedCurve, "__new__", counted)
        pretzel_tangle_curves.cache_clear()
        try:
            for a, b in ((3, 5), (5, 5), (6, 5), (9, 5)):  # a < b, a = b, a = b + 1, a > b + 1
                pretzel_tangle_curves.cache_clear()
                checked.clear()
                curves = pretzel_tangle_curves(a, b)
                # one __new__ per returned curve, on that very curve, and no other curve built
                assert len(checked) == len(curves), (a, b)
                assert set(map(id, checked)) == set(map(id, curves)), (a, b)
        finally:
            pretzel_tangle_curves.cache_clear()

    # pretzel_tangle_curves takes a and b checked by TangleParams, so a bad
    # value never reaches the curve list or its memo

    def test_invalid_parameters_still_raise(self):
        pretzel_tangle_curves.cache_clear()
        for a, b in ((0, 1), (1, 0), (-2, 3)):
            with pytest.raises(CurveError):
                verify(TangleParams(a, b, 1, "+"))
        assert pretzel_tangle_curves.cache_info().currsize == 0

    def test_a_float_is_not_served_the_cached_int_result(self):
        for cached, bad in (((3, 1), (3.0, 1)), ((1, 1), (True, 1))):
            pretzel_tangle_curves.cache_clear()
            pretzel_tangle_curves(*cached)
            with pytest.raises(CurveError):
                verify(TangleParams(*bad, 1, "+"))
            assert pretzel_tangle_curves.cache_info().hits == 0

    @pytest.mark.parametrize("value", [True, False, 2.0, 0, -1, "2", None])
    def test_a_parameter_that_is_not_a_positive_int_is_rejected_by_name(self, value):
        # unchecked, (True, 1) gave the a = 1 list
        for name, args in (("a", (value, 1)), ("b", (1, value))):
            with pytest.raises(CurveError, match="^" + re.escape(f"{name} must be an int of at least 1, not {value!r}") + "$"):
                verify(TangleParams(*args, 1, "+"))


class TestTangleParams:
    def test_validation(self):
        # the one check of a knot's parameters: the curve list, the pairings
        # and the closure curve take these values checked
        for value in (0, -1, -2):
            for field in ("a", "b", "c"):
                with pytest.raises(CurveError, match="^" + re.escape(f"{field} must be an int of at least 1, not {value}") + "$"):
                    TangleParams(**{"a": 1, "b": 1, "c": 1, field: value}, sign="+")
        with pytest.raises(CurveError, match="^sign must be '\\+' or '-', not 'x'$"):
            TangleParams(1, 1, 1, "x")

    def test_a_parameter_that_is_not_an_int_is_rejected_by_name(self):
        # unchecked, True would pass as 1 and a float fail later, in the curve list
        for value in (True, False, 1.5, 2.0, "2", "3", None):
            for field in ("a", "b", "c"):
                with pytest.raises(CurveError, match="^" + re.escape(f"{field} must be an int of at least 1, not {value!r}") + "$"):
                    TangleParams(**{"a": 1, "b": 1, "c": 1, field: value}, sign="+")

    def test_pretzel_triple(self):
        assert TangleParams(3, 1, 2, "+").pretzel_triple() == (6, -3, 5)
        assert TangleParams(3, 1, 2, "-").pretzel_triple() == (6, -3, -5)
