"""Tests for the closed-form curve pairings and the pair reduction."""

import math
import pickle
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pretzelhfk.algebra import GeneratorMultiset, HalfInteger, single_run
from pretzelhfk.curves import SPECIAL14, SPECIAL23, CurveError, GradedCurve, ReducedSlope, TangleParams, pretzel_tangle_curves
from pretzelhfk.hfk import compute_hfk
from pretzelhfk.pairing import (
    PairingError,
    ReducedPairing,
    pair_curve,
    pair_rational_general,
    pair_rational_neg_half,
    pair_rational_pos_half,
    pair_special14,
    pair_special23,
    reduce_generator_pairs,
)

D = HalfInteger


def reference_blocks(base0, step, block, total, delta):
    """Per-generator emission: `total` generators in blocks alternating base / base+step."""
    gens = []
    i = 0
    while len(gens) < total:
        base = base0 + i
        for pos in range(block):
            if len(gens) == total:
                break
            gens.append(base if pos % 2 == 0 else base + step)
        i += 1
    return GeneratorMultiset(Counter((s, delta) for s in gens))


def reference_general(closure, c, A, B, M):
    """pair_rational_general, one generator at a time, with its intersection count L."""
    if closure == "-":
        L = B + A * (2 * c + 1)
        return reference_blocks(-M // 2 - c, +1, A, L, D(1)), L
    if A * (2 * c + 1) > B:
        L = A * (2 * c + 1) - B
        return reference_blocks(M // 2 - c, -1, A, L, D(-1)), L
    L = B - A * (2 * c + 1)
    return reference_blocks(-M // 2 + c + 1, +1, A, L, D(1)), L


class TestReduction:
    def test_single_pair(self):
        ms = GeneratorMultiset({(-1, D(1)): 1, (1, D(1)): 1})
        red = reduce_generator_pairs(ms)
        assert red.generators.entries == {(0, D(1)): 1}

    def test_chain_pairs_greedily_from_below(self):
        # the matching {-3,-1}, {-1,1}, {1,3} is forced
        ms = GeneratorMultiset(
            {(-3, D(1)): 1, (-1, D(1)): 2, (1, D(1)): 2, (3, D(1)): 1}
        )
        red = reduce_generator_pairs(ms)
        assert red.generators.entries == {(-1, D(1)): 1, (0, D(1)): 1, (1, D(1)): 1}

    def test_deltas_reduce_independently(self):
        ms = GeneratorMultiset(
            {(-1, D(1)): 1, (1, D(1)): 1, (-1, D(3)): 1, (1, D(3)): 1}
        )
        red = reduce_generator_pairs(ms)
        assert red.generators.entries == {(0, D(1)): 1, (0, D(3)): 1}

    def test_leftover_is_an_error(self):
        with pytest.raises(PairingError):
            reduce_generator_pairs(GeneratorMultiset({(0, D(1)): 1}))
        with pytest.raises(PairingError):
            reduce_generator_pairs(GeneratorMultiset({(0, D(1)): 1, (4, D(1)): 1}))

    def test_more_pairs_pending_than_generators_is_an_error(self):
        # both generators at 0 must pair upward, but only one waits at 2
        with pytest.raises(PairingError, match="^unpairable multiset at alexander grading 2$"):
            reduce_generator_pairs(GeneratorMultiset({(0, D(1)): 2, (2, D(1)): 1}))

    def test_even_midpoint_is_an_error(self):
        with pytest.raises(PairingError):
            reduce_generator_pairs(GeneratorMultiset({(0, D(1)): 1, (2, D(1)): 1}))

    def test_deltas_reduce_in_ascending_order(self):
        # delta 3/2 comes first in the cells, but -1/2 is reduced, and fails, first
        ms = GeneratorMultiset({(0, D(3)): 1, (2, D(3)): 1, (1, D(-1)): 1})
        with pytest.raises(PairingError, match=r"leftovers at \[3\]"):
            reduce_generator_pairs(ms)
        ms = GeneratorMultiset({(-1, D(3)): 1, (1, D(3)): 1, (1, D(-1)): 1, (3, D(-1)): 1})
        assert list(reduce_generator_pairs(ms).generators.entries) == [(1, D(-1)), (0, D(3))]


class TestSpecialPairings:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(-3, 3))
    def test_rank_is_2k_at_delta_one_half(self, k, c, base):
        curve = GradedCurve(SPECIAL14, 2 * base, 2 * base + 4 * k, None, k)
        for closure in ("+", "-"):
            out = pair_special14(closure, c, curve)
            assert out.total_rank == 2 * k
            assert {d for _, d in out.generators.entries} == {D(1)}

    def test_one_four_and_two_three_are_mirror_images(self):
        c14 = GradedCurve(SPECIAL14, -4, 4, None, 2)
        c23 = GradedCurve(SPECIAL23, -4, 4, None, 2)
        for c in (1, 2, 3):
            plus14 = pair_special14("+", c, c14).generators
            minus23 = pair_special23("-", c, c23).generators
            assert plus14 == minus23

    def test_kind_mismatch_rejected(self):
        with pytest.raises(PairingError):
            pair_special14("+", 1, GradedCurve(SPECIAL23, 0, 4, None, 1))
        with pytest.raises(PairingError, match=r"^curve is not special of \(2,3\) type$"):
            pair_special23("+", 1, GradedCurve(SPECIAL14, 0, 4, None, 1))


class TestRationalHalfSlopePairings:
    def test_negative_closure_gives_torus_knot_interval(self):
        curve = GradedCurve.rational(-1, 4, -4, 4)
        out = pair_rational_neg_half("-", 3, 2, curve)
        assert out.generators == single_run(-5, 5, D(1))

    def test_positive_closure_branches_on_n_versus_c(self):
        curve = GradedCurve.rational(-1, 6, -6, 6)
        wide = pair_rational_neg_half("+", 1, 3, curve)  # n > c
        assert wide.generators == single_run(-1, 1, D(1))
        narrow = pair_rational_neg_half("+", 5, 3, curve)  # n <= c
        assert narrow.generators == single_run(-2, 2, D(-1))

    def test_positive_slope_uses_the_curve_decoration(self):
        curve = GradedCurve.rational(1, 4, -6, 2)  # asymmetric m
        out = pair_rational_pos_half("+", 2, 2, curve)
        assert out.generators == single_run(-5, 3, D(1))
        deep = pair_rational_pos_half("-", 3, 2, curve)  # n <= c
        assert deep.generators == single_run(-2, 0, D(3))


class TestGeneralSlopePairing:
    def test_rank_matches_determinant_law(self):
        slope = ReducedSlope(-3, 10)
        for c in (1, 2, 3, 4):
            out = pair_rational_general("-", c, slope, 4)
            assert out.total_rank == 10 + 3 * (2 * c + 1)
            out = pair_rational_general("+", c, slope, 4)
            assert out.total_rank == abs(3 * (2 * c + 1) - 10)

    def test_output_is_negation_invariant(self):
        for (a, b) in [(3, 1), (4, 1), (4, 2), (6, 3)]:
            A = 2 * (a - b) - 1
            B = A * (2 * b + 1) + 1
            slope = ReducedSlope(-A, B)
            for closure in ("+", "-"):
                for c in (1, 2, 3):
                    gens = pair_rational_general(closure, c, slope, 2 * b + 2).generators
                    assert gens.entries == {(-s, d): rk for (s, d), rk in gens.entries.items()}

    @given(
        st.integers(0, 7).map(lambda k: 2 * k + 1),
        st.integers(1, 60).map(lambda k: 2 * k),
        st.integers(0, 12),
        st.integers(-12, 12),
        st.sampled_from(["+", "-"]),
    )
    # truncation remainders L mod A; a reduced slope has gcd(A, B) = 1, so 0 needs A = 1
    @example(5, 6, 2, 4, "-")  # L = 31: remainder 1
    @example(5, 4, 2, 4, "-")  # L = 29: remainder A - 1
    @example(5, 4, 2, 4, "+")  # L = 21 = A(2c+1) - B: remainder 1
    @example(5, 6, 2, 4, "+")  # L = 19: remainder A - 1
    @example(3, 22, 1, 4, "+")  # L = 13 = B - A(2c+1): remainder 1
    @example(3, 20, 1, 4, "+")  # L = 11: remainder A - 1
    @example(1, 2, 3, 4, "+")  # L = 5: remainder 0, single-generator blocks
    @example(1, 2, 3, 4, "-")  # L = 9: remainder 0
    def test_runs_match_the_per_generator_emission(self, A, B, c, M, closure):
        assume(A * (2 * c + 1) != B and math.gcd(A, B) == 1)
        got = pair_rational_general(closure, c, ReducedSlope(-A, B), M).generators
        want, L = reference_general(closure, c, A, B, M)
        assert got == want
        assert got.total_rank == L
        assert len(got.runs) <= 4

    def test_odd_denominator_rejected(self):
        with pytest.raises(PairingError):
            pair_rational_general("+", 1, ReducedSlope(-1, 3), 4)

    def test_non_case_shape_rejected(self):
        with pytest.raises(PairingError):
            pair_rational_general("-", 1, ReducedSlope(3, 10), 4)


class TestDispatch:
    def test_routes_by_kind_and_slope(self):
        assert pair_curve("-", 1, GradedCurve(SPECIAL14, 0, 4, None, 1)).total_rank == 2
        assert pair_curve("-", 1, GradedCurve.rational(-1, 2, -2, 2)).total_rank == 5
        assert pair_curve("-", 1, GradedCurve.rational(1, 2, -2, 2)).total_rank == 1

    def test_every_run_of_a_list_pairing_survives_the_of_runs_filter(self):
        # compute_hfk sums these runs without of_runs' filter: each must be nonempty with rank >= 1
        for a in range(1, 13):
            for b in range(1, 13):
                for curve in pretzel_tangle_curves(a, b):
                    for c in range(1, 13):
                        for sign in "+-":
                            runs = pair_curve(sign, c, curve).generators.runs
                            assert runs == GeneratorMultiset.of_runs(runs).runs, (a, b, c, sign, str(curve))

    @pytest.mark.parametrize(
        "curve, message",
        [
            # r(1/2n) needs M - m = 4n: this one would give 8 generators where det_pair_count says 5
            (GradedCurve.rational(1, 2, -2, 8), r"r\(1/2\) needs M - m = 4"),
            (GradedCurve.rational(1, 4, -2, 4), r"r\(1/4\) needs M - m = 8"),
            # r(-1/2n) needs t^-2n t^2n
            (GradedCurve.rational(-1, 4, -6, 2), r"r\(-1/4\) needs the grading t\^-4 t\^4"),
            (GradedCurve.rational(-1, 2, -2, 4), r"r\(-1/2\) needs the grading t\^-2 t\^2"),
            # the general r(-A/B) formula reads only M and needs m = -M
            (GradedCurve.rational(-3, 10, -2, 4), r"r\(-3/10\) needs m = -M"),
        ],
    )
    def test_a_curve_outside_its_formula_is_rejected(self, curve, message):
        for closure in ("+", "-"):
            for c in (1, 2, 5):
                with pytest.raises(PairingError, match=message):
                    pair_curve(closure, c, curve)

    def test_the_half_slope_pairings_check_the_grading_themselves(self):
        with pytest.raises(PairingError, match="needs M - m = 4"):
            pair_rational_pos_half("+", 1, 1, GradedCurve.rational(1, 2, -2, 8))
        with pytest.raises(PairingError, match="needs the grading"):
            pair_rational_neg_half("-", 1, 2, GradedCurve.rational(-1, 4, -6, 2))

    def test_bad_inputs(self):
        with pytest.raises(PairingError):
            pair_curve("+", 1, GradedCurve.rational(3, 5, -2, 2))

    @pytest.mark.parametrize("c", [2.0, True, 0, -1, "2", None])
    def test_a_closure_parameter_that_is_not_a_positive_int_is_rejected_by_name(self, c):
        # pair_curve takes c checked by TangleParams; unchecked, 2.0 gave float
        # gradings and True, 0 and -1 a table
        with pytest.raises(CurveError, match="^" + re.escape(f"c must be an int of at least 1, not {c!r}") + "$"):
            compute_hfk(TangleParams(1, 1, c, "+"))


class TestReducedPairingRecord:
    """Equal only to another ReducedPairing with equal generators; never ordered or hashed."""

    @staticmethod
    def pairing():
        return ReducedPairing(GeneratorMultiset({(0, D(1)): 2, (1, D(1)): 1}))

    def test_never_equal_to_a_plain_tuple(self):
        rp = self.pairing()
        for other in [(rp.generators,), rp.generators]:
            assert not rp == other and not other == rp
            assert rp != other and other != rp
        assert rp == self.pairing() and not rp != self.pairing()
        other = ReducedPairing(GeneratorMultiset({(0, D(1)): 2}))
        assert rp != other and not rp == other

    @pytest.mark.parametrize("other", [(3,), 3])
    def test_ordering_against_another_type_raises(self, other):
        rp = self.pairing()
        for compare in [lambda: rp < other, lambda: other < rp, lambda: rp >= other, lambda: other >= rp]:
            with pytest.raises(TypeError):
                compare()

    def test_pairings_are_not_ordered_or_hashed(self):
        with pytest.raises(TypeError):
            sorted([self.pairing(), self.pairing()])
        with pytest.raises(TypeError):
            hash(self.pairing())

    def test_fields_and_repr(self):
        rp = self.pairing()
        assert rp.total_rank == 3 and rp.generators.entries == {(0, D(1)): 2, (1, D(1)): 1}
        assert repr(rp) == "ReducedPairing(generators=GeneratorMultiset({(s=0, d=1/2): 2, (s=1, d=1/2): 1}))"
        with pytest.raises(AttributeError):
            rp.generators = GeneratorMultiset()

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        rp = pickle.loads(pickle.dumps(self.pairing(), protocol))
        assert type(rp) is ReducedPairing and rp == self.pairing() and rp.total_rank == 3

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_generator_multiset_pickles(self, protocol):
        for gens in [self.pairing().generators, GeneratorMultiset(), single_run(-2, 3, D(-1))]:
            back = pickle.loads(pickle.dumps(gens, protocol))
            assert type(back) is GeneratorMultiset and back.runs == gens.runs and back == gens
        assert back.entries == {(s, D(-1)): 1 for s in range(-2, 4)}
