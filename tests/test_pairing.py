"""Tests for the closed-form curve pairings and the pair reduction."""

import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pretzelhfk.algebra import GeneratorMultiset, HalfInteger
from pretzelhfk.curves import GradedCurve, ReducedSlope
from pretzelhfk.pairing import (
    PairingError,
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
    return GeneratorMultiset.from_generators((s, delta) for s in gens)


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
        curve = GradedCurve.special14(k, 2 * base, 2 * base + 4 * k)
        for closure in ("+", "-"):
            out = pair_special14(closure, c, curve)
            assert out.total_rank == 2 * k
            assert out.generators.deltas() == {D(1)}

    def test_one_four_and_two_three_are_mirror_images(self):
        c14 = GradedCurve.special14(2, -4, 4)
        c23 = GradedCurve.special23(2, -4, 4)
        for c in (1, 2, 3):
            plus14 = pair_special14("+", c, c14).generators
            minus23 = pair_special23("-", c, c23).generators
            assert plus14 == minus23

    def test_kind_mismatch_rejected(self):
        with pytest.raises(PairingError):
            pair_special14("+", 1, GradedCurve.special23(1, 0, 4))


class TestRationalHalfSlopePairings:
    def test_negative_closure_gives_torus_knot_interval(self):
        curve = GradedCurve.rational(-1, 4, -4, 4)
        out = pair_rational_neg_half("-", 3, 2, curve)
        assert out.generators == GeneratorMultiset.interval(-5, 5, D(1))

    def test_positive_closure_branches_on_n_versus_c(self):
        curve = GradedCurve.rational(-1, 6, -6, 6)
        wide = pair_rational_neg_half("+", 1, 3, curve)  # n > c
        assert wide.generators == GeneratorMultiset.interval(-1, 1, D(1))
        narrow = pair_rational_neg_half("+", 5, 3, curve)  # n <= c
        assert narrow.generators == GeneratorMultiset.interval(-2, 2, D(-1))

    def test_positive_slope_uses_the_curve_decoration(self):
        curve = GradedCurve.rational(1, 4, -6, 2)  # asymmetric m
        out = pair_rational_pos_half("+", 2, 2, curve)
        assert out.generators == GeneratorMultiset.interval(-5, 3, D(1))
        deep = pair_rational_pos_half("-", 3, 2, curve)  # n <= c
        assert deep.generators == GeneratorMultiset.interval(-2, 0, D(3))


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
        assert pair_curve("-", 1, GradedCurve.special14(1, 0, 4)).total_rank == 2
        assert pair_curve("-", 1, GradedCurve.rational(-1, 2, -2, 2)).total_rank == 5
        assert pair_curve("-", 1, GradedCurve.rational(1, 2, -2, 2)).total_rank == 1

    def test_bad_inputs(self):
        with pytest.raises(PairingError):
            pair_curve("x", 1, GradedCurve.special14(1, 0, 4))
        with pytest.raises(PairingError):
            pair_curve("+", 1, GradedCurve.rational(3, 5, -2, 2))
