"""Unit tests for the exact-arithmetic building blocks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzelhfk.algebra import (
    AlgebraError,
    GeneratorMultiset,
    HalfInteger,
    HfkTable,
    LaurentPolynomial,
    euler_characteristic,
    normalize_alexander,
)
from pretzelhfk.pairing import ReducedPairing

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-5, max_value=5),
    max_size=8,
).map(LaurentPolynomial)


class TestHalfInteger:
    def test_construction_and_display(self):
        assert str(HalfInteger(6)) == "3"
        assert str(HalfInteger(1)) == "1/2"
        assert str(HalfInteger(-3)) == "-3/2"

    def test_ordering(self):
        assert HalfInteger(-1) < HalfInteger(1) < HalfInteger(3)


class TestLaurentPolynomial:
    def test_zero_pruning(self):
        p = LaurentPolynomial({0: 1, 2: 0})
        assert p.coeffs == {0: 1}
        assert LaurentPolynomial({1: 0}).is_zero()

    def test_immutability(self):
        p = LaurentPolynomial({0: 1})
        with pytest.raises(AttributeError):
            p.coeffs = {}

    def test_a_constant_is_not_an_int_and_equal_polynomials_hash_equal(self):
        assert LaurentPolynomial({0: 1}) != 1
        assert LaurentPolynomial.zero() != 0
        p, q = LaurentPolynomial({2: 3, -1: -1}), LaurentPolynomial({-1: -1, 2: 3, 5: 0})
        assert p == q and hash(p) == hash(q)
        assert q in {p} and LaurentPolynomial({0: 1}) in {LaurentPolynomial({0: 1})}

    @given(polys, polys)
    def test_addition_commutes(self, p, q):
        # the package never adds polynomials, so the sum is built here; the
        # constructor must drop the zeros that cancellation leaves
        def plus(x, y):
            return LaurentPolynomial({e: x[e] + y[e] for e in x.coeffs.keys() | y.coeffs.keys()})

        assert plus(p, q) == plus(q, p)
        assert plus(p, -p).is_zero()

    @given(polys)
    def test_reciprocal_is_involutive(self, p):
        assert p.reciprocal().reciprocal() == p

    @given(polys, st.integers(min_value=-4, max_value=4))
    def test_shift_matches_monomial_multiplication(self, p, k):
        # t^k p has the coefficient p[e - k] at t^e
        shifted = p.shift(k)
        assert all(shifted[e] == p[e - k] for e in range(-10, 11))
        assert len(shifted.coeffs) == len(p.coeffs)

    def test_eval_at_units(self):
        p = LaurentPolynomial({-1: 2, 0: -1, 2: 3})
        assert p.eval_at_unit() == 4
        assert p.eval_at_unit(at_minus_one=True) == 0

    def test_repr_is_readable(self):
        p = LaurentPolynomial({2: 1, 0: -3, -1: 1})
        assert repr(p) == "t^2 - 3 + t^-1"


class TestNormalizeAlexander:
    def test_trefoil_normalization(self):
        # t^2 - t + 1, shifted and negated arbitrarily
        raw = LaurentPolynomial({5: -1, 4: 1, 3: -1})
        q = normalize_alexander(raw)
        assert q == -LaurentPolynomial({1: -1, 0: 1, -1: -1})
        assert q.eval_at_unit() == 1
        assert q == q.reciprocal()

    def test_rejects_zero_and_nonunit(self):
        with pytest.raises(AlgebraError):
            normalize_alexander(LaurentPolynomial.zero())
        with pytest.raises(AlgebraError):
            normalize_alexander(LaurentPolynomial({0: 2}))

    def test_rejects_asymmetric(self):
        with pytest.raises(AlgebraError):
            normalize_alexander(LaurentPolynomial({0: 2, 1: -1}))


class TestGeneratorMultiset:
    def test_interval(self):
        d = HalfInteger(1)
        ms = GeneratorMultiset.interval(-1, 1, d)
        assert ms.total_rank == 3
        assert ms.rank(0, d) == 1
        assert GeneratorMultiset.interval(2, 1, d).total_rank == 0

    def test_add_and_negate(self):
        d = HalfInteger(1)
        ms = GeneratorMultiset({(1, d): 2})
        doubled = ms.add(ms)
        assert doubled.rank(1, d) == 4
        negated = GeneratorMultiset({(-s, e): rk for (s, e), rk in doubled.entries.items()})
        assert negated.rank(-1, d) == 4

    def test_rejects_negative_ranks(self):
        with pytest.raises(AlgebraError):
            GeneratorMultiset({(0, HalfInteger(0)): -1})


runs = st.lists(
    st.tuples(
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.sampled_from([HalfInteger(-1), HalfInteger(1), HalfInteger(3)]),
        st.integers(0, 4),
    ),
    max_size=6,
)


def cells(run_list):
    """The per-cell ranks of a run list, summed generator by generator."""
    out = {}
    for lo, hi, d, rk in run_list:
        for s in range(lo, hi + 1):
            out[(s, d)] = out.get((s, d), 0) + rk
    return {key: rk for key, rk in out.items() if rk}


class TestGeneratorMultisetRuns:
    @given(runs)
    def test_runs_and_dict_build_the_same_multiset(self, run_list):
        from_runs = GeneratorMultiset.of_runs(run_list)
        assert from_runs == GeneratorMultiset(cells(run_list))
        assert from_runs.entries == cells(run_list)

    @given(runs, runs)
    def test_add_sums_overlapping_runs_per_cell(self, first, second):
        total = GeneratorMultiset.of_runs(first).add(GeneratorMultiset.of_runs(second))
        assert total.entries == cells(first + second)

    def test_add_of_overlapping_runs(self):
        d = HalfInteger(1)
        ms = GeneratorMultiset.of_runs([(0, 3, d, 1)]).add(
            GeneratorMultiset.of_runs([(2, 5, d, 2)])
        )
        assert ms.entries == {
            (0, d): 1, (1, d): 1, (2, d): 3, (3, d): 3, (4, d): 2, (5, d): 2,
        }

    @given(runs)
    def test_negated_and_total_rank_agree_with_entries(self, run_list):
        ms = GeneratorMultiset.of_runs(run_list)
        assert ms.total_rank == sum(ms.entries.values())
        negated = GeneratorMultiset.of_runs((-hi, -lo, d, rk) for lo, hi, d, rk in run_list)
        assert negated.entries == {(-s, d): rk for (s, d), rk in ms.entries.items()}
        assert ms.deltas() == {d for (_, d) in ms.entries}

    def test_run_with_lo_above_hi_is_empty(self):
        ms = GeneratorMultiset.of_runs([(3, 2, HalfInteger(1), 5)])
        assert ms.total_rank == 0
        assert ms.entries == {} and ms.runs == ()
        assert ms == GeneratorMultiset()

    def test_negative_rank_run_raises(self):
        with pytest.raises(AlgebraError):
            GeneratorMultiset.of_runs([(0, 2, HalfInteger(1), -1)])
        with pytest.raises(AlgebraError):
            GeneratorMultiset.of_runs([(0, 2, HalfInteger(1), 2), (1, 1, HalfInteger(1), -1)])

    def test_reduced_pairing_still_wraps_a_dict_built_multiset(self):
        d = HalfInteger(1)
        wrapped = ReducedPairing(GeneratorMultiset({(0, d): 2, (1, d): 1}))
        assert wrapped.total_rank == 3
        assert wrapped == ReducedPairing(GeneratorMultiset.of_runs([(0, 1, d, 1), (0, 0, d, 1)]))
        assert wrapped != ReducedPairing(GeneratorMultiset({(0, d): 1}))


class TestEulerCharacteristic:
    def test_alternating_signs_within_a_delta_line(self):
        d = HalfInteger(1)
        table = HfkTable(params=None, entries={(0, d): 3, (1, d): 2, (-1, d): 2})
        chi = euler_characteristic(table)
        # consecutive Alexander gradings on one delta line alternate in sign
        assert abs(chi[0]) == 3 and abs(chi[1]) == 2
        assert chi[0] * chi[1] < 0

    def test_deltas_two_apart_contribute_with_the_same_sign(self):
        lo, hi = HalfInteger(-1), HalfInteger(3)
        table = HfkTable(params=None, entries={(0, lo): 1, (0, hi): 1})
        chi = euler_characteristic(table)
        assert abs(chi[0]) == 2

    def test_mixed_parity_deltas_are_rejected(self):
        table = HfkTable(
            params=None,
            entries={(0, HalfInteger(1)): 1, (0, HalfInteger(2)): 1},
        )
        with pytest.raises(AlgebraError):
            euler_characteristic(table)
