"""Unit tests for the exact-arithmetic building blocks."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pretzelhfk.algebra import (
    AlgebraError,
    GeneratorMultiset,
    HalfInteger,
    HfkTable,
    alexander_terms,
    euler_characteristic,
    normalize_alexander,
    single_run,
)
from pretzelhfk.pairing import ReducedPairing

class TestHalfInteger:
    def test_construction_and_display(self):
        assert str(HalfInteger(6)) == "3"
        assert str(HalfInteger(1)) == "1/2"
        assert str(HalfInteger(-3)) == "-3/2"

    def test_ordering(self):
        assert HalfInteger(-1) < HalfInteger(1) < HalfInteger(3)


class TestHalfIntegerRecord:
    """Compares and hashes as the 1-tuple (twice,); never equal to an int."""

    def test_equal_to_its_one_tuple_never_to_an_int(self):
        h = HalfInteger(3)
        assert h == (3,) and (3,) == h and not h != (3,) and not (3,) != h
        assert h != (1,) and hash(h) == hash((3,)) and len({h, (3,)}) == 1
        for other in [3, [3]]:
            assert not h == other and not other == h
            assert h != other and other != h
        assert h == HalfInteger(3) and not h != HalfInteger(3)
        assert h != HalfInteger(1) and not h == HalfInteger(1)

    @pytest.mark.parametrize("other", [3, [3]])
    def test_ordering_against_a_non_tuple_raises(self, other):
        h = HalfInteger(3)
        assert (1,) < h <= (3,) and h < (5,) and (3,) >= h > (1,)
        for compare in [
            lambda: h < other, lambda: h <= other, lambda: h > other, lambda: h >= other,
            lambda: other < h, lambda: other <= h, lambda: other > h, lambda: other >= h,
        ]:
            with pytest.raises(TypeError):
                compare()

    def test_sorting_is_by_value(self):
        values = [HalfInteger(t) for t in (3, -1, 6, -3, 1, 0)]
        assert [h.twice for h in sorted(values)] == [-3, -1, 0, 1, 3, 6]
        assert (min(values), max(values)) == (HalfInteger(-3), HalfInteger(6))
        assert HalfInteger(1) <= HalfInteger(1) >= HalfInteger(-1) > HalfInteger(-3)

    def test_hash_and_repr(self):
        for twice in (-3, 0, 1, 6):
            assert hash(HalfInteger(twice)) == hash((twice,))
        assert repr(HalfInteger(3)) == "HalfInteger(twice=3)"
        assert repr(HalfInteger(-4)) == "HalfInteger(twice=-4)"
        # sets of deltas iterate in the order of the same sets of 1-tuples
        twices = [5, -1, 3, 1, -7, 9, 11, -3]
        assert [h.twice for h in {HalfInteger(t) for t in twices}] == [t for (t,) in {(t,) for t in twices}]

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            HalfInteger(1).twice = 3

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        h = pickle.loads(pickle.dumps(HalfInteger(-3), protocol))
        assert type(h) is HalfInteger and h == HalfInteger(-3) and str(h) == "-3/2"


class TestNormalizeAlexander:
    def test_trefoil_normalization(self):
        # -(t^2 - t + 1) t^3, with zeros at both ends of the list
        assert normalize_alexander([0, -1, 1, -1, 0, 0]) == (-1, 1)
        assert normalize_alexander((1, -1, 1)) == (-1, 1)

    def test_rejects_zero_and_nonunit(self):
        with pytest.raises(AlgebraError, match="zero polynomial"):
            normalize_alexander([])
        with pytest.raises(AlgebraError, match="zero polynomial"):
            normalize_alexander([0, 0])
        with pytest.raises(AlgebraError, match=r"p\(1\) = 2 is not a unit"):
            normalize_alexander([2])

    def test_rejects_asymmetric(self):
        with pytest.raises(AlgebraError, match="odd exponent span"):
            normalize_alexander([2, -1])
        with pytest.raises(AlgebraError, match="not symmetrizable"):
            normalize_alexander([1, 1, -1])

    def test_strips_zeros_at_both_ends_and_negates_a_minus_unit(self):
        # the figure-eight knot -t + 3 - t^-1, as p = t^2 - 3t + 1 with p(1) = -1
        for cs in ([1, -3, 1], [0, 0, 1, -3, 1], [1, -3, 1, 0], (0, 1, -3, 1, 0, 0, 0)):
            assert normalize_alexander(cs) == (3, -1)
        for cs in ([-1, 3, -1], [0, -1, 3, -1, 0, 0]):  # p(1) = 1 keeps its signs
            assert normalize_alexander(cs) == (3, -1)
        assert normalize_alexander([0, 0, -1, 0]) == (1,)
        assert normalize_alexander([0, 1, -1, 1, -1, 1, 0]) == (1, -1, 1)
        assert normalize_alexander([0, -1, 1, -1, 1, -1]) == (1, -1, 1)

    @pytest.mark.parametrize("cs, message", [
        ([], "cannot normalize the zero polynomial"),
        ((0, 0, 0), "cannot normalize the zero polynomial"),
        ([0, 1, 1, 1, 0], r"p\(1\) = 3 is not a unit; not a knot polynomial"),
        ([0, 0, 2, -4, 2], r"p\(1\) = 0 is not a unit; not a knot polynomial"),
        ([0, 2, -1, 0], r"no symmetrizing unit exists \(odd exponent span\)"),
        ([0, 2, -3, 0, 0, 0, 0], r"no symmetrizing unit exists \(odd exponent span\)"),
        ([0, -1, 1, 1, 0], "polynomial is not symmetrizable"),
        ([0, 3, -3, 1, 0], "polynomial is not symmetrizable"),
    ])
    def test_each_error_keeps_its_message(self, cs, message):
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            normalize_alexander(cs)
        # the unit test comes first: 2t^2 + 1 is neither a unit at 1 nor symmetric
        with pytest.raises(AlgebraError, match="not a unit"):
            normalize_alexander([0, 2, 0, 1])

    @given(
        st.lists(st.integers(-5, 5), max_size=6),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([1, -1]),
    )
    def test_recovers_a_symmetric_polynomial_from_any_unit_multiple(self, upper, below, above, unit):
        # Delta = a_0 + sum a_i (t^i + t^-i) with a_0 fixing Delta(1) = 1, then
        # +-t^k Delta as a list with zeros at both ends
        if upper and upper[-1] == 0:
            upper[-1] = 1
        alex = (1 - 2 * sum(upper), *upper)
        cs = [0] * below + [unit * a for a in alex[:0:-1] + alex] + [0] * above
        assert normalize_alexander(cs) == alex


class TestAlexanderTerms:
    def test_nonzero_terms_from_the_lowest_power(self):
        assert list(alexander_terms((3, 0, -2, 1))) == [(-3, 1), (-2, -2), (0, 3), (2, -2), (3, 1)]
        assert list(alexander_terms((1,))) == [(0, 1)]
        assert list(alexander_terms(())) == []


class TestGeneratorMultiset:
    def test_interval(self):
        d = HalfInteger(1)
        ms = single_run(-1, 1, d)
        assert ms.total_rank == 3
        assert ms.entries == {(-1, d): 1, (0, d): 1, (1, d): 1}
        assert single_run(2, 1, d).total_rank == 0

    def test_add_and_negate(self):
        d = HalfInteger(1)
        ms = GeneratorMultiset({(1, d): 2})
        doubled = ms.add(ms)
        assert doubled.entries == {(1, d): 4}
        negated = GeneratorMultiset({(-s, e): rk for (s, e), rk in doubled.entries.items()})
        assert negated.entries == {(-1, d): 4}

    def test_rejects_negative_ranks(self):
        with pytest.raises(AlgebraError):
            GeneratorMultiset({(0, HalfInteger(0)): -1})


# shared delta objects mixed with fresh ones of equal value
deltas = st.one_of(
    st.sampled_from([HalfInteger(-1), HalfInteger(1), HalfInteger(3)]),
    st.builds(HalfInteger, st.sampled_from([-1, 1, 3])),
)
runs = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40), deltas, st.integers(0, 4)),
    max_size=20,
)


def cells(run_list):
    """The per-cell ranks of a run list, summed generator by generator."""
    out = {}
    for lo, hi, d, rk in run_list:
        for s in range(lo, hi + 1):
            out[(s, d)] = out.get((s, d), 0) + rk
    return {key: rk for key, rk in out.items() if rk}


def first_seen_deltas(run_list):
    """The first delta object of each value, in the order the kept runs show them."""
    out = {}
    for lo, hi, d, rk in run_list:
        if rk and lo <= hi:
            out.setdefault(d.twice, d)
    return out


class TestGeneratorMultisetRuns:
    @given(runs)
    def test_runs_and_dict_build_the_same_multiset(self, run_list):
        from_runs = GeneratorMultiset.of_runs(run_list)
        assert from_runs == GeneratorMultiset(cells(run_list))
        assert from_runs.entries == cells(run_list)

    @given(runs)
    def test_cells_come_in_first_seen_delta_then_ascending_s_order(self, run_list):
        first = first_seen_deltas(run_list)
        expected = [(s, first[twice]) for twice in first
                    for s in sorted(s for s, d in cells(run_list) if d.twice == twice)]
        found = list(GeneratorMultiset.of_runs(run_list).entries)
        assert found == expected
        assert all(d is first[d.twice] for _, d in found)

    def test_summing_is_sparse_in_the_span(self):
        d = HalfInteger(1)
        ms = GeneratorMultiset.of_runs([(0, 0, d, 1), (10**12, 10**12, d, 2)])
        assert ms.entries == {(0, d): 1, (10**12, d): 2}

    @given(st.integers(-40, 40), st.integers(-40, 40), deltas)
    def test_interval_is_the_one_run_multiset(self, lo, hi, d):
        ms = single_run(lo, hi, d)
        ref = GeneratorMultiset.of_runs([(lo, hi, d, 1)])
        assert type(ms) is GeneratorMultiset and ms == ref
        assert ms.runs == ref.runs
        assert ms.entries == ref.entries
        assert ms.total_rank == ref.total_rank

    @given(st.integers(-40, 40), st.integers(-40, 40), deltas)
    def test_single_run_is_the_interval_multiset(self, lo, hi, d):
        ms = single_run(lo, hi, d)
        interval = GeneratorMultiset({(s, d): 1 for s in range(lo, hi + 1)})
        assert type(ms) is GeneratorMultiset and ms == interval
        assert ms.runs == GeneratorMultiset.of_runs([(lo, hi, d, 1)]).runs

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
        chi = euler_characteristic(table)  # from t^-1
        # consecutive Alexander gradings on one delta line alternate in sign
        assert len(chi) == 3 and abs(chi[1]) == 3 and abs(chi[2]) == 2
        assert chi[1] * chi[2] < 0

    def test_deltas_two_apart_contribute_with_the_same_sign(self):
        lo, hi = HalfInteger(-1), HalfInteger(3)
        table = HfkTable(params=None, entries={(0, lo): 1, (0, hi): 1})
        assert euler_characteristic(table) in ([2], [-2])

    def test_an_empty_table_has_no_coefficients(self):
        assert euler_characteristic(HfkTable(params=None, entries={})) == []

    def test_mixed_parity_deltas_are_rejected(self):
        table = HfkTable(
            params=None,
            entries={(0, HalfInteger(1)): 1, (0, HalfInteger(2)): 1},
        )
        with pytest.raises(AlgebraError):
            euler_characteristic(table)
