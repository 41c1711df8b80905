"""Tests for table assembly, classification, and the verification checks.

Reference tables below were cross-checked against the Fox-calculus
Alexander oracle and the geometric intersection oracle before freezing.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import GRID, eftekhary_sized, is_overlap

from pretzelhfk import hfk
from pretzelhfk.alexander import DiagramError
from pretzelhfk.algebra import AlgebraError, GeneratorMultiset, HalfInteger, HfkTable, euler_characteristic
from pretzelhfk.curves import TangleParams, pretzel_tangle_curves
from pretzelhfk.geometry import closure_curve
from pretzelhfk.hfk import (
    Shape,
    classification_from_table,
    classify,
    compute_hfk,
    verify,
)
from pretzelhfk.pairing import ReducedPairing, pair_curve

D = HalfInteger


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

    def test_every_prediction_up_to_40_is_pinned(self):
        # (a, b, c, sign, shape, overlap gradings, overlap ranks) for all
        # a, b, c <= 40 and both closure signs
        digest = hashlib.sha256()
        for a in range(1, 41):
            for b in range(1, 41):
                for c in range(1, 41):
                    for sign in "+-":
                        k = classify(TangleParams(a, b, c, sign))
                        row = (a, b, c, sign, k.shape.value, k.overlap_gradings, k.overlap_ranks)
                        digest.update(f"{row}\n".encode())
        assert digest.hexdigest() == "bc6d2042924faeb82f25c2679b3083d5ccb8dbd0ab704483a241d9459a1e75fd"

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
        assert closure_curve(3, "+").slope.numerator == -1
        assert closure_curve(3, "-").slope.numerator == 1
        assert closure_curve(3, "-").slope.denominator == 7


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

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from(["+", "-"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_all_checks_pass_up_to_40(self, a, b, c, sign):
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

    def test_thin_check_runs_when_the_oracle_raises(self, monkeypatch):
        # chi is computed from the table alone, so check (iv) still reads it
        def broken(diagram):
            raise DiagramError("the crossings do not chain")

        monkeypatch.setattr(hfk, "fox_alexander", broken)
        report = verify(TangleParams(1, 1, 1, "+"))
        assert report.checks["euler_matches_alexander_oracle"] == "fail"
        assert report.checks["thin_ranks_match_alexander"] == "pass"

    @pytest.mark.parametrize(
        "a, b, c, sign",
        [(1, 1, 1, "+"), (1, 1, 2, "+"), (3, 1, 2, "+"), (2, 3, 1, "-"), (6, 6, 6, "-")],
    )
    @pytest.mark.parametrize("step", [-2, 2])
    def test_oracle_check_rejects_a_neighbouring_knot(self, monkeypatch, a, b, c, sign, step):
        # P(p, q, r + 2) has determinant |pq + (p+q)(r+2)|, which differs from
        # P(p, q, r)'s since p + q is odd, so its Alexander polynomial differs
        real = hfk.build_pretzel_diagram
        monkeypatch.setattr(hfk, "build_pretzel_diagram", lambda p, q, r: real(p, q, r + step))
        report = verify(TangleParams(a, b, c, sign))
        assert report.checks["euler_matches_alexander_oracle"] == "fail"


class TestChecksRejectPerturbedTables:
    """Each check must fail when the table carries the fault it is meant to catch."""

    THIN = [(1, 1, 2, "+"), (2, 1, 3, "-"), (1, 2, 3, "+")]
    DISJOINT = [(1, 1, 1, "-"), (3, 2, 4, "+"), (2, 3, 2, "-")]
    OVERLAP = [(3, 1, 2, "+"), (4, 1, 3, "+"), (6, 2, 5, "+")]

    @staticmethod
    def patch_table(monkeypatch, perturb):
        real = hfk.compute_hfk

        def perturbed(params):
            table = real(params)
            entries = dict(table.entries)
            perturb(entries)
            return HfkTable(params=table.params, entries=entries)

        monkeypatch.setattr(hfk, "compute_hfk", perturbed)

    @pytest.mark.parametrize("a, b, c, sign", THIN + DISJOINT + OVERLAP)
    def test_rank_symmetry_rejects_one_changed_rank(self, monkeypatch, a, b, c, sign):
        def bump_top_cell(entries):
            entries[max(entries, key=lambda cell: (cell[0], cell[1].twice))] += 1

        self.patch_table(monkeypatch, bump_top_cell)
        report = verify(TangleParams(a, b, c, sign))
        assert report.checks["rank_symmetry"] == "fail"

    @pytest.mark.parametrize("a, b, c, sign", DISJOINT + OVERLAP)
    def test_classification_rejects_a_shifted_delta_line(self, monkeypatch, a, b, c, sign):
        def shift_high_line_onto_low(entries):
            low, high = sorted({d for _, d in entries}, key=lambda d: d.twice)
            for s, d in [cell for cell in entries if cell[1] == high]:
                rank = entries.pop((s, d))
                entries[(s, low)] = entries.get((s, low), 0) + rank

        self.patch_table(monkeypatch, shift_high_line_onto_low)
        report = verify(TangleParams(a, b, c, sign))
        assert report.checks["classification_consistent"] == "fail"

    @pytest.mark.parametrize("a, b, c, sign", OVERLAP)
    def test_overlap_ranks_reject_a_changed_overlap_rank(self, monkeypatch, a, b, c, sign):
        def bump_high_overlap_pair(entries):
            high = max((d for _, d in entries), key=lambda d: d.twice)
            for s in (c - b, b - c):
                entries[(s, high)] += 1

        self.patch_table(monkeypatch, bump_high_overlap_pair)
        report = verify(TangleParams(a, b, c, sign))
        assert report.checks["rank_symmetry"] == "pass"
        assert report.checks["overlap_ranks"] == "fail"

    def test_an_eftekhary_sized_overlap_fails_only_the_checks_that_restate_the_paper(self, monkeypatch):
        # the negative control for the paper's correction: with min(b, a-b-1)
        # cancelling pairs removed at s = +-(c-b), chi, symmetry and rank
        # counting still pass; only the two checks that compare with classify fail
        def remove_overlap_pairs(entries):
            smaller = eftekhary_sized(entries)
            entries.clear()
            entries.update(smaller)

        self.patch_table(monkeypatch, remove_overlap_pairs)
        knots = [TangleParams(a, b, c, "+") for a in range(1, 9) for b in range(1, 8) for c in range(1, 9)]
        knots = [params for params in knots if is_overlap(params)]
        assert len(knots) == 112
        for params in knots:
            assert verify(params).failures() == ["classification_consistent", "overlap_ranks"], params

    @pytest.mark.parametrize("a, b, c, sign", THIN)
    def test_thin_ranks_reject_a_pair_that_cancels_in_chi(self, monkeypatch, a, b, c, sign):
        # one generator at (+-s, d) and one at (+-s, d+1), for the top cell
        # (s, d), cancel in the Euler characteristic and keep the symmetry
        def add_cancelling_pairs(entries):
            s, d = max(entries, key=lambda cell: (cell[0], cell[1].twice))
            for cell in [(s, d), (s, D(d.twice + 2)), (-s, d), (-s, D(d.twice + 2))]:
                entries[cell] = entries.get(cell, 0) + 1

        self.patch_table(monkeypatch, add_cancelling_pairs)
        report = verify(TangleParams(a, b, c, sign))
        assert report.checks["euler_matches_alexander_oracle"] == "pass"
        assert report.checks["rank_symmetry"] == "pass"
        assert report.checks["thin_ranks_match_alexander"] == "fail"

    @pytest.mark.parametrize("a, b, c, sign", THIN + DISJOINT + OVERLAP)
    def test_rank_counting_rejects_an_extra_generator(self, monkeypatch, a, b, c, sign):
        real = hfk.pair_curve
        first = pretzel_tangle_curves(a, b)[0]

        def with_extra_generator(closure, c, curve):
            pairing = real(closure, c, curve)
            if curve != first:
                return pairing
            cell = next(iter(pairing.generators.entries))
            return ReducedPairing(pairing.generators.add(GeneratorMultiset({cell: 1})))

        monkeypatch.setattr(hfk, "pair_curve", with_extra_generator)
        report = verify(TangleParams(a, b, c, sign))
        assert report.checks["rank_counting"] == "fail"

    def test_pairing_with_the_opposite_closure_sign_fails_on_the_whole_grid(self, monkeypatch):
        real = hfk.pair_curve
        opposite = {"+": "-", "-": "+"}
        monkeypatch.setattr(hfk, "pair_curve", lambda closure, c, curve: real(opposite[closure], c, curve))
        assert len(GRID) == 432
        for params in GRID:
            failures = verify(params).failures()
            assert "euler_matches_alexander_oracle" in failures, params
            assert "rank_counting" in failures, params


class TestCheckVerdictsOnHandBuiltTables:
    """Checks (ii)-(iv), and the helpers they read, on tables built by hand.

    Each table is the thin table of P(2,-3,5) with one change; verify runs on
    it in place of the computed one.  Zero-rank cells count as support: they
    open a delta line and an Alexander grading.
    """

    PARAMS = TangleParams(1, 1, 2, "+")
    FAILS_OVERALL = {"euler_matches_alexander_oracle": "fail", "rank_counting": "fail"}
    PASSES_OVERALL = {"euler_matches_alexander_oracle": "pass", "rank_counting": "pass"}

    @pytest.mark.parametrize("extra, expected", [
        # a cell whose mirror is missing, and one whose mirror differs
        ({(4, D(1)): 1}, {"rank_symmetry": "fail", "classification_consistent": "pass",
                          "thin_ranks_match_alexander": "skip", **FAILS_OVERALL}),
        ({(3, D(1)): 2}, {"rank_symmetry": "fail", "classification_consistent": "pass",
                          "thin_ranks_match_alexander": "skip", **FAILS_OVERALL}),
        # zero-rank cells: on the table's line, on a new line, on a new line at s = 0
        ({(5, D(1)): 0}, {"rank_symmetry": "pass", "classification_consistent": "pass",
                          "thin_ranks_match_alexander": "fail", **PASSES_OVERALL}),
        ({(5, D(3)): 0}, {"rank_symmetry": "pass", "classification_consistent": "fail",
                          "thin_ranks_match_alexander": "fail", **PASSES_OVERALL}),
        ({(0, D(3)): 0}, {"rank_symmetry": "pass", "classification_consistent": "fail",
                          "thin_ranks_match_alexander": "pass", **PASSES_OVERALL}),
        # three delta lines, and deltas of mixed parity
        ({(0, D(3)): 1, (0, D(-1)): 1}, {"rank_symmetry": "pass", "classification_consistent": "fail",
                                         "thin_ranks_match_alexander": "skip", **FAILS_OVERALL}),
        ({(0, D(2)): 1}, {"rank_symmetry": "pass", "classification_consistent": "fail",
                          "thin_ranks_match_alexander": "skip", **FAILS_OVERALL}),
    ])
    def test_verdicts(self, monkeypatch, extra, expected):
        entries = {**compute_hfk(self.PARAMS).entries, **extra}
        monkeypatch.setattr(hfk, "compute_hfk", lambda params: HfkTable(params=params, entries=entries))
        assert verify(self.PARAMS).checks == {**expected, "overlap_ranks": "skip"}

    def test_classification_from_hand_built_tables(self):
        low, high = D(-1), D(1)
        line = {(s, high): 1 for s in range(-2, 3)}
        overlap = HfkTable(None, {**line, (-1, high): 2, (1, high): 2, (-1, low): 1, (1, low): 1})
        assert classification_from_table(overlap) == hfk.Classification(
            Shape.OVERLAP, overlap_gradings=(-1, 1), overlap_ranks=(2, 1))
        zero_overlap = HfkTable(None, {**line, (-2, low): 0, (2, low): 3})
        assert classification_from_table(zero_overlap) == hfk.Classification(
            Shape.OVERLAP, overlap_gradings=(-2, 2), overlap_ranks=(1, 3))
        disjoint = HfkTable(None, {**line, (5, low): 1, (-5, low): 1})
        assert classification_from_table(disjoint).shape is Shape.TWO_DELTA_DISJOINT
        assert classification_from_table(HfkTable(None, line)).shape is Shape.THIN
        with pytest.raises(ValueError, match=r"unexpected overlap support \[1, 2\]"):
            classification_from_table(HfkTable(None, {**line, (1, low): 1, (2, low): 1}))
        with pytest.raises(ValueError, match="table supported in 3 delta gradings"):
            classification_from_table(HfkTable(None, {**line, (0, low): 1, (0, D(3)): 1}))
        with pytest.raises(ValueError, match="table supported in 0 delta gradings"):
            classification_from_table(HfkTable(None, {}))

    def test_euler_lists_of_hand_built_tables(self):
        d = D(1)
        assert euler_characteristic(HfkTable(None, {(0, d): 1, (2, d): 0})) == [1, 0, 0]
        assert euler_characteristic(HfkTable(None, {(3, d): 0})) == [0]
        # the sign is fixed by the first cell's delta
        assert euler_characteristic(HfkTable(None, {(0, d): 2, (1, D(3)): 1})) == [2, 1]
        assert euler_characteristic(HfkTable(None, {(1, D(3)): 1, (0, d): 2})) == [-2, -1]
        with pytest.raises(AlgebraError, match="delta gradings are not mutually integer-spaced"):
            euler_characteristic(HfkTable(None, {(0, d): 1, (5, d): 1, (0, D(2)): 1}))


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


def test_entry_order_and_raw_euler_lists_are_pinned():
    # each table's cells in iteration order as (s, 2*delta, rank), then the
    # unnormalized Euler list, whose sign comes from the first cell's delta;
    # the grid and a seeded sample with a, c up to 100; the digest was taken
    # when the runs were summed through a Counter per delta
    rng = random.Random(1313)
    sample = [TangleParams(rng.randint(1, 100), rng.randint(1, 100), rng.randint(1, 100),
                           rng.choice("+-")) for _ in range(150)]
    digest = hashlib.sha256()
    for params in GRID + sample:
        table = compute_hfk(params)
        cells = [(s, d.twice, rk) for (s, d), rk in table.entries.items()]
        digest.update(f"{cells}\n{euler_characteristic(table)}\n".encode())
    assert digest.hexdigest() == "7db0199cfe623e6f9688992a85a0dfa03599a2efd242d1e4cacb45c95020f7f7"


def test_compute_hfk_sums_the_pairings_runs_as_of_runs_does():
    # compute_hfk sums the pairings' runs without of_runs' filter; the cells
    # and their order (classification_from_table's groupby and the Euler
    # offset read it) must be what of_runs gives, on the grid and for a, c >= 50
    large = [TangleParams(a, b, c, sign) for sign in "+-" for a, b, c in
             [(50, 1, 50), (50, 48, 60), (60, 59, 50), (50, 80, 70), (100, 20, 100), (99, 100, 98)]]
    for params in GRID + large:
        runs = [run for curve in pretzel_tangle_curves(params.a, params.b)
                for run in pair_curve(params.sign, params.c, curve).generators.runs]
        expected = GeneratorMultiset.of_runs(runs).entries
        entries = compute_hfk(params).entries
        assert (entries, list(entries)) == (expected, list(expected)), params
