"""Acceptance gate: one test per acceptance criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with pytest -s) and then
asserts, so a red run always names the criterion that failed.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzelhfk.algebra import (
    HalfInteger,
    HfkTable,
    euler_characteristic,
    normalize_alexander,
    single_run,
)
from pretzelhfk.alexander import (
    build_pretzel_diagram,
    fox_alexander,
    pretzel_determinant,
)
from pretzelhfk.curves import (
    CurveKind,
    GradedCurve,
    TangleParams,
    pretzel_tangle_curves,
)
from pretzelhfk.geometry import (
    closure_curve,
    det_pair_count,
    enumerate_geometric_pairing,
)
from pretzelhfk.hfk import Shape, classification_from_table, classify, compute_hfk
from pretzelhfk.pairing import (
    pair_curve,
    pair_rational_general,
    pair_rational_neg_half,
    pair_rational_pos_half,
    reduce_generator_pairs,
)

GRID = [
    TangleParams(a, b, c, sign)
    for sign in ("+", "-")
    for a in range(1, 7)
    for b in range(1, 7)
    for c in range(1, 7)
]
WIDE_GRID = [
    TangleParams(a, b, c, sign)
    for sign in ("+", "-")
    for a in range(1, 11)
    for b in range(1, 11)
    for c in range(1, 11)
]
# criteria 9 and 10 past the wide grid: a, b, c up to 40, drawn by hypothesis
BAND = st.integers(1, 40)


def is_overlap(params):
    """The paper's overlap regime: closure + and b < min(a - 1, c)."""
    return params.sign == "+" and params.b < min(params.a - 1, params.c)


def eftekhary_sized(entries):
    """The table with min(b, a-b-1) cancelling pairs removed at s = +-(c-b).

    Those are the cells where both delta lines have support, and the smaller
    of their two ranks is min(b, a-b-1); what is left there is |Delta_s|, the
    size Eftekhary's computation gives.  Symmetry, chi and the parity of the
    total rank are unchanged.
    """
    out = dict(entries)
    lines = {}
    for s, d in entries:
        lines.setdefault(s, []).append(d)
    for s, ds in lines.items():
        if len(ds) == 2:
            pairs = min(entries[(s, d)] for d in ds)
            for d in ds:
                out[(s, d)] -= pairs
    return {cell: rk for cell, rk in out.items() if rk}


def grading_reversed(curve):
    """The involution (kind, m, M) -> (swapped kind, -M, -m) on graded curves."""
    swapped = {CurveKind.SPECIAL14: CurveKind.SPECIAL23, CurveKind.SPECIAL23: CurveKind.SPECIAL14}
    return replace(curve, kind=swapped.get(curve.kind, curve.kind), m=-curve.M, M=-curve.m)


@pytest.fixture(scope="module")
def tables():
    return {p: compute_hfk(p) for p in GRID}


@pytest.fixture(scope="module")
def wide_tables():
    return {p: compute_hfk(p) for p in WIDE_GRID}


def report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_euler_characteristic_matches_fox_oracle(tables):
    bad = []
    for params, table in tables.items():
        chi = normalize_alexander(euler_characteristic(table))
        oracle = fox_alexander(build_pretzel_diagram(*params.pretzel_triple()))
        if chi != oracle:
            bad.append(params)
    assert report(1, "Euler characteristic equals Fox-calculus oracle, 432 knots", not bad), bad


def test_criterion_2_overlap_rank_table(tables):
    checked = 0
    bad = []
    for params, table in tables.items():
        if not is_overlap(params):
            continue
        a, b, c = params.a, params.b, params.c
        checked += 1
        deltas = sorted({d for _, d in table.entries})
        low, high = deltas[0], deltas[-1]
        s = c - b
        ok = (
            len(deltas) == 2
            and table.rank(s, high) == b
            and table.rank(-s, high) == b
            and table.rank(s, low) == a - b - 1
            and table.rank(-s, low) == a - b - 1
        )
        if not ok:
            bad.append(params)
    # spot check: P(6,-3,5) has total rank 13 split 8 + 5 across the deltas
    spot = tables[TangleParams(3, 1, 2, "+")]
    split = sorted(
        sum(rk for (s, d), rk in spot.entries.items() if d == delta)
        for delta in {d for _, d in spot.entries}
    )
    ok = not bad and checked > 0 and spot.total_rank == 13 and split == [5, 8]
    assert report(2, "overlap region ranks are (b, a-b-1) at s = +-(c-b)", ok), bad


def test_criterion_3_negative_closure_single_delta_per_alexander(tables):
    bad = []
    for params, table in tables.items():
        if params.sign != "-":
            continue
        per_s = {}
        for (s, d), _ in table.entries.items():
            per_s.setdefault(s, set()).add(d)
        if any(len(ds) > 1 for ds in per_s.values()):
            bad.append(params)
    assert report(3, "negative closures: each Alexander grading in one delta", not bad), bad


def test_criterion_4_positive_closure_trichotomy(tables):
    bad = []
    for params, table in tables.items():
        if params.sign != "+":
            continue
        predicted = classify(params)
        derived = classification_from_table(table)
        a, b, c = params.a, params.b, params.c
        if derived != predicted:
            bad.append(params)
        elif b >= min(a - 1, c) and derived.shape is Shape.OVERLAP:
            bad.append(params)
        elif b < min(a - 1, c) and derived.overlap_gradings != (-(c - b), c - b):
            bad.append(params)
    assert report(4, "positive-closure thin/disjoint/overlap trichotomy", not bad), bad


def test_criterion_5_thin_total_rank_is_the_determinant(tables):
    bad = []
    for params, table in tables.items():
        if classify(params).shape is not Shape.THIN:
            continue
        if table.total_rank != pretzel_determinant(*params.pretzel_triple()):
            bad.append(params)
    spots = (
        tables[TangleParams(1, 1, 2, "+")].total_rank == 11
        and tables[TangleParams(1, 2, 2, "+")].total_rank == 25
    )
    assert report(5, "thin total rank equals |pq+qr+rp|", not bad and spots), bad


def test_criterion_6_geometric_oracle_equals_closed_forms():
    seen = set()
    bad = []
    for params in GRID:
        red = closure_curve(params.c, params.sign)
        for blue in pretzel_tangle_curves(params.a, params.b):
            if blue.kind is not CurveKind.RATIONAL:
                continue
            key = (params.sign, params.c, blue.slope, blue.m, blue.M)
            if key in seen:
                continue
            seen.add(key)
            unreduced = enumerate_geometric_pairing(red, blue)
            expected = pair_curve(params.sign, params.c, blue)
            if unreduced.total_rank != 2 * det_pair_count(red.slope, blue.slope):
                bad.append(key)
            elif reduce_generator_pairs(unreduced).generators != expected.generators:
                bad.append(key)
    ok = not bad and len(seen) > 0
    assert report(6, "geometric oracle equals closed-form pairings", ok), bad


def test_criterion_7_symmetries(tables):
    bad = []
    for params, table in tables.items():
        if any(table.rank(-s, d) != rk for (s, d), rk in table.entries.items()):
            bad.append(("table", params))
    for a in range(1, 7):
        for b in range(1, 7):
            curves = pretzel_tangle_curves(a, b)
            if sorted(map(str, curves)) != sorted(
                str(grading_reversed(c)) for c in curves
            ):
                bad.append(("curves", a, b))
            for curve in curves:
                if curve.kind is not CurveKind.RATIONAL:
                    continue
                if curve.slope.numerator in (1, -1):
                    continue
                for sign in ("+", "-"):
                    for c in range(1, 7):
                        gens = pair_rational_general(
                            sign, c, curve.slope, curve.M
                        ).generators
                        cells = gens.entries
                        if cells != {(-s, d): rk for (s, d), rk in cells.items()}:
                            bad.append(("general", a, b, c, sign))
    assert report(7, "rank, curve-list, and pairing symmetries", not bad), bad


def test_criterion_8_torus_knot_degenerations():
    rng = random.Random(20260823)
    bad = []
    for _ in range(20):
        n = rng.randint(1, 30)
        c = rng.randint(1, 30)
        want = single_run(-(c + n), c + n, HalfInteger(1))
        neg = pair_rational_neg_half(
            "-", c, n, GradedCurve.rational(-1, 2 * n, -2 * n, 2 * n)
        )
        pos = pair_rational_pos_half(
            "+", c, n, GradedCurve.rational(1, 2 * n, -2 * n, 2 * n)
        )
        if neg.generators != want or pos.generators != want:
            bad.append((n, c))
    assert report(8, "torus-knot degenerations, 20 random (n, c) pairs", not bad), bad


def headline_mismatches(totals):
    """Knots where rank HFK > ||Delta||_1 = |a_0| + 2 sum |a_i| fails to hold
    exactly in the overlap regime; totals maps params to the total rank."""
    bad = []
    for params, total in totals.items():
        alex = fox_alexander(build_pretzel_diagram(*params.pretzel_triple()))
        if (total > abs(alex[0]) + 2 * sum(map(abs, alex[1:]))) != is_overlap(params):
            bad.append(params)
    return bad


def test_criterion_9_rank_exceeds_the_alexander_norm_exactly_in_the_overlap(wide_tables):
    bad = headline_mismatches({p: t.total_rank for p, t in wide_tables.items()})
    overlap = [p for p in wide_tables if is_overlap(p)]
    # the fault: Eftekhary-sized tables, whose ranks sum to ||Delta||_1
    smaller = {p: sum(eftekhary_sized(wide_tables[p].entries).values()) for p in overlap}
    ok = not bad and len(overlap) == 240 and headline_mismatches(smaller) == overlap
    assert report(9, "rank HFK > ||Delta||_1 iff + closure and b < min(a-1, c), 2000 knots", ok), bad


@given(BAND, BAND, BAND, st.sampled_from(["+", "-"]))
@settings(max_examples=100, deadline=None)
def test_criterion_9_up_to_40(a, b, c, sign):
    params = TangleParams(a, b, c, sign)
    assert headline_mismatches({params: compute_hfk(params).total_rank}) == []


def delta_normalized(entries):
    """The cells with 2*delta shifted so that its minimum is 0."""
    low = min(d.twice for _, d in entries)
    return {(s, d.twice - low): rk for (s, d), rk in entries.items()}


def test_criterion_10_swapping_the_odd_bands_of_a_negative_closure(wide_tables):
    bad = []
    for params, table in wide_tables.items():
        if params.sign == "-" and params.b < params.c:
            swapped = wide_tables[replace(params, b=params.c, c=params.b)]
            if delta_normalized(table.entries) != delta_normalized(swapped.entries):
                bad.append(params)
    # the fault: the top cell of P(6,-3,-5) moved up one delta line
    entries = dict(wide_tables[TangleParams(3, 1, 2, "-")].entries)
    s, d = max(entries, key=lambda cell: (cell[0], cell[1].twice))
    entries[(s, HalfInteger(d.twice + 2))] = entries.pop((s, d))
    caught = delta_normalized(entries) != delta_normalized(wide_tables[TangleParams(3, 2, 1, "-")].entries)
    ok = not bad and caught
    assert report(10, "(a,b,c,-) and (a,c,b,-) tables agree up to a delta shift, 1000 knots", ok), bad


@given(BAND, BAND, BAND)
@settings(max_examples=100, deadline=None)
def test_criterion_10_up_to_40(a, b, c):
    table = compute_hfk(TangleParams(a, b, c, "-"))
    swapped = compute_hfk(TangleParams(a, c, b, "-"))
    assert delta_normalized(table.entries) == delta_normalized(swapped.entries)


def is_quasi_alternating(params):
    """Quasi-alternating by Champanerkar-Kofman (arXiv:0712.2250) and
    Manolescu-Ozsvath (arXiv:0708.3249): for the - closure a > b or a > c,
    for the + closure b >= a or b > c."""
    a, b, c = params.a, params.b, params.c
    if params.sign == "-":
        return a > b or a > c
    return b >= a or b > c


def qa_thinness_failures(tables):
    """Quasi-alternating knots whose table is not thin: one delta line, rank
    |Delta_s| at each s with Delta from the Fox oracle, and total rank
    |pq + qr + rp|.  tables maps params to HfkTable; other knots are skipped."""
    bad = []
    for params, table in tables.items():
        if not is_quasi_alternating(params):
            continue
        alex = fox_alexander(build_pretzel_diagram(*params.pretzel_triple()))
        ranks = {s: abs(alex[abs(s)]) for s in range(1 - len(alex), len(alex)) if alex[abs(s)]}
        thin = (
            len({d for _, d in table.entries}) == 1
            and table.rank_by_alexander() == ranks
            and table.total_rank == pretzel_determinant(*params.pretzel_triple())
        )
        if not thin:
            bad.append(params)
    return bad


def test_criterion_11_quasi_alternating_knots_are_thin(wide_tables):
    bad = qa_thinness_failures(wide_tables)
    qa = [p for p in wide_tables if is_quasi_alternating(p)]
    # the fault: a pair of generators one delta apart at s = 0, which cancels in chi
    params = TangleParams(3, 1, 2, "-")
    entries = dict(wide_tables[params].entries)
    (d,) = {d for _, d in entries}
    for delta in (d, HalfInteger(d.twice + 2)):
        entries[(0, delta)] = entries.get((0, delta), 0) + 1
    faulty = HfkTable(params=params, entries=entries)
    caught = euler_characteristic(faulty) == euler_characteristic(wide_tables[params])
    caught = caught and qa_thinness_failures({params: faulty}) == [params]
    ok = not bad and len(qa) == 1285 and caught
    assert report(11, "quasi-alternating knots are thin, 1285 knots", ok), bad


@given(BAND, BAND, BAND, st.sampled_from(["+", "-"]))
@settings(max_examples=100, deadline=None)
def test_criterion_11_up_to_40(a, b, c, sign):
    params = TangleParams(a, b, c, sign)
    assert qa_thinness_failures({params: compute_hfk(params)}) == []
