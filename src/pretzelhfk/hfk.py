"""Assembly of the full knot Floer homology table plus classification and checks.

compute_hfk sums the runs of all tangle curves' reduced pairings in one pass.
classify predicts the shape of the table (thin / two disjoint delta lines /
overlap) straight from the parameters, and verify re-derives the same shape
from the table itself, cross-checking against the Alexander-polynomial oracle
and the symmetry laws.  Disagreement anywhere is a reported failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby, repeat
from operator import eq, neg
from typing import Dict, List, Optional, Tuple

from .alexander import build_pretzel_diagram, fox_alexander, pretzel_determinant
from .algebra import (
    HalfInteger,
    HfkTable,
    alexander_terms,
    cell_alexander,
    cell_delta,
    cells_of_runs,
    euler_characteristic,
    normalize_alexander,
)
from .curves import RATIONAL, TangleParams, pretzel_tangle_curves
from .geometry import closure_curve, det_pair_count
from .pairing import pair_curve


class Shape(Enum):
    THIN = "thin"
    TWO_DELTA_DISJOINT = "two-delta-disjoint"
    OVERLAP = "overlap"


# bound once for per-knot code, like CurveKind's members in curves
THIN, TWO_DELTA_DISJOINT, OVERLAP = Shape.THIN, Shape.TWO_DELTA_DISJOINT, Shape.OVERLAP


@dataclass(frozen=True)
class Classification:
    """Predicted table shape; overlap data only in the overlap case.

    overlap_ranks is (rank at the higher delta, rank at the lower delta) at
    the shared Alexander gradings +-(c - b).
    """

    shape: Shape
    overlap_gradings: Optional[Tuple[int, int]] = None
    overlap_ranks: Optional[Tuple[int, int]] = None


def compute_hfk(params: TangleParams) -> HfkTable:
    """Knot Floer homology of P(2a, -2b-1, +-(2c+1)) from the curve pairings."""
    runs = []
    sign, c = params.sign, params.c
    for curve in pretzel_tangle_curves(params.a, params.b):
        runs.extend(pair_curve(sign, c, curve).generators.runs)
    # each pairing's runs were checked when made, so of_runs' filter is skipped
    return HfkTable(params=params, entries=cells_of_runs(runs))


def classify(params: TangleParams) -> Classification:
    """Table shape predicted directly from (a, b, c) and the closure sign.

    With the negative closure the table is thin iff a > b or a > c, and
    otherwise lies on two disjoint delta lines.  With the positive closure it
    is thin iff a <= b or c <= b, and otherwise on two disjoint lines iff
    a = b + 1.  What is left is the paper's overlap regime b < c and
    b < a - 1, where the two lines share the gradings +-(c - b) with ranks
    b (higher delta) and a - b - 1 (lower delta).
    """
    a, b, c = params.a, params.b, params.c
    if not params.positive_closure:
        if a > b or a > c:
            return Classification(THIN)
        return Classification(TWO_DELTA_DISJOINT)
    if a <= b or c <= b:
        return Classification(THIN)
    if a == b + 1:
        return Classification(TWO_DELTA_DISJOINT)
    return Classification(
        OVERLAP,
        overlap_gradings=(-(c - b), c - b),
        overlap_ranks=(b, a - b - 1),
    )


def classification_from_table(table: HfkTable) -> Classification:
    """Re-derive the shape from the computed ranks alone.

    One pass groups the support by delta: groupby cuts the cells into runs of
    one delta in C (a computed table has one run per delta line), and each
    run's Alexander gradings join that line's set.
    """
    entries = table.entries
    support: Dict[HalfInteger, set] = {}
    for d, cells in groupby(entries, cell_delta):
        line = support.get(d)
        if line is None:
            line = support[d] = set()
        line.update(map(cell_alexander, cells))
    if len(support) == 1:
        return Classification(THIN)
    if len(support) != 2:
        raise ValueError(f"table supported in {len(support)} delta gradings")
    low, high = sorted(support)
    shared = sorted(support[low] & support[high])
    if not shared:
        return Classification(TWO_DELTA_DISJOINT)
    if len(shared) != 2 or shared[0] != -shared[1]:
        raise ValueError(f"unexpected overlap support {shared}")
    s = shared[1]
    return Classification(
        OVERLAP,
        overlap_gradings=(-s, s),
        overlap_ranks=(entries[s, high], entries[s, low]),
    )


@dataclass
class VerificationReport:
    """Outcome of the per-knot consistency checks; values pass/fail/skip.

    predicted is classify(table.params), which check (iii) compares with the table.
    """

    table: HfkTable
    predicted: Classification
    checks: Dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v != "fail" for v in self.checks.values())

    def failures(self) -> List[str]:
        return [name for name, v in self.checks.items() if v == "fail"]


def verify(params: TangleParams) -> VerificationReport:
    """Run every consistency check for one knot; failures are report entries.

    The checks assume that every cell's rank is positive, as compute_hfk
    writes it.  A zero-rank cell is outside that contract: (ii) reads it as
    rank 0, while (iii) and (iv) count it as support.
    """
    table = compute_hfk(params)
    predicted = classify(params)
    report = VerificationReport(table=table, predicted=predicted)
    checks = report.checks

    # (i) graded Euler characteristic against the Fox-calculus oracle
    try:
        chi = normalize_alexander(euler_characteristic(table))
    except ValueError:
        chi = None
    try:
        oracle = fox_alexander(build_pretzel_diagram(*params.pretzel_triple()))
        checks["euler_matches_alexander_oracle"] = "pass" if chi == oracle else "fail"
    except ValueError:
        checks["euler_matches_alexander_oracle"] = "fail"

    # (ii) per-delta rank symmetry under s -> -s: each cell's mirror key is
    # built and read through the bound entries.get in C
    entries = table.entries
    mirrors = zip(map(neg, map(cell_alexander, entries)), map(cell_delta, entries))
    symmetric = all(map(eq, map(entries.get, mirrors, repeat(0)), entries.values()))
    checks["rank_symmetry"] = "pass" if symmetric else "fail"

    # (iii) predicted classification against the one re-derived from the table
    try:
        derived = classification_from_table(table)
        checks["classification_consistent"] = (
            "pass" if derived == predicted else "fail"
        )
    except ValueError:
        derived = None
        checks["classification_consistent"] = "fail"

    # (iv) thin tables are determined by the Alexander polynomial
    # chi = (a_0, ..., a_g): the rank at s must be |a_|s||, and ranks are positive
    if predicted.shape is THIN and chi is not None:
        thin_ok = table.rank_by_alexander() == dict(alexander_terms(tuple(map(abs, chi))))
        checks["thin_ranks_match_alexander"] = "pass" if thin_ok else "fail"
    else:
        checks["thin_ranks_match_alexander"] = "skip"

    # (v) overlap ranks at s = +-(c-b)
    if predicted.shape is OVERLAP:
        checks["overlap_ranks"] = (
            "pass"
            if derived is not None and derived.overlap_ranks == predicted.overlap_ranks
            else "fail"
        )
    else:
        checks["overlap_ranks"] = "skip"

    # (vi) rank counting: odd total, per-curve counts match the determinant law
    counts_ok = table.total_rank % 2 == 1
    sign, c = params.sign, params.c
    red = closure_curve(c, sign).slope
    for curve in pretzel_tangle_curves(params.a, params.b):
        got = pair_curve(sign, c, curve).total_rank
        expect = det_pair_count(red, curve.slope) if curve.kind is RATIONAL else 2 * curve.k
        counts_ok = counts_ok and got == expect
    if predicted.shape is THIN:
        counts_ok = counts_ok and table.total_rank == pretzel_determinant(
            *params.pretzel_triple()
        )
    checks["rank_counting"] = "pass" if counts_ok else "fail"

    return report
