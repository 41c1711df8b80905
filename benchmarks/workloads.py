"""Seeded inputs of the benchmark workloads.

A workload is a list of units, each one timed operation on generated
parameters.  The library receives only those parameters; the seed never
reaches it.

- ``grid-sweep``: one ``pretzelhfk sweep`` over the paper's 432-knot grid
  (a, b, c in 1..6, both signs), then ``compute_hfk`` on each grid knot.  The
  paper fixes the grid, so the seed changes nothing here.
- ``large-knots``: per knot, ``compute_hfk`` (the table alone) and
  ``pretzelhfk compute --format json`` (the full record with every oracle),
  with a, c in [20, 100], b in [1, 100] and both signs.
- ``geo-oracle``: unique rational pairings, deduplicated by
  (sign, c, slope, m, M), from a in [1, 20], b in [1, a], c in [1, 20] and
  both signs; per pairing the geometric oracle, then ``compute_hfk`` on four
  knots of a separate sample of that range.  Those tables are a control:
  the pairings' own knots, picked by point count, would make table times
  depend on the seed.

Seeded draws are stratified so that every seed gets nearly the same spread of
sizes: the run-to-run spread of a percentile must come from the program, not
from one seed drawing more large knots than another.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from pretzelhfk.curves import (
    CurveKind,
    GradedCurve,
    TangleParams,
    case_of,
    pretzel_tangle_curves,
)
from pretzelhfk.geometry import closure_curve, det_pair_count
from pretzelhfk.hfk import classify

WORKLOADS = ("grid-sweep", "large-knots", "geo-oracle")
DEFAULT_SEED = 0

GRID_MAX = 6
LARGE_KNOTS = 100
LARGE_AC = (20, 100)
LARGE_B = (1, 100)
CASE_II_EVERY = 10  # one knot in ten gets b = a - 1; a uniform draw almost never does
GEO_PAIRINGS = 100
GEO_TABLES_PER_PAIRING = 4
GEO_MAX_A = 20
GEO_MAX_C = 20


@dataclass(frozen=True)
class Unit:
    """One timed operation: kind is "sweep", "table", "cli" or "geo"."""

    kind: str
    params: Optional[TangleParams] = None
    curve: Optional[GradedCurve] = None
    points: int = 0  # intersection points of a geo unit, 2 * det

    @property
    def key(self) -> str:
        """Identifies the unit's input within its workload (golden digests)."""
        if self.params is None:
            return self.kind
        p = self.params
        key = f"{self.kind}:{p.a},{p.b},{p.c},{p.sign}"
        if self.curve is not None:
            key += f":{self.curve}"
        return key


def grid_params() -> List[TangleParams]:
    """The 432-knot grid in the order ``pretzelhfk sweep`` visits it."""
    return [
        TangleParams(a, b, c, sign)
        for sign in ("+", "-")
        for a in range(1, GRID_MAX + 1)
        for b in range(1, GRID_MAX + 1)
        for c in range(1, GRID_MAX + 1)
    ]


def _strata(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    """One integer from each of n equal slices of [lo, hi], in random order."""
    width = hi - lo + 1
    values = [lo + int((i + rng.random()) * width / n) for i in range(n)]
    rng.shuffle(values)
    return values


def _signs(rng: random.Random, n: int) -> List[str]:
    signs = ["+", "-"] * (n // 2) + ["+"] * (n % 2)
    rng.shuffle(signs)
    return signs


def large_knot_params(seed: int) -> List[TangleParams]:
    rng = random.Random(seed)
    a = _strata(rng, LARGE_KNOTS, *LARGE_AC)
    b = _strata(rng, LARGE_KNOTS, *LARGE_B)
    c = _strata(rng, LARGE_KNOTS, *LARGE_AC)
    for i in range(0, LARGE_KNOTS, CASE_II_EVERY):
        b[i] = a[i] - 1
    return [TangleParams(*knot) for knot in zip(a, b, c, _signs(rng, LARGE_KNOTS))]


def geo_universe() -> List[Tuple[TangleParams, GradedCurve, int]]:
    """Every unique rational pairing of the geo-oracle range, with its points.

    Deduplicated by (sign, c, slope, m, M); each keeps the first knot that
    produced it, visiting sign, a, b, c in increasing order.
    """
    seen = set()
    out = []
    for sign in ("+", "-"):
        for a in range(1, GEO_MAX_A + 1):
            for b in range(1, a + 1):
                rational = [
                    cv for cv in pretzel_tangle_curves(a, b)
                    if cv.kind is CurveKind.RATIONAL
                ]
                for c in range(1, GEO_MAX_C + 1):
                    red = closure_curve(c, sign).slope
                    for curve in rational:
                        key = (sign, c, curve.slope, curve.m, curve.M)
                        if key in seen:
                            continue
                        seen.add(key)
                        points = 2 * det_pair_count(red, curve.slope)
                        out.append((TangleParams(a, b, c, sign), curve, points))
    return out


def geo_pairings(rng: random.Random) -> List[Tuple[TangleParams, GradedCurve, int]]:
    """GEO_PAIRINGS pairings, one from each slice of the universe by points."""
    universe = sorted(geo_universe(), key=lambda e: (e[2], str(e[1]), e[0].sign, e[0].c))
    n = len(universe)
    picks = [
        universe[rng.randrange(i * n // GEO_PAIRINGS, (i + 1) * n // GEO_PAIRINGS)]
        for i in range(GEO_PAIRINGS)
    ]
    rng.shuffle(picks)
    return picks


def geo_table_params(rng: random.Random, n: int) -> List[TangleParams]:
    """Knots of the geo-oracle range, stratified like the large knots; b = ceil(u * a)."""
    a = _strata(rng, n, 1, GEO_MAX_A)
    u = _strata(rng, n, 1, n)
    c = _strata(rng, n, 1, GEO_MAX_C)
    return [
        TangleParams(ai, -(-ui * ai // n), ci, sign)
        for ai, ui, ci, sign in zip(a, u, c, _signs(rng, n))
    ]


def generate(workload: str, seed: int) -> List[Unit]:
    """The units of one pass of the workload, in execution order."""
    if workload == "grid-sweep":
        return [Unit("sweep")] + [Unit("table", p) for p in grid_params()]
    if workload == "large-knots":
        units = []
        for p in large_knot_params(seed):
            units += [Unit("table", p), Unit("cli", p)]
        return units
    if workload == "geo-oracle":
        rng = random.Random(seed)
        pairings = geo_pairings(rng)
        per = GEO_TABLES_PER_PAIRING
        tables = geo_table_params(rng, GEO_PAIRINGS * per)
        units = []
        for i, (p, curve, points) in enumerate(pairings):
            units.append(Unit("geo", p, curve, points))
            units += [Unit("table", q) for q in tables[i * per:(i + 1) * per]]
        return units
    raise ValueError(f"unknown workload {workload!r}")


def knots_of(units: List[Unit]) -> List[TangleParams]:
    """The knots of a pass's sweep, CLI or geo units, once each."""
    knots: Dict[TangleParams, None] = {}
    for unit in units:
        if unit.kind != "table":
            for p in grid_params() if unit.kind == "sweep" else [unit.params]:
                knots[p] = None
    return list(knots)


def mix(units: List[Unit]) -> Dict[str, object]:
    """Shares of the input properties the program's cost depends on.

    Over the knots of the workload's main operation; the table units of
    grid-sweep and large-knots use the same knots.
    """
    knots = knots_of(units)
    n = len(knots)

    def shares(values) -> Dict[str, float]:
        counts = Counter(values)
        return {k: counts[k] / n for k in sorted(counts)}

    return {
        "knots": n,
        "case": shares(case_of(p.a, p.b).value for p in knots),
        "sign": shares(p.sign for p in knots),
        "shape": shares(classify(p).shape.value for p in knots),
        "geo_pairings": sum(u.kind == "geo" for u in units),
        "geo_points": sum(u.points for u in units),
    }
