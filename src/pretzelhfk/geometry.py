"""Geometric oracle: intersection counting and grading of rational-curve pairings.

A rational curve on the 4-punctured sphere lifts to straight lines in the
punctured plane R^2 minus Z^2; the parametrizing square lifts to the integer
grid and the deck group is generated by v -> -v and translations by 2Z^2.
Pairing two rational curves therefore reduces to intersecting one fixed lift
of the first curve with the two translate families of lines covering the
second, modulo the period of the first.  Each intersection point is graded by
the local disk rule: a disk in the cell containing the point, bounded by the
blue curve from y to the point, the red curve from the point to x, and an arc
of the grid, traversed clockwise; the Alexander grading is the blue label at
y minus the red label at x plus the signs of the punctures the disk covers.
The cell's four boundary crossings, two per curve, are computed from its
edges and labelled before the rule runs; only `CurveLabels` walks the grid.
The sector a crossing leads runs from it along the counterclockwise boundary
walk to the next crossing and back through the point, so it winds
counterclockwise: the cell is convex and holds the point.  A disk runs
y -> point -> x -> grid, against that walk, so the clockwise disks are the
sectors led by y: which color leads a disk is the orientation convention,
and no area needs computing.
Points are counted per (Alexander, delta) label pair, and the multiset is
built once from those counts.

Alexander labels along a single line follow from the same disk rule applied
within the curve: the step between consecutive grid crossings equals the sum
of puncture signs below the connecting segment, which is +-2 for a full cell
traversal and +-1 otherwise, with the sign set by the row parity.  Labels are
anchored so the minimum over one period equals the curve's stored m, and the
computed span is checked against M - m.

The delta grading is computed the same way with a half per covered puncture,
using per-curve delta labels on the grid crossings.  Two discrete conventions
are not determined by the construction alone: which color leads a disk,
CW_SIGN, and the per-curve delta labels.  They were fixed once by requiring
agreement with the closed-form pairings, and the tests show that flipping
either one breaks agreement on every pairing, so both are pinned, not fitted.
The resolved delta labels are: curves with odd slope denominator (the
closure curves) carry -sign(slope) * 1/2 on vertical-edge crossings and 0 on
horizontal ones, curves with even slope denominator (the tangle curves)
carry 0 on vertical-edge crossings and sign(slope) * 1/2 on horizontal ones,
and each covered puncture contributes +1/2 regardless of its sign.  Which
puncture rows are positive is a gauge choice: the opposite rule gives the
same unreduced multisets, so punctures on even rows are positive.

All coordinates are integers on one lattice per pairing.  With
det = pr*qb - pb*qr, the scale N = lcm(2qr, 2|pr|, 4qb, 4|pb|, 4|det|) puts
every grid crossing and every intersection point on (1/N) Z^2, so a point
is stored as (N x, N y) and a line as (p, q, C) with q Y = p X + C.  Every
division that yields a coordinate is exact (`_exact` raises otherwise); only
cell indices and the window of translates are floors.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Tuple

from .algebra import GeneratorMultiset, HalfInteger
from .curves import RATIONAL, GradedCurve, ReducedSlope

# Which color leads a disk (see module docstring): -1 blue, so disks are
# clockwise; +1 red, so they would be counterclockwise.
CW_SIGN = -1

Line = Tuple[int, int, int]  # (p, q, C): q Y = p X + C in scaled coordinates


class GeometryError(ValueError):
    """Raised on parallel slopes, non-rational curves or a broken construction."""


def det_pair_count(s1: ReducedSlope, s2: ReducedSlope) -> int:
    """Generator-pair count |r1 s2 - r2 s1| of two transverse rational curves."""
    d = s1.numerator * s2.denominator - s2.numerator * s1.denominator
    if d == 0:
        raise GeometryError(f"slopes {s1} and {s2} are parallel; pairing undefined")
    return abs(d)


def _exact(num: int, den: int) -> int:
    """num / den, which must be an integer: points never leave the lattice."""
    quo, rem = divmod(num, den)
    if rem:
        raise GeometryError(f"{num}/{den} is not on the lattice")
    return quo


def _eps(row: int) -> int:
    """Sign of the punctures in a row of the lattice; rows alternate."""
    return 1 if row % 2 == 0 else -1


def _grid_crossings(line: Line, x_lo: int, x_hi: int, n: int):
    """Crossings of the line with the grid for x_lo <= X < x_hi, sorted by X.

    Returns triples (X, Y, kind) with kind "V" (X on a vertical grid line) or
    "H" (Y on a horizontal one).  x_lo and x_hi are multiples of n.
    """
    p, q, c = line
    pts = [(x, _exact(p * x + c, q), "V") for x in range(x_lo, x_hi, n)]
    y_ends = sorted((_exact(p * x_lo + c, q), _exact(p * x_hi + c, q)))
    for y in range(-(-y_ends[0] // n) * n, y_ends[1], n):
        x = _exact(q * y - c, p)
        if x_lo <= x < x_hi:
            pts.append((x, y, "H"))
    pts.sort()
    return pts


class CurveLabels:
    """Alexander and delta labels of one lifted curve's grid crossings.

    Labels are periodic with x-period 2qN and anchored so the minimum over a
    period is the curve's m; construction fails if the realized span differs
    from M - m (which would mean the line does not lift the decorated curve).
    The table is keyed by the scaled X of a crossing modulo the period.
    """

    def __init__(self, line: Line, m: int, M: int, n: int):
        self.p, self.q = line[0], line[1]
        self.period = 2 * self.q * n
        pts = _grid_crossings(line, 0, 2 * self.period, n)
        labs = [0]
        for (x1, y1, k1), (x2, y2, k2) in zip(pts, pts[1:]):
            row = (y1 + y2) // (2 * n)
            mag = 2 if (k1 == "V" and k2 == "V") else 1
            labs.append(labs[-1] + mag * _eps(row))
        by_x = {x: lab for (x, _, _), lab in zip(pts, labs)}
        base = [(x, lab) for (x, _, _), lab in zip(pts, labs) if x < self.period]
        if not all(by_x.get(x + self.period) == lab for x, lab in base):
            raise GeometryError("grid labels are not periodic; bad line offset")
        values = [lab for _, lab in base]
        if max(values) - min(values) != M - m:
            raise GeometryError(
                f"label span {max(values) - min(values)} does not match "
                f"decoration span {M - m}"
            )
        shift = m - min(values)
        self.table: Dict[int, int] = {x: lab + shift for x, lab in base}

    def delta_halves(self, kind: str) -> int:
        sgn = 1 if self.p > 0 else -1
        if self.q % 2:
            return -sgn if kind == "V" else 0
        return 0 if kind == "V" else sgn


def _cell_crossings(line: Line, x0: int, y0: int, n: int):
    """Crossings of the line with the boundary of the cell with corner (x0, y0).

    Returns (t, point, kind) for each hit strictly inside an edge, where t in
    [0, 4n) is the position on the counterclockwise walk from (x0, y0):
    bottom, right, top, left edges in order.  kind is "V" on a vertical edge
    and "H" on a horizontal one.  A line through the cell crosses its boundary
    twice; a crossing at a corner lies inside no edge and is dropped.  The
    divisions are `_exact`'s, inlined: this runs twice per point.
    """
    p, q, c = line
    x1, y1 = x0 + n, y0 + n
    out = []
    for x, t0, sgn in ((x1, n, 1), (x0, 4 * n, -1)):
        num = p * x + c
        y, rem = divmod(num, q)
        if rem:
            raise GeometryError(f"{num}/{q} is not on the lattice")
        if y0 < y < y1:
            out.append((t0 + sgn * (y - y0), (x, y), "V"))
    for y, t0, sgn in ((y0, 0, 1), (y1, 3 * n, -1)):
        num = q * y - c
        x, rem = divmod(num, p)
        if rem:
            raise GeometryError(f"{num}/{p} is not on the lattice")
        if x0 < x < x1:
            out.append((t0 + sgn * (x - x0), (x, y), "H"))
    return out


def _grade_point(z, n, marked):
    """Alexander label and delta label (in halves) of one intersection point.

    marked holds the two cell-boundary crossings of each curve, already
    labelled: (t, alexander, delta_halves, color), with t as in
    `_cell_crossings`.  Sorted by t the colors must alternate; the disks
    are then the two opposite sectors (see the module docstring) led by the
    color CW_SIGN names, and both are graded and must agree.
    """
    marked = sorted(marked)
    colors = [entry[3] for entry in marked]
    if colors not in (["red", "blue"] * 2, ["blue", "red"] * 2):
        raise GeometryError("cell boundary points do not alternate colors")
    lo, hi = _eps(z[1] // n), _eps(z[1] // n + 1)
    signs = (lo, lo, hi, hi) * 2  # corner puncture signs in walk order, twice round
    lead = "red" if CW_SIGN > 0 else "blue"
    results = []
    for i in (0, 2) if colors[0] == lead else (1, 3):
        t1, a1, d1, _ = marked[i]
        t2, a2, d2, _ = marked[(i + 1) % 4]
        # corners passed walking from t1 to t2 (never a full turn: each line meets two edges)
        first = t1 // n + 1
        passed = (t2 // n - first + 1) % 4
        # y minus x: a red lead is x, so t2 minus t1; a blue lead is y, so t1 minus t2
        results.append((CW_SIGN * (a2 - a1) + sum(signs[first:first + passed]),
                        CW_SIGN * (d2 - d1) + passed))
    if results[0] != results[1]:
        raise GeometryError(f"disk configurations disagree: {results}")
    return results[0]


def closure_curve(c: int, closure: str) -> GradedCurve:
    """The rational curve closing off the third pretzel strand.

    Negative closure uses r(1/(2c+1)), positive closure r(-1/(2c+1)); both
    carry the symmetric grading t^(-2c-1) t^(2c+1).
    """
    if closure not in ("+", "-"):
        raise GeometryError(f"closure sign must be '+' or '-', not {closure!r}")
    num = -1 if closure == "+" else 1
    return GradedCurve.rational(num, 2 * c + 1, -2 * c - 1, 2 * c + 1)


def enumerate_geometric_pairing(
    red: GradedCurve, blue: GradedCurve
) -> GeneratorMultiset:
    """Unreduced bigraded generator multiset of a rational-rational pairing.

    Intersections of a fixed lift of the red (closure) curve with all lifts
    of the blue (tangle) curve are enumerated over one red period; there are
    exactly 2 * det_pair_count of them, each graded by the local disk rule.
    """
    for curve in (red, blue):
        if curve.kind is not RATIONAL:
            raise GeometryError("geometric pairing is defined for rational curves only")
    pr, qr = red.slope.numerator, red.slope.denominator
    pb, qb = blue.slope.numerator, blue.slope.denominator
    if qr == 0 or qb == 0:
        raise GeometryError("infinite slopes are not supported")
    expected = 2 * det_pair_count(red.slope, blue.slope)  # raises on parallel slopes
    det = pr * qb - pb * qr
    n = math.lcm(2 * qr, 2 * pr or 1, 4 * qb, 4 * pb or 1, 4 * det)

    # the red lift has intercept 1/(2 qr), the blue translates sigma/(4 qb) + 2k/qb
    red_line = (pr, qr, _exact(n, 2))
    red_labels = CurveLabels(red_line, red.m, red.M, n)
    blue_labels = CurveLabels((pb, qb, _exact(n, 4)), blue.m, blue.M, n)
    pb_inv = pow(pb % qb, -1, qb)

    red_table, red_period = red_labels.table, red_labels.period
    blue_table, blue_period = blue_labels.table, blue_labels.period
    red_v, red_h = red_labels.delta_halves("V"), red_labels.delta_halves("H")
    blue_v, blue_h = blue_labels.delta_halves("V"), blue_labels.delta_halves("H")
    cell_crossings = _cell_crossings  # read once per call: a patched attribute still counts
    counts: Counter = Counter()  # (alexander, delta_halves) -> points
    for sigma in (1, -1):
        # k window: the unscaled x* = (sigma qr + 8k qr - 2qb) / (4 det) lies
        # in [0, 2qr) only for 8k qr between 2qb - sigma qr and that plus 8 det qr
        ends = sorted((2 * qb - sigma * qr, 2 * qb - sigma * qr + 8 * det * qr))
        k_lo, k_hi = (-(-e // (8 * qr)) for e in ends)
        for k in range(k_lo, k_hi):
            x_star = _exact(n * (sigma * qr + 8 * k * qr - 2 * qb), 4 * det)
            if not (0 <= x_star < red_period):
                continue
            z = (x_star, _exact(n * (sigma * pr + 8 * k * pr - 2 * pb), 4 * det))
            if z[0] % n == 0 or z[1] % n == 0:
                raise GeometryError("intersection point lies on the grid")
            blue_line = (pb, qb, _exact(n * (sigma + 8 * k), 4))

            # transport to the base blue lift by the translation (2s, 2t) with
            # t*qb - s*pb = k: x -> x - 2 s0 for sigma=+1, 2 s0 - x for -1
            s0 = (-k) * pb_inv % qb
            shift = 2 * s0 * n
            x0, y0 = z[0] // n * n, z[1] // n * n
            red_pts = cell_crossings(red_line, x0, y0, n)
            blue_pts = cell_crossings(blue_line, x0, y0, n)
            if len(red_pts) != 2 or len(blue_pts) != 2:
                raise GeometryError("expected exactly two boundary crossings per curve")
            (t1, pt1, kind1), (t2, pt2, kind2) = red_pts
            (t3, pt3, kind3), (t4, pt4, kind4) = blue_pts
            marked = [
                (t1, red_table[pt1[0] % red_period], red_v if kind1 == "V" else red_h, "red"),
                (t2, red_table[pt2[0] % red_period], red_v if kind2 == "V" else red_h, "red"),
                (t3, blue_table[sigma * (pt3[0] - shift) % blue_period],
                 blue_v if kind3 == "V" else blue_h, "blue"),
                (t4, blue_table[sigma * (pt4[0] - shift) % blue_period],
                 blue_v if kind4 == "V" else blue_h, "blue"),
            ]
            counts[_grade_point(z, n, marked)] += 1

    points = sum(counts.values())
    if points != expected:
        raise GeometryError(f"enumerated {points} points, expected {expected}")
    return GeneratorMultiset(
        {(alex, HalfInteger(halves)): rank for (alex, halves), rank in counts.items()}
    )
