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
The cell's four boundary crossings are read, labelled, from each curve's
one crossing walk, made by `_curve_labels`: the entries on either side of
the point z, or of its preimage w under v -> sigma v + 2(s, t) on the base
blue lift, a blue crossing c mapping back to the cell as z + sigma (c - w).
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
cell indices and the window of translates are floors.  A closure sign and c
come checked by TangleParams; only the curves' slopes are checked here.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from typing import List, Tuple

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


def _curve_labels(line: Line, m: int, M: int, n: int) -> List[Tuple[int, int, str, int]]:
    """Labelled grid crossings (X, Y, kind, label) of one lifted curve over one x-period 2qN.

    The steps between crossings repeat with that period, so the labels are
    periodic exactly when the walk, closed by the crossing at X = period,
    comes back to its first label.  They are anchored so the minimum over the
    period is the curve's m; construction fails if the realized span differs
    from M - m (which would mean the line does not lift the decorated curve).
    The list is sorted by X in [0, period]: the closing crossing, with the
    first label, is kept, so every X of the period lies between two entries.
    """
    p, q, c = line
    period = 2 * q * n
    pts = _grid_crossings(line, 0, period, n)
    pts.append((period, _exact(p * period + c, q), "V"))
    labs = [0]
    for (x1, y1, k1), (x2, y2, k2) in zip(pts, pts[1:]):
        row = (y1 + y2) // (2 * n)
        mag = 2 if (k1 == "V" and k2 == "V") else 1
        labs.append(labs[-1] + mag * _eps(row))
    if labs[-1]:
        raise GeometryError("grid labels are not periodic; bad line offset")
    if max(labs) - min(labs) != M - m:
        raise GeometryError(
            f"label span {max(labs) - min(labs)} does not match "
            f"decoration span {M - m}"
        )
    shift = m - min(labs)
    return [(x, y, kind, lab + shift) for (x, y, kind), lab in zip(pts, labs)]


def _delta_halves(p: int, q: int) -> Tuple[int, int]:
    """Delta labels, in halves, of a curve of slope p/q on its (V, H) grid crossings."""
    sgn = 1 if p > 0 else -1
    return (-sgn, 0) if q % 2 else (0, sgn)


def _walk_position(dx: int, dy: int, kind: str, n: int) -> int:
    """Position in [0, 4n) of a boundary crossing at (dx, dy) from the cell's lower
    left corner on the counterclockwise walk from it: bottom, right, top, left
    edges in order.  kind is "V" on a vertical edge and "H" on a horizontal one."""
    if kind == "V":
        return n + dy if dx else 4 * n - dy
    return 3 * n - dx if dy else dx


def _grade_point(z, n, marked):
    """Alexander label and delta label (in halves) of one intersection point.

    marked holds the two cell-boundary crossings of each curve, already
    labelled: (t, alexander, delta_halves, color), with t as in
    `_walk_position`.  Sorted by t the colors must alternate; the disks
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
        if curve.slope.numerator == 0:
            raise GeometryError(f"slope {curve.slope} is zero: the oracle divides by each numerator")
    pr, qr = red.slope.numerator, red.slope.denominator
    pb, qb = blue.slope.numerator, blue.slope.denominator
    expected = 2 * det_pair_count(red.slope, blue.slope)  # raises on parallel slopes
    det = pr * qb - pb * qr
    n = math.lcm(2 * qr, 2 * pr, 4 * qb, 4 * pb, 4 * det)

    # the red lift has intercept 1/(2 qr), the blue translates sigma/(4 qb) + 2k/qb
    red_line, blue_line = (pr, qr, _exact(n, 2)), (pb, qb, _exact(n, 4))
    red_walk, red_period = _curve_labels(red_line, red.m, red.M, n), 2 * qr * n
    blue_walk, blue_period = _curve_labels(blue_line, blue.m, blue.M, n), 2 * qb * n
    pb_inv = pow(pb % qb, -1, qb)
    red_delta, blue_delta = _delta_halves(pr, qr), _delta_halves(pb, qb)
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

            # z is on the base red lift; v -> sigma v + 2N(s0, t0) with t0 qb - s0 pb = k
            # maps the base blue lift onto z's translate, and w is z's preimage there
            s0 = (-k) * pb_inv % qb
            wx = sigma * (z[0] - 2 * s0 * n) % blue_period
            w = (wx, _exact(pb * wx + blue_line[2], qb))
            dx, dy = z[0] % n, z[1] % n
            marked = []
            for walk, (ux, uy), sgn, (dv, dh), color in (
                (red_walk, z, 1, red_delta, "red"),
                (blue_walk, w, sigma, blue_delta, "blue"),
            ):
                i = bisect_left(walk, (ux,))
                for x, y, kind, lab in walk[i - 1:i + 1]:
                    t = _walk_position(dx + sgn * (x - ux), dy + sgn * (y - uy), kind, n)
                    marked.append((t, lab, dv if kind == "V" else dh, color))
            counts[_grade_point(z, n, marked)] += 1

    points = sum(counts.values())
    if points != expected:
        raise GeometryError(f"enumerated {points} points, expected {expected}")
    return GeneratorMultiset(
        {(alex, HalfInteger(halves)): rank for (alex, halves), rank in counts.items()}
    )
