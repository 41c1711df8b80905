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
one crossing walk by one bisect of the walk's X values.  `_curve_walk`
builds that walk in its one entry form, (X, Y, on a vertical edge,
alexander, delta_halves, color).  Two consecutive entries bound a segment
that lies in one grid cell, so every point on a red segment has the same two
red crossings: they are placed on that cell's boundary once per segment, by
`_segment_marks`.  The blue crossings are the entries either side of z's
preimage w under v -> sigma v + 2(s, t) on the base blue lift, and a blue
crossing c maps back to the cell as z + sigma (c - w); they are placed per
point, since the blue walk has about as many segments, once per sigma, as
the pairing has points, while on the geo-oracle benchmark's pairings about a
dozen points share each red segment.
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
is stored as (N x, N y) and a line as (p, q, C) with q Y = p X + C.  For
each sigma the points form an arithmetic progression in the translate k:
the family's first point and its steps are divided exactly (`_exact` raises
otherwise), and every other point follows from them by addition.  Grid
crossings and each point's preimage on the base blue lift are divided
exactly too; only cell indices and the window of translates are floors.  A
closure sign and c come checked by TangleParams; only the curves' slopes are
checked here.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from typing import Tuple

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


def _delta_halves(p: int, q: int) -> Tuple[int, int]:
    """Delta labels, in halves, of a curve of slope p/q on its (V, H) grid crossings."""
    sgn = 1 if p > 0 else -1
    return (-sgn, 0) if q % 2 else (0, sgn)


def _curve_walk(line: Line, curve: GradedCurve, n: int, color: str):
    """One lifted curve's grid crossings over one x-period 2qN, sorted by X in
    [0, period], as (X, Y, on a vertical edge, alexander, delta_halves, color).

    The steps between crossings repeat with that period, so the labels are
    periodic exactly when the walk, closed by the crossing at X = period,
    comes back to its first label; that closing crossing is kept, so every X
    of the period lies between two entries.  The labels are anchored so the
    minimum over the period is the curve's m; construction fails if the
    realized span differs from M - m (the line would not lift the curve).
    """
    p, q, c = line
    period = 2 * q * n
    walk = [(x, _exact(p * x + c, q), True) for x in range(0, period + 1, n)]
    y_lo, y_hi = sorted((walk[0][1], walk[-1][1]))
    # y_lo and y_hi are off the grid (no lift passes a lattice corner), so every x is in (0, period)
    for y in range(-(-y_lo // n) * n, y_hi, n):
        walk.append((_exact(q * y - c, p), y, False))
    walk.sort()
    labs = [0]
    for (_, y1, v1), (_, y2, v2) in zip(walk, walk[1:]):
        labs.append(labs[-1] + (2 if v1 and v2 else 1) * _eps((y1 + y2) // (2 * n)))
    if labs[-1]:
        raise GeometryError("grid labels are not periodic; bad line offset")
    if max(labs) - min(labs) != curve.M - curve.m:
        raise GeometryError(
            f"label span {max(labs) - min(labs)} does not match "
            f"decoration span {curve.M - curve.m}"
        )
    shift = curve.m - min(labs)
    dv, dh = _delta_halves(p, q)
    return [(x, y, vertical, lab + shift, dv if vertical else dh, color)
            for (x, y, vertical), lab in zip(walk, labs)]


def _walk_position(ex: int, ey: int, vertical: bool, n: int) -> int:
    """Position in [0, 4n) of a crossing at offset (ex, ey) from its cell's lower
    left corner, on the counterclockwise walk of the bottom, right, top, then left edge."""
    return (n + ey if ex else 4 * n - ey) if vertical else (3 * n - ex if ey else ex)


def _segment_marks(walk, n: int):
    """For each i >= 1, the marks (t, alexander, delta_halves, color) of walk[i - 1] and
    walk[i] on the walk of the cell holding the segment between them; index 0 is None."""
    marks = [None]
    for first, second in zip(walk, walk[1:]):
        # both entries lie on that cell's boundary, so their midpoint lies inside
        x0 = (first[0] + second[0]) // (2 * n) * n
        y0 = (first[1] + second[1]) // (2 * n) * n
        marks.append(tuple((_walk_position(x - x0, y - y0, vertical, n), lab, delta, color)
                           for x, y, vertical, lab, delta, color in (first, second)))
    return marks


# the two walk orders of alternating colors, and the message when neither holds
_ALTERNATING = (("red", "blue", "red", "blue"), ("blue", "red", "blue", "red"))
_NOT_ALTERNATING = "cell boundary points do not alternate colors"
# prefix[j] sums the signs of corners 0 .. j - 1 round a cell's walk, where
# corner j ends edge j - 1: lower left, lower right, upper right, upper left,
# and round again; keyed by the signs (lo, hi) of the cell's bottom and top rows
_CORNER_PREFIX = {
    (lo, hi): (0, lo, 2 * lo, 2 * lo + hi, 2 * (lo + hi), 3 * lo + 2 * hi, 4 * lo + 2 * hi, 4 * lo + 3 * hi)
    for lo in (1, -1) for hi in (1, -1)
}


def _grade_point(z, n, marked):
    """Alexander label and delta label (in halves) of one intersection point.

    marked holds the two cell-boundary crossings of each curve, already
    labelled: (t, alexander, delta_halves, color), with t the crossing's
    position in [0, 4n) on the counterclockwise walk of z's cell from its
    lower left corner (bottom, right, top, left edges in order).  Sorted by t
    the colors must alternate; the disks are then the two opposite sectors
    (see the module docstring) led by the color CW_SIGN names, and both are
    graded and must agree.
    """
    if len(marked) != 4:
        raise GeometryError(_NOT_ALTERNATING)
    e0, e1, e2, e3 = sorted(marked)
    colors = (e0[3], e1[3], e2[3], e3[3])
    if colors != _ALTERNATING[0] and colors != _ALTERNATING[1]:
        raise GeometryError(_NOT_ALTERNATING)
    row = z[1] // n
    prefix = _CORNER_PREFIX[_eps(row), _eps(row + 1)]
    sign = CW_SIGN
    if colors[0] == ("red" if sign > 0 else "blue"):
        (t1, a1, d1, _), (t2, a2, d2, _), (t3, a3, d3, _), (t4, a4, d4, _) = e0, e1, e2, e3
    else:
        (t1, a1, d1, _), (t2, a2, d2, _), (t3, a3, d3, _), (t4, a4, d4, _) = e1, e2, e3, e0
    # each disk runs from a leading crossing to the next, passing the corners
    # between them (never a full turn: each line meets two edges); y minus x:
    # a red lead is x, so t2 minus t1; a blue lead is y, so t1 minus t2
    f1, f3 = t1 // n + 1, t3 // n + 1
    p1, p3 = (t2 // n - f1 + 1) % 4, (t4 // n - f3 + 1) % 4
    first = (sign * (a2 - a1) + prefix[f1 + p1] - prefix[f1], sign * (d2 - d1) + p1)
    second = (sign * (a4 - a3) + prefix[f3 + p3] - prefix[f3], sign * (d4 - d3) + p3)
    if first != second:
        raise GeometryError(f"disk configurations disagree: {[first, second]}")
    return first


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
    blue_period = 2 * qb * n
    red_walk = _curve_walk(red_line, red, n, "red")
    blue_walk = _curve_walk(blue_line, blue, n, "blue")
    red_xs, blue_xs = [e[0] for e in red_walk], [e[0] for e in blue_walk]
    red_marks = _segment_marks(red_walk, n)
    pb_inv, blue_c = pow(pb % qb, -1, qb), blue_line[2]
    grade_point = _grade_point
    counts: Counter = Counter()  # (alexander, delta_halves) -> points
    for sigma in (1, -1):
        # k window: the unscaled x* = (sigma qr + 8k qr - 2qb) / (4 det) lies
        # in [0, 2qr) only for 8k qr between 2qb - sigma qr and that plus 8 det qr;
        # for det < 0 the window gives (0, 2qr], and x* = 2qr lies on the grid
        ends = sorted((2 * qb - sigma * qr, 2 * qb - sigma * qr + 8 * det * qr))
        k_lo, k_hi = (-(-e // (8 * qr)) for e in ends)
        # z = (x*, y) is on the base red lift; v -> sigma v + 2N(s0, t0) with
        # t0 qb - s0 pb = k maps the base blue lift onto z's translate, and w is
        # z's preimage there.  With s0 = -k pb^-1 mod qb, x*, y and w's x all
        # step by a fixed amount per k: the first point and the steps are exact
        zx = _exact(n * (sigma * qr + 8 * k_lo * qr - 2 * qb), 4 * det)
        zy = _exact(n * (sigma * pr + 8 * k_lo * pr - 2 * pb), 4 * det)
        wx = sigma * (zx - 2 * n * ((-k_lo) * pb_inv % qb)) % blue_period
        step_x, step_y = _exact(2 * n * qr, det), _exact(2 * n * pr, det)
        step_w = sigma * (step_x + 2 * n * pb_inv) % blue_period
        for _ in range(k_lo, k_hi):
            ox, oy = zx % n, zy % n
            if not (ox and oy):
                raise GeometryError("intersection point lies on the grid")
            wy = _exact(pb * wx + blue_c, qb)
            j = bisect_left(blue_xs, wx)
            # z's red crossings are those of its red segment's cell; a blue
            # crossing c either side of w on the base blue lift lies at z's
            # cell offset plus sigma (c - w)
            marked = [*red_marks[bisect_left(red_xs, zx)]]
            for x, y, vertical, lab, delta, color in (blue_walk[j - 1], blue_walk[j]):
                marked.append((_walk_position(ox + sigma * (x - wx), oy + sigma * (y - wy), vertical, n),
                               lab, delta, color))
            counts[grade_point((zx, zy), n, marked)] += 1
            zx += step_x
            zy += step_y
            wx = (wx + step_w) % blue_period

    points = sum(counts.values())
    if points != expected:
        raise GeometryError(f"enumerated {points} points, expected {expected}")
    return GeneratorMultiset(
        {(alex, HalfInteger(halves)): rank for (alex, halves), rank in counts.items()}
    )
