"""Tests for the geometric intersection oracle on the planar cover."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretzelhfk import geometry
from pretzelhfk.curves import CurveError, CurveKind, GradedCurve, ReducedSlope, TangleParams, pretzel_tangle_curves
from pretzelhfk.geometry import (
    GeometryError,
    _exact,
    closure_curve,
    det_pair_count,
    enumerate_geometric_pairing,
)
from pretzelhfk.hfk import verify
from pretzelhfk.pairing import pair_curve, reduce_generator_pairs


class TestDetPairCount:
    def test_values(self):
        assert det_pair_count(ReducedSlope(1, 3), ReducedSlope(-1, 2)) == 5
        assert det_pair_count(ReducedSlope(1, 3), ReducedSlope(1, 2)) == 1
        assert det_pair_count(ReducedSlope(-1, 5), ReducedSlope(-3, 10)) == 5

    def test_antisymmetric_inputs_give_the_same_count(self):
        a, b = ReducedSlope(1, 3), ReducedSlope(-3, 10)
        assert det_pair_count(a, b) == det_pair_count(b, a)

    def test_parallel_slopes_rejected(self):
        with pytest.raises(GeometryError):
            det_pair_count(ReducedSlope(1, 2), ReducedSlope(1, 2))


class TestClosureCurve:
    def test_sign_convention(self):
        pos = closure_curve(2, "+")
        assert (pos.slope.numerator, pos.slope.denominator) == (-1, 5)
        assert (pos.m, pos.M) == (-5, 5)
        neg = closure_curve(2, "-")
        assert (neg.slope.numerator, neg.slope.denominator) == (1, 5)

    @pytest.mark.parametrize("closure", ["x", "", "+-", " +", "plus", None, 1, -1])
    def test_a_bad_sign_is_rejected_by_name(self, closure):
        # closure_curve takes the sign checked: verify reaches it only through TangleParams
        with pytest.raises(CurveError, match="sign must be") as err:
            verify(TangleParams(1, 1, 2, closure))
        assert str(err.value).endswith(f"not {closure!r}")


class TestGeometricPairing:
    def test_rejects_special_curves(self):
        with pytest.raises(GeometryError):
            enumerate_geometric_pairing(
                closure_curve(1, "-"), GradedCurve(CurveKind.SPECIAL14, 0, 4, None, 1)
            )

    def test_a_zero_slope_is_rejected_by_name(self):
        zero = GradedCurve.rational(0, 1, -2, 2)
        for red, blue in ((closure_curve(1, "-"), zero), (zero, GradedCurve.rational(-1, 2, -2, 2))):
            with pytest.raises(GeometryError, match=r"^slope 0/1 is zero"):
                enumerate_geometric_pairing(red, blue)

    def test_unreduced_count_is_twice_the_determinant(self):
        red = closure_curve(2, "-")
        blue = GradedCurve.rational(-1, 4, -4, 4)
        gens = enumerate_geometric_pairing(red, blue)
        assert gens.total_rank == 2 * det_pair_count(red.slope, blue.slope)

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(1, 8),
        st.sampled_from(["+", "-"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_closed_form_pairings(self, a, b, c, sign):
        red = closure_curve(c, sign)
        for blue in pretzel_tangle_curves(a, b):
            if blue.kind is not CurveKind.RATIONAL:
                continue
            geometric = reduce_generator_pairs(enumerate_geometric_pairing(red, blue))
            assert geometric.generators == pair_curve(sign, c, blue).generators

    def test_gradings_on_a_specific_pairing(self):
        # r(1/3) closure against r(-1/2): the (2,-5)-torus knot pattern
        red = closure_curve(1, "-")
        blue = GradedCurve.rational(-1, 2, -2, 2)
        reduced = reduce_generator_pairs(enumerate_geometric_pairing(red, blue))
        assert reduced.generators == pair_curve("-", 1, blue).generators
        assert reduced.total_rank == 5


def test_exact_division_raises_on_a_remainder():
    assert _exact(-12, 4) == -3
    with pytest.raises(GeometryError, match="not on the lattice"):
        _exact(7, 2)
    with pytest.raises(GeometryError, match="not on the lattice"):
        _exact(-7, 4)


# -- pinned unreduced outputs -------------------------------------------------


def rational_pairings(n):
    """(sign, c, blue) for every rational tangle curve of the n x n x n grid, both signs."""
    return [
        (sign, c, blue)
        for sign in ("+", "-")
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        for c in range(1, n + 1)
        for blue in pretzel_tangle_curves(a, b)
        if blue.kind is CurveKind.RATIONAL
    ]


def unreduced_digest(pairings):
    """sha256 over the sorted unreduced cells of each distinct pairing, in key order."""
    unique = {}
    for sign, c, blue in pairings:
        unique.setdefault((sign, c, blue.slope.numerator, blue.slope.denominator, blue.m, blue.M), blue)
    h = hashlib.sha256()
    for key in sorted(unique):
        gens = enumerate_geometric_pairing(closure_curve(key[1], key[0]), unique[key])
        cells = sorted((s, d.twice, rk) for (s, d), rk in gens.entries.items())
        h.update(repr((key, cells)).encode())
    return len(unique), h.hexdigest()


# the 612 distinct pairings of acceptance criterion 6, computed with exact
# rational arithmetic; a regrading that survives reduction changes the digest
CRITERION_6_DIGEST = (612, "404c69007447b486bbed9b5b88d97f1536eb6f1967e1ceb54c2ea9e98b609c7c")


def test_unreduced_pairings_of_criterion_6_are_pinned():
    assert unreduced_digest(rational_pairings(6)) == CRITERION_6_DIGEST


# -- cell crossings: the curves' walks against the window walk -----------------


def boundary_param(pt, x0, y0, n):
    """Position in [0, 4n) of a cell-boundary point along the counterclockwise
    walk starting at corner (x0, y0): bottom, right, top, left edges in order."""
    x, y = pt
    if y == y0:
        return x - x0
    if x == x0 + n:
        return n + (y - y0)
    if y == y0 + n:
        return 2 * n + (x0 + n - x)
    if x == x0:
        return 3 * n + (y0 + n - y)
    raise GeometryError("point not on cell boundary")


def window_cell_crossings(line, x0, y0, n):
    """Reference: walk the grid crossings of a 3-cell window around the cell,
    keep those strictly inside an edge of the cell and place them on the walk."""
    out = []
    for x, y, kind in geometry._grid_crossings(line, x0 - n, x0 + 2 * n, n):
        on_v = kind == "V" and x in (x0, x0 + n) and y0 < y < y0 + n
        on_h = kind == "H" and y in (y0, y0 + n) and x0 < x < x0 + n
        if on_v or on_h:
            out.append((boundary_param((x, y), x0, y0, n), (x, y), kind))
    return out


def test_cell_crossings_match_the_window_walk(monkeypatch):
    # the crossings each point reads from its curves' walks are where the red
    # lift and the blue translate through the point cross the cell's edges
    points = 0
    for sign, c, blue in rational_pairings(3):
        red = closure_curve(c, sign)
        calls = graded_calls(monkeypatch, red, blue)
        assert len(calls) == 2 * det_pair_count(red.slope, blue.slope)
        points += len(calls)
        for (z, n, marked), _ in calls:
            x0, y0 = z[0] // n * n, z[1] // n * n
            for color, curve in (("red", red), ("blue", blue)):
                p, q = curve.slope.numerator, curve.slope.denominator
                dv, dh = geometry._delta_halves(p, q)
                window = window_cell_crossings((p, q, q * z[1] - p * z[0]), x0, y0, n)
                walked = sorted((t, delta) for t, _, delta, col in marked if col == color)
                assert len(walked) == 2
                assert walked == sorted((t, dv if kind == "V" else dh) for t, _, kind in window)
    assert points == 1196  # over the 102 rational pairings of the 3x3x3 grid


# -- the kernel's error paths ---------------------------------------------------


def graded_calls(monkeypatch, red, blue):
    """The (z, n, marked) arguments and results of every `_grade_point` call."""
    calls = []
    grade_point = geometry._grade_point

    def recorded(z, n, marked):
        out = grade_point(z, n, marked)
        calls.append(((z, n, list(marked)), out))
        return out

    monkeypatch.setattr(geometry, "_grade_point", recorded)
    enumerate_geometric_pairing(red, blue)
    monkeypatch.setattr(geometry, "_grade_point", grade_point)
    return calls


def test_boundary_colors_that_do_not_alternate_are_rejected(monkeypatch):
    (z, n, marked), _ = graded_calls(monkeypatch, closure_curve(1, "-"), GradedCurve.rational(-1, 2, -2, 2))[0]
    by_t = sorted(marked)
    # keep the walk order, give the first two crossings one color and the last two the other
    recolored = [entry[:3] + (color,) for entry, color in zip(by_t, ["red", "red", "blue", "blue"])]
    with pytest.raises(GeometryError, match="do not alternate colors"):
        geometry._grade_point(z, n, recolored)


def test_one_perturbed_label_makes_the_disk_configurations_disagree(monkeypatch):
    # the two disks are opposite sectors, so each boundary crossing lies
    # on exactly one of them and one changed label splits their gradings
    calls = graded_calls(monkeypatch, closure_curve(2, "+"), GradedCurve.rational(-1, 4, -4, 4))
    for (z, n, marked), out in calls[:5]:
        assert geometry._grade_point(z, n, marked) == out
        for i in range(4):
            perturbed = list(marked)
            t, alex, delta, color = perturbed[i]
            perturbed[i] = (t, alex + 1, delta, color)
            with pytest.raises(GeometryError, match="disk configurations disagree"):
                geometry._grade_point(z, n, perturbed)


def test_a_dropped_boundary_crossing_is_rejected(monkeypatch):
    (z, n, marked), _ = graded_calls(monkeypatch, closure_curve(1, "-"), GradedCurve.rational(-1, 2, -2, 2))[0]
    for i in range(4):
        with pytest.raises(GeometryError, match="do not alternate colors"):
            geometry._grade_point(z, n, marked[:i] + marked[i + 1:])


def test_a_constant_row_sign_breaks_the_label_period(monkeypatch):
    monkeypatch.setattr(geometry, "_eps", lambda row: 1)
    with pytest.raises(GeometryError, match="grid labels are not periodic"):
        enumerate_geometric_pairing(closure_curve(1, "-"), GradedCurve.rational(-1, 2, -2, 2))


def test_a_decoration_the_line_does_not_lift_is_rejected():
    with pytest.raises(GeometryError, match="label span 4 does not match decoration span 8"):
        enumerate_geometric_pairing(closure_curve(1, "-"), GradedCurve.rational(-1, 2, -4, 4))


# -- calibration: the conventions are pinned, not fitted ----------------------


def disagreements(pairings):
    """Pairings whose geometric reduction fails or differs from the closed form."""
    bad = 0
    for sign, c, blue in pairings:
        try:
            unreduced = enumerate_geometric_pairing(closure_curve(c, sign), blue)
        except GeometryError:
            bad += 1
            continue
        bad += reduce_generator_pairs(unreduced).generators != pair_curve(sign, c, blue).generators
    return bad


class TestCalibration:
    """Each convention flipped alone, over the 102 rational pairings of the 3x3x3 grid."""

    def test_flipped_orientation_sign_disagrees_everywhere(self, monkeypatch):
        monkeypatch.setattr(geometry, "CW_SIGN", -geometry.CW_SIGN)
        assert disagreements(rational_pairings(3)) == 102

    def test_negated_delta_labels_disagree_everywhere(self, monkeypatch):
        delta_halves = geometry._delta_halves
        monkeypatch.setattr(geometry, "_delta_halves", lambda p, q: tuple(-h for h in delta_halves(p, q)))
        assert disagreements(rational_pairings(3)) == 102

    def test_the_row_sign_is_a_gauge_choice(self, monkeypatch):
        eps = geometry._eps
        monkeypatch.setattr(geometry, "_eps", lambda row: -eps(row))
        assert unreduced_digest(rational_pairings(6)) == CRITERION_6_DIGEST

    def test_a_constant_row_sign_disagrees_everywhere(self, monkeypatch):
        # the gauge test above would also pass if nothing read `_eps`; a
        # constant row sign must break the labels or the disk rule
        monkeypatch.setattr(geometry, "_eps", lambda row: 1)
        assert disagreements(rational_pairings(3)) == 102


# -- past the 6x6x6 grid: large Case III curves ---------------------------------


def case_iii_sample(seed=2024, size=40, max_points=1200):
    """Seeded Case III (a > b + 1) rational pairings with a, c up to 30.

    Pairings with more than max_points intersection points are redrawn, which
    keeps the test near a second; the geo-oracle benchmark covers larger ones.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        a = rng.randint(3, 30)
        b, c, sign = rng.randint(1, a - 2), rng.randint(1, 30), rng.choice("+-")
        blue = next(cv for cv in pretzel_tangle_curves(a, b) if cv.kind is CurveKind.RATIONAL)
        if 2 * det_pair_count(closure_curve(c, sign).slope, blue.slope) <= max_points:
            out.append((sign, c, blue))
    return out


def test_large_case_iii_pairings_match_the_closed_form():
    for sign, c, blue in case_iii_sample():
        red = closure_curve(c, sign)
        unreduced = enumerate_geometric_pairing(red, blue)
        assert unreduced.total_rank == 2 * det_pair_count(red.slope, blue.slope)
        assert reduce_generator_pairs(unreduced).generators == pair_curve(sign, c, blue).generators


# -- the fact the kernel relies on: every sector winds counterclockwise ----------


def cell_records(monkeypatch, pairings):
    """(z, n, red crossings, blue crossings) at every point of each distinct pairing;
    each crossing is (t, point, kind), its point rebuilt from the walk position t."""
    records = []
    unique = {(sign, c, blue.slope, blue.m, blue.M): blue for sign, c, blue in pairings}
    for (sign, c, *_), blue in unique.items():
        for (z, n, marked), _ in graded_calls(monkeypatch, closure_curve(c, sign), blue):
            x0, y0 = z[0] // n * n, z[1] // n * n
            crossings = {"red": [], "blue": []}
            for t, _, _, color in marked:
                edge, off = divmod(t, n)
                point = [(x0 + off, y0), (x0 + n, y0 + off), (x0 + n - off, y0 + n), (x0, y0 + n - off)][edge]
                crossings[color].append((t, point, "HV"[edge % 2]))
            records.append((z, n, crossings["red"], crossings["blue"]))
    return records


def sector_areas(z, n, red, blue):
    """Twice the shoelace area of each sector: from a crossing along the
    counterclockwise boundary walk to the next crossing, then back through z."""
    x0, y0 = z[0] // n * n, z[1] // n * n
    corners = [(x0, y0), (x0 + n, y0), (x0 + n, y0 + n), (x0, y0 + n)]
    walk = sorted(red + blue)
    areas = []
    for (t1, p1, _), (t2, p2, _) in zip(walk, walk[1:] + walk[:1]):
        passed = [corners[j % 4] for j in range(t1 // n + 1, t1 // n + 1 + (t2 // n - t1 // n) % 4)]
        polygon = [p1, *passed, p2, z]
        areas.append(sum(xa * yb - xb * ya for (xa, ya), (xb, yb) in zip(polygon, polygon[1:] + polygon[:1])))
    return areas


@pytest.mark.parametrize("pairings", [rational_pairings(6), case_iii_sample()], ids=["grid-6", "case-iii"])
def test_every_sector_has_positive_area(monkeypatch, pairings):
    # `_grade_point` picks the disks by the color of the crossing that leads a
    # sector; that is the disk's orientation only if no sector is clockwise
    records = cell_records(monkeypatch, pairings)
    assert len(records) > 1000
    for z, n, red, blue in records:
        areas = sector_areas(z, n, red, blue)
        assert len(areas) == 4 and sum(areas) == 2 * n * n  # the sectors tile the cell
        assert min(areas) > 0, (z, n, red, blue)
