"""Tests for the Fox-calculus Alexander polynomial oracle."""

import random
from collections import Counter
from dataclasses import replace
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pretzelhfk.alexander import (
    Crossing,
    DiagramError,
    PretzelDiagram,
    _band_transfer,
    _cross,
    _decode,
    _determinant,
    _digit_bits,
    _evaluate,
    _find,
    _strand_directions,
    _union,
    build_pretzel_diagram,
    fox_alexander,
    pretzel_determinant,
)
from pretzelhfk.algebra import (
    AlgebraError,
    LaurentPolynomial,
    euler_characteristic,
    normalize_alexander,
)
from pretzelhfk.curves import TangleParams
from pretzelhfk.hfk import compute_hfk

# odd twist counts, mixed signs; (p,q,r) is a knot iff at most one is even
odd = st.integers(min_value=-4, max_value=4).map(lambda k: 2 * k + 1)
even_nonzero = st.sampled_from([-6, -4, -2, 2, 4, 6])


def test_unsupported_inputs_are_rejected():
    with pytest.raises(DiagramError):
        build_pretzel_diagram(2, 4, 3)
    with pytest.raises(DiagramError):
        build_pretzel_diagram(2, -4, 6)
    with pytest.raises(DiagramError):
        build_pretzel_diagram(0, 3, 5)
    # all-odd triples are knots too, but this builder handles only the
    # exactly-one-even-band shape that the pretzel family here needs
    with pytest.raises(DiagramError):
        build_pretzel_diagram(1, 1, 1)


def test_trefoil():
    # P(2,-1,-1) is a trefoil
    poly = fox_alexander(build_pretzel_diagram(2, -1, -1))
    assert poly == -LaurentPolynomial({1: -1, 0: 1, -1: -1})


def test_known_pretzel_polynomial():
    poly = fox_alexander(build_pretzel_diagram(6, -3, 5))
    assert poly == LaurentPolynomial({3: 1, 2: -2, 0: 3, -2: -2, -3: 1})


def test_figure_eight_like_family():
    # P(2,-3,-3) has determinant |(-6) + 9 + (-6)| = 3
    poly = fox_alexander(build_pretzel_diagram(2, -3, -3))
    assert abs(poly.eval_at_unit(at_minus_one=True)) == 3


@given(even_nonzero, odd, odd)
@settings(max_examples=60, deadline=None)
def test_output_is_conway_normalized(p, q, r):
    poly = fox_alexander(build_pretzel_diagram(p, q, r))
    assert poly.eval_at_unit() == 1
    assert poly == poly.reciprocal()


@given(even_nonzero, odd, odd)
@settings(max_examples=60, deadline=None)
def test_determinant_law(p, q, r):
    poly = fox_alexander(build_pretzel_diagram(p, q, r))
    assert abs(poly.eval_at_unit(at_minus_one=True)) == pretzel_determinant(p, q, r)


@given(even_nonzero, odd, odd)
@settings(max_examples=30, deadline=None)
def test_band_order_is_irrelevant(p, q, r):
    base = fox_alexander(build_pretzel_diagram(p, q, r))
    assert fox_alexander(build_pretzel_diagram(q, r, p)) == base
    assert fox_alexander(build_pretzel_diagram(r, p, q)) == base


def test_pretzel_determinant_formula():
    assert pretzel_determinant(2, -3, 5) == 11
    assert pretzel_determinant(2, -5, 5) == 25
    assert pretzel_determinant(6, -3, 5) == 3


# -- the integer kernel: evaluation at t = 2^K and balanced digits -----------


def laurent(entry):
    """The LaurentPolynomial of a (lowest exponent, coefficient list) pair."""
    lo, cs = entry
    return LaurentPolynomial({lo + i: c for i, c in enumerate(cs)})


def coefficient_lists(coeff, max_size, min_size=1):
    """(lowest exponent, coefficients) pairs with both ends nonzero."""

    def build(lo, cs):
        cs[0], cs[-1] = cs[0] or 1, cs[-1] or 1
        return (lo, cs)

    return st.builds(build, st.integers(-5, 5), st.lists(coeff, min_size=min_size, max_size=max_size))


def plus(p, q):
    """p + q for LaurentPolynomials, coefficientwise."""
    out = dict(p.coeffs)
    for e, c in q.coeffs.items():
        out[e] = out.get(e, 0) + c
    return LaurentPolynomial(out)


def product(p, q):
    """p*q for LaurentPolynomials, term by term."""
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPolynomial(out)


ONE = LaurentPolynomial({0: 1})
ZERO = LaurentPolynomial.zero()


def laurent_determinant(rows, ncols):
    """Determinant over Z[t, 1/t], up to a unit, of sparse rows of nonzero
    LaurentPolynomials, through the oracle's integer kernel.

    Each column is multiplied by the power of t that makes its lowest exponent
    0, the matrix is evaluated at t = 2^K with K from the product over the
    columns of their summed L1 norms, and the integer determinant is decoded
    from its balanced base-2^K digits.
    """
    norm, low = Counter(), {}
    for row in rows:
        for col, e in row.items():
            norm[col] += sum(map(abs, e.coeffs.values()))
            low[col] = min(low.get(col, e.min_exp), e.min_exp)
    bits = _digit_bits(prod(norm.values()))
    ints = []
    for row in rows:
        ints.append({})
        for col, e in row.items():
            cs = [e[k] for k in range(e.min_exp, e.max_exp + 1)]
            ints[-1][col] = _evaluate(cs, bits) << bits * (e.min_exp - low[col])
    return _decode(_determinant(ints, ncols), bits)


@st.composite
def digits_and_bits(draw):
    """Coefficients up to +-(2^(K-1) - 1) and zero, with K a whole number of bytes."""
    bits = 8 * draw(st.integers(1, 9))
    top = 2 ** (bits - 1) - 1
    digit = st.one_of(st.integers(-top, top), st.sampled_from([-top, 0, top]))
    return draw(st.lists(digit, max_size=40)), bits


class TestEvaluation:
    @given(digits_and_bits())
    @settings(max_examples=100, deadline=None)
    @example(([], 8))
    @example(([0, 0, 0], 16))
    @example(([127, -127] * 5, 8))
    @example(([-(2**71 - 1)] * 30 + [2**71 - 1], 72))
    def test_decode_inverts_evaluate_up_to_half_a_digit(self, case):
        cs, bits = case
        assert _decode(_evaluate(cs, bits), bits) == LaurentPolynomial(dict(enumerate(cs)))

    def test_a_coefficient_equal_to_the_bound_decodes(self):
        # diag(200t, 300): the column bound 200 * 300 is the determinant's coefficient
        t200, c300 = LaurentPolynomial({1: 200}), LaurentPolynomial({0: 300})
        assert _digit_bits(60000) == 24
        assert equal_up_to_unit(laurent_determinant([{0: t200}, {1: c300}], 2), LaurentPolynomial({1: 60000}))
        assert _decode(60000, 16) != LaurentPolynomial({0: 60000})  # one byte short


# -- the determinant against a Laplace expansion ----------------------------


def laplace(mat):
    if not mat:
        return ONE
    total = LaurentPolynomial.zero()
    for j, entry in enumerate(mat[0]):
        if not entry.is_zero():
            minor = laplace([row[:j] + row[j + 1 :] for row in mat[1:]])
            term = product(entry, minor)
            total = plus(total, term if j % 2 == 0 else -term)
    return total


def equal_up_to_unit(p, q):
    """p = +-t^k q in Z[t, 1/t]."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    shifted = p.shift(q.min_exp - p.min_exp)
    return shifted == q or -shifted == q


small_entry = st.one_of(st.none(), st.none(), coefficient_lists(st.integers(-3, 3), 3))


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 5))
    mat = [[draw(small_entry) for _ in range(n)] for _ in range(n)]
    if not draw(st.booleans()):
        # few units: scale each unit entry by (1 + t) so a block is left to expand
        mat = [[(e[0], e[1] * 2) if e and len(e[1]) == 1 and abs(e[1][0]) == 1 else e
                for e in row] for row in mat]
    return mat


class TestDeterminant:
    @given(sparse_matrices())
    @settings(max_examples=300, deadline=None)
    @example([[None, (0, [2]), None], [(0, [2]), None, None], [None, None, (1, [2, 1])]])
    @example([[(0, [1, 1]), (0, [2])], [(0, [2]), (0, [1, -1])]])
    @example([[(0, [1]), None], [(0, [2]), None]])  # a zero column
    def test_equals_laplace_expansion_up_to_a_unit(self, mat):
        rows = [{j: laurent(e) for j, e in enumerate(row) if e is not None} for row in mat]
        expect = laplace([[laurent(e) if e else ZERO for e in row] for row in mat])
        assert equal_up_to_unit(laurent_determinant(rows, len(mat)), expect)

    def test_a_3x3_residual_block_is_expanded_by_cofactors(self):
        # no entry is a unit, so no pivot runs and the whole matrix is expanded
        mat = [[(0, [1, 1]), (0, [2]), (0, [1, -1])],
               [(0, [2]), (-1, [1, 1]), (0, [3])],
               [(0, [2, 1]), (1, [2]), (0, [1, 0, 1])]]
        got = laurent_determinant([{j: laurent(e) for j, e in enumerate(row)} for row in mat], 3)
        assert equal_up_to_unit(got, LaurentPolynomial({3: 1, 2: -11, 1: 8, 0: 9, -1: -1}))
        # the same block over the integers, at t = 1, where the determinant is 1 - 11 + 8 + 9 - 1
        at_one = [{j: sum(e[1]) for j, e in enumerate(row) if sum(e[1])} for row in mat]
        assert abs(_determinant(at_one, 3)) == 6

    def test_non_square_is_rejected(self):
        with pytest.raises(AlgebraError):
            _determinant([{0: 1}, {0: 2}], 1)
        with pytest.raises(AlgebraError):
            _determinant([{0: 1, 2: 1}, {1: 2}], 2)

    def test_zero_row_or_column_gives_zero(self):
        assert _determinant([{0: 1}, {0: 2}], 2) == 0
        assert _determinant([{0: 1, 1: 3}, {}], 2) == 0
        assert _determinant([], 0) == 1
        assert laurent_determinant([{0: ONE}, {0: LaurentPolynomial({0: 2})}], 2).is_zero()


# -- past the 6x6x6 grid: outputs only, never times -------------------------


@pytest.mark.parametrize(
    "a, b, c, sign",
    [
        (100, 20, 100, "+"),
        (100, 20, 100, "-"),
        (100, 99, 100, "-"),
        (20, 100, 20, "+"),
        (1, 499, 500, "+"),  # a + b + c at the CLI ceiling
        (333, 333, 334, "-"),
    ],
)
def test_large_knots_match_the_euler_characteristic(a, b, c, sign):
    params = TangleParams(a, b, c, sign)
    triple = params.pretzel_triple()
    oracle = fox_alexander(build_pretzel_diagram(*triple))
    assert oracle == normalize_alexander(euler_characteristic(compute_hfk(params)))
    assert abs(oracle.eval_at_unit(at_minus_one=True)) == pretzel_determinant(*triple)


# -- the band transfer -------------------------------------------------------


def crossing_matrix(e):
    """T_e = [[1 - t^e, t^e], [1, 0]] for one crossing, as Laurent polynomials."""
    t_e = LaurentPolynomial({e: 1})
    return [[plus(ONE, -t_e), t_e], [ONE, LaurentPolynomial.zero()]]


def matmul(x, y):
    return [[plus(product(x[i][0], y[0][j]), product(x[i][1], y[1][j])) for j in range(2)] for i in range(2)]


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=60))
@settings(max_examples=120, deadline=None)
@example([1])
@example([1, -1])
@example([-1, 1, -1])
@example([-1] * 60)
@example([1, -1] * 29 + [1])
def test_band_transfer_is_the_product_of_the_crossing_matrices(exponents):
    expect = [[ONE, LaurentPolynomial.zero()], [LaurentPolynomial.zero(), ONE]]
    for e in exponents:
        expect = matmul(crossing_matrix(e), expect)
    lo, s_next, s_n = _band_transfer(exponents)
    got = [[laurent((lo, s)), plus(ONE, -laurent((lo, s)))] for s in (s_next, s_n)]
    assert got == expect


def with_crossing(diagram, index, **changes):
    crossings = list(diagram.crossings)
    crossings[index] = replace(crossings[index], **changes)
    return replace(diagram, crossings=tuple(crossings))


def outcome(oracle, diagram):
    """The oracle's polynomial, or the message of the AlgebraError raised instead."""
    try:
        return oracle(diagram)
    except AlgebraError as exc:
        return f"AlgebraError: {exc}"


class TestBandPreconditions:
    """A diagram whose bands do not chain, or that lacks crossings, raises."""

    diagram = build_pretzel_diagram(6, -3, 5)

    @pytest.mark.parametrize("index", [1, 3, 5, 7])
    def test_a_broken_chain_is_rejected(self, index):
        c = self.diagram.crossings[index]
        for changes in ({"over": c.incoming, "incoming": c.over}, {"incoming": c.outgoing}):
            with pytest.raises(DiagramError, match="chain"):
                fox_alexander(with_crossing(self.diagram, index, **changes))

    @pytest.mark.parametrize("index", [2, 3, 5, 8, 10])
    def test_an_off_period_exponent_is_rejected(self, index):
        # the band transfer holds for any exponents, so a flipped one is not
        # rejected: the oracle gives what the full Wirtinger minor gives
        flipped = with_crossing(self.diagram, index, exponent=-self.diagram.crossings[index].exponent)
        assert outcome(fox_alexander, flipped) == outcome(wirtinger_alexander, flipped)

    def test_missing_crossings_are_rejected(self):
        with pytest.raises(DiagramError):
            fox_alexander(replace(self.diagram, crossings=self.diagram.crossings[:-1]))
        with pytest.raises(DiagramError):
            fox_alexander(replace(self.diagram, twists=(6, 0, 5), crossings=self.diagram.crossings[:-3]))


# -- reference: the determinant of the full Wirtinger minor -----------------


def fox_matrix(d):
    """Rows of Fox derivatives of the Wirtinger relators, abelianized at t.

    Relator x_o^e x_i x_o^-e x_j^-1 has derivatives (1 - t^e) at o, t^e at i
    and -1 at j (rows with e = -1 are scaled by the unit t, which is harmless).
    """
    rows = []
    for c in d.crossings:
        if c.exponent == 1:
            terms = ((c.over, 1, -1), (c.incoming, 0, 1), (c.outgoing, -1, 0))
        else:
            terms = ((c.over, -1, 1), (c.incoming, 1, 0), (c.outgoing, 0, -1))
        acc = {}
        for col, c0, c1 in terms:
            acc[col] = plus(acc.get(col, ZERO), LaurentPolynomial({0: c0, 1: c1}))
        rows.append({col: p for col, p in acc.items() if not p.is_zero()})
    return rows


def is_unit(p):
    return len(p.coeffs) == 1 and abs(p[p.min_exp]) == 1


def unit_pivot_determinant(rows):
    """Determinant over Z[t, 1/t], up to a unit, of square sparse rows of
    nonzero LaurentPolynomials: each unit entry +-t^k in turn clears its
    column from the other rows, and `laplace` expands what is left."""
    rows = [dict(row) for row in rows]
    while pick := next(((r, col) for r, row in enumerate(rows) for col, e in row.items() if is_unit(e)), None):
        r, col = pick
        pivot_row = rows.pop(r)
        pivot = pivot_row.pop(col)
        minus_inverse = LaurentPolynomial({-pivot.min_exp: -pivot[pivot.min_exp]})
        for row in rows:
            if col in row:
                factor = product(row.pop(col), minus_inverse)
                for c2, e2 in pivot_row.items():
                    row[c2] = plus(row.get(c2, ZERO), product(factor, e2))
                    if row[c2].is_zero():
                        del row[c2]
    cols = sorted(set().union(*rows))
    if len(cols) != len(rows):
        return ZERO
    return laplace([[row.get(c, ZERO) for c in cols] for row in rows])


def wirtinger_alexander(d):
    """Normalized determinant of the Wirtinger matrix minus its last row and column."""
    drop = d.arc_count - 1
    minor = [{c: v for c, v in row.items() if c != drop} for row in fox_matrix(d)[:-1]]
    return normalize_alexander(unit_pivot_determinant(minor))


def random_knots(seed, count, bound):
    """Seeded P(p, q, r) with exactly one even band; every third has a band of 1 or 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        twists = [rng.choice([-1, 1]) * rng.randint(1, bound) for _ in range(3)]
        if len(out) % 3 == 0:
            twists[rng.randrange(3)] = rng.choice([-2, -1, 1, 2])
        if sum(t % 2 == 0 for t in twists) == 1:
            out.append(tuple(twists))
    return out


class TestAgainstTheWirtingerMinor:
    def test_grid(self):
        for sign in ("+", "-"):
            for a in range(1, 7):
                for b in range(1, 7):
                    for c in range(1, 7):
                        d = build_pretzel_diagram(*TangleParams(a, b, c, sign).pretzel_triple())
                        assert fox_alexander(d) == wirtinger_alexander(d), (a, b, c, sign)

    def test_random_knots_with_short_bands(self):
        knots = random_knots(seed=2024, count=120, bound=41)
        magnitudes = {abs(t) for k in knots for t in k}
        assert {1, 2} <= magnitudes and max(magnitudes) > 30
        for k in knots:
            d = build_pretzel_diagram(*k)
            assert fox_alexander(d) == wirtinger_alexander(d), k

    @pytest.mark.parametrize(
        "a, b, c, sign", [(100, 20, 100, "+"), (100, 99, 100, "-"), (20, 100, 20, "+")]
    )
    def test_large_knots(self, a, b, c, sign):
        d = build_pretzel_diagram(*TangleParams(a, b, c, sign).pretzel_triple())
        assert fox_alexander(d) == wirtinger_alexander(d)


# -- reference: the diagram built crossing by crossing ----------------------


def reference_diagram(p, q, r):
    """P(p, q, r) built one crossing at a time, then merged by union-find.

    Each band gets fresh top arcs L and R and one fresh arc per crossing; the
    strands swap sides at each crossing, and each crossing's exponent is read
    off the directions of the two strands there.  The cyclic closure merges
    arcs by union-find over every arc, and arcs are numbered by the rank of
    their class representative.
    """
    twists = (p, q, r)
    if any(t == 0 for t in twists):
        raise DiagramError("zero twist bands are not supported")
    if sum(1 for t in twists if t % 2 == 0) != 1:
        raise DiagramError(f"P{twists} is a link, not a knot")
    directions = _strand_directions(twists)

    next_arc = 0

    def fresh():
        nonlocal next_arc
        next_arc += 1
        return next_arc - 1

    def diag(pos, going_down):
        if pos == "L":
            return (1, -1) if going_down else (-1, 1)
        return (-1, -1) if going_down else (1, 1)

    crossings, tops, bottoms = [], [], []
    for band, t in enumerate(twists):
        arc = {"L": fresh(), "R": fresh()}
        owner = {"L": "L", "R": "R"}  # which top side each position's strand entered at
        tops.append((arc["L"], arc["R"]))
        for _ in range(abs(t)):
            over_pos = "L" if t > 0 else "R"
            under_pos = "R" if t > 0 else "L"
            over_down = directions[(band, owner[over_pos])] == "down"
            under_down = directions[(band, owner[under_pos])] == "down"
            sign = 1 if _cross(diag(over_pos, over_down), diag(under_pos, under_down)) > 0 else -1
            exponent = sign if under_down else -sign
            new = fresh()
            crossings.append(
                Crossing(over=arc[over_pos], incoming=arc[under_pos], outgoing=new, exponent=exponent)
            )
            arc = {"L": arc["R"], "R": arc["L"]}
            owner = {"L": owner["R"], "R": owner["L"]}
            arc[over_pos] = new  # the under strand lands where the over strand left
        bottoms.append((arc["L"], arc["R"]))

    parent = {i: i for i in range(next_arc)}
    for k in range(3):
        _union(parent, tops[k][1], tops[(k + 1) % 3][0])
        _union(parent, bottoms[k][1], bottoms[(k + 1) % 3][0])
    reps = sorted({_find(parent, i) for i in range(next_arc)})
    index = {rep: i for i, rep in enumerate(reps)}
    merged = tuple(
        Crossing(
            over=index[_find(parent, c.over)],
            incoming=index[_find(parent, c.incoming)],
            outgoing=index[_find(parent, c.outgoing)],
            exponent=c.exponent,
        )
        for c in crossings
    )
    diagram = PretzelDiagram(twists=twists, crossings=merged, arc_count=len(reps))
    if diagram.arc_count != len(merged):
        raise DiagramError("arc/crossing count mismatch; diagram is not a knot diagram")
    return diagram


def built(build, twists):
    """The diagram, or the message of the DiagramError raised instead."""
    try:
        return build(*twists)
    except DiagramError as exc:
        return f"DiagramError: {exc}"


class TestBuilderAgainstTheReference:
    def test_grid(self):
        for sign in ("+", "-"):
            for a in range(1, 7):
                for b in range(1, 7):
                    for c in range(1, 7):
                        twists = TangleParams(a, b, c, sign).pretzel_triple()
                        assert build_pretzel_diagram(*twists) == reference_diagram(*twists), twists

    def test_random_knots_with_short_bands(self):
        knots = random_knots(seed=606, count=300, bound=45)
        magnitudes = {abs(t) for k in knots for t in k}
        assert {1, 2} <= magnitudes and max(magnitudes) > 40
        for k in knots:
            assert build_pretzel_diagram(*k) == reference_diagram(*k), k

    @pytest.mark.parametrize(
        "a, b, c, sign",
        [(100, 20, 100, "+"), (100, 20, 100, "-"), (100, 99, 100, "-"), (20, 100, 20, "+")],
    )
    def test_large_knots(self, a, b, c, sign):
        twists = TangleParams(a, b, c, sign).pretzel_triple()
        assert build_pretzel_diagram(*twists) == reference_diagram(*twists)

    def test_zero_bands_and_links_raise_the_same_error(self):
        rng = random.Random(607)
        inputs = [(0, 3, 5), (2, 0, 3), (0, 0, 0), (2, 4, 3), (2, -4, 6), (1, 1, 1), (-3, 5, 7)]
        while len(inputs) < 200:
            twists = tuple(rng.randint(-6, 6) for _ in range(3))
            if 0 in twists or sum(t % 2 == 0 for t in twists) != 1:
                inputs.append(twists)
        for twists in inputs:
            got = built(build_pretzel_diagram, twists)
            assert isinstance(got, str) and got == built(reference_diagram, twists), twists
