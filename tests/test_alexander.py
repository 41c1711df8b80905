"""Tests for the Fox-calculus Alexander polynomial oracle."""

import contextlib
import hashlib
import io
import random
from collections import Counter
from itertools import accumulate, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pretzelhfk import alexander
from pretzelhfk.alexander import (
    _FORMS,
    Crossing,
    DiagramError,
    PretzelDiagram,
    _band_transfer,
    _decode,
    _digit_bits,
    _evaluate,
    build_pretzel_diagram,
    fox_alexander,
    pretzel_determinant,
)
from pretzelhfk.algebra import AlgebraError, euler_characteristic, normalize_alexander
from pretzelhfk.cli import main
from pretzelhfk.curves import TangleParams
from pretzelhfk.hfk import compute_hfk

# odd twist counts, mixed signs; (p,q,r) is a knot iff at most one is even
odd = st.integers(min_value=-4, max_value=4).map(lambda k: 2 * k + 1)
even_nonzero = st.sampled_from([-6, -4, -2, 2, 4, 6])


def at_unit(alex, t):
    """Delta(t) = a_0 + sum a_i (t^i + t^-i) at t = 1 or t = -1."""
    return alex[0] + 2 * sum(t**i * a for i, a in enumerate(alex) if i)


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
    assert poly == (-1, 1)  # t - 1 + t^-1


def test_known_pretzel_polynomial():
    poly = fox_alexander(build_pretzel_diagram(6, -3, 5))
    assert poly == (3, 0, -2, 1)  # t^3 - 2t^2 + 3 - 2t^-2 + t^-3


def test_figure_eight_like_family():
    # P(2,-3,-3) has determinant |(-6) + 9 + (-6)| = 3
    poly = fox_alexander(build_pretzel_diagram(2, -3, -3))
    assert abs(at_unit(poly, -1)) == 3


@given(even_nonzero, odd, odd)
@settings(max_examples=60, deadline=None)
def test_output_is_conway_normalized(p, q, r):
    poly = fox_alexander(build_pretzel_diagram(p, q, r))
    assert isinstance(poly, tuple) and poly[-1] != 0
    assert at_unit(poly, 1) == 1


@given(even_nonzero, odd, odd)
@settings(max_examples=60, deadline=None)
def test_determinant_law(p, q, r):
    poly = fox_alexander(build_pretzel_diagram(p, q, r))
    assert abs(at_unit(poly, -1)) == pretzel_determinant(p, q, r)


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


# -- the Laurent reference: {exponent: coefficient} dicts, Laplace expansion --


def laurent(entry):
    """The Laurent polynomial of a (lowest exponent, coefficient list) pair."""
    lo, cs = entry
    return {lo + i: c for i, c in enumerate(cs) if c}


def plus(p, q):
    """p + q, coefficientwise."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def negated(p):
    return {e: -c for e, c in p.items()}


def product(p, q):
    """p*q, term by term."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def coefficients(p):
    """p's coefficients from its lowest to its highest power of t."""
    return [p.get(e, 0) for e in range(min(p), max(p) + 1)] if p else []


ONE = {0: 1}
ZERO = {}


class Laurent(dict):
    """A Laurent polynomial with +, - and *, so that alexander's forms run on it."""

    def __add__(self, other):
        return Laurent(plus(self, other))

    def __sub__(self, other):
        return Laurent(plus(self, negated(other)))

    def __mul__(self, other):
        return Laurent(product(self, other))


def laplace(mat):
    """Determinant over Z[t, 1/t] of square dense rows of Laurent polynomials
    (ZERO where empty), expanded along the first row; ONE if empty."""
    if not mat:
        return ONE
    total = ZERO
    for j, entry in enumerate(mat[0]):
        if entry:
            minor = laplace([row[:j] + row[j + 1 :] for row in mat[1:]])
            term = product(entry, minor)
            total = plus(total, term if j % 2 == 0 else negated(term))
    return total


def equal_up_to_unit(p, q):
    """p = +-t^k q in Z[t, 1/t]."""
    if not p or not q:
        return not p and not q
    shifted = {e + min(q) - min(p): c for e, c in p.items()}
    return shifted == q or negated(shifted) == q


# -- the integer kernel: evaluation at t = 2^K and balanced digits -----------


def trimmed(cs):
    """cs without the zeros at both ends; [0] if nothing else is left."""
    support = [i for i, c in enumerate(cs) if c]
    return cs[support[0] : support[-1] + 1] if support else [0]


ALLOWED_BITS = (32, 64, 96, 128, 192)  # one to six 32-bit struct words per digit


@st.composite
def digits_and_bits(draw):
    """Coefficients up to +-(2^(K-1) - 1) and zero, with K a digit width that `_digit_bits` returns."""
    bits = draw(st.sampled_from(ALLOWED_BITS))
    top = 2 ** (bits - 1) - 1
    digit = st.one_of(st.integers(-top, top), st.sampled_from([-top, 0, top]))
    return draw(st.lists(digit, max_size=40)), bits


class TestEvaluation:
    @given(digits_and_bits())
    @settings(max_examples=100, deadline=None)
    @example(([], 32))
    @example(([0, 0, 0], 32))
    @example(([2**31 - 1, -(2**31 - 1)] * 5, 32))
    @example(([-(2**127 - 1)] * 30 + [2**127 - 1], 128))
    @example(([2**127 - 1, -(2**127 - 1), 1, -1], 128))
    @example(([-1] + [0] * 5 + [2**191 - 1], 192))
    def test_decode_inverts_evaluate_up_to_half_a_digit(self, case):
        cs, bits = case
        assert _decode(_evaluate(cs, bits), bits) == trimmed(cs)

    @given(digits_and_bits())
    @settings(max_examples=100, deadline=None)
    @example(([-1, 1], 32))
    @example(([2**63 - 1, -(2**64 - 1) // 2, 2**64 // 3], 128))
    def test_evaluate_is_the_integer_at_two_to_the_k(self, case):
        # an integer reference: a slip in byte or word order changes the value
        cs, bits = case
        assert _evaluate(cs, bits) == sum(c << bits * i for i, c in enumerate(cs))

    @pytest.mark.parametrize("bits", ALLOWED_BITS)
    def test_the_extreme_digits_of_each_width_round_trip(self, bits):
        # digits +-(X/2 - 1) set or clear every bit of every word of a digit
        top = (1 << (bits - 1)) - 1
        cs = [top, -top, -top, top, 1, -1]
        value = _evaluate(cs, bits)
        assert value == sum(c << bits * i for i, c in enumerate(cs))
        assert _decode(value, bits) == cs
        assert _decode(value << bits * 3, bits) == cs  # three zero digits below are stripped

    def test_digit_bits_is_the_smallest_allowed_width(self):
        allowed = [32 * m for m in range(1, 15)]
        bounds = {0, 1, 60000} | {2**e + d for e in range(1, 400) for d in (-1, 0, 1)}
        for bound in sorted(bounds):
            need = bound.bit_length() + 2
            assert _digit_bits(bound) == min(k for k in allowed if k >= need), bound
        # 2^30 - 1 is the largest bound of one 32-bit word: K must reach bit_length + 2
        assert [_digit_bits(b) for b in (2**29, 2**30 - 1, 2**30, 2**31 - 1, 2**31)] == [32, 32, 64, 64, 64]

    def test_a_coefficient_equal_to_the_bound_decodes(self):
        # a coefficient as large as its bound 3 * 2^30, beside a -1 that borrows from it
        assert _digit_bits(3 << 30) == 64  # 32 bits, 2 more than 3 * 2^30 has: two words
        assert _decode(_evaluate([3 << 30, -1], 64), 64) == [3 << 30, -1]
        assert _decode(3 << 30, 32) != [3 << 30]  # one word short


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
    assert abs(at_unit(oracle, -1)) == pretzel_determinant(*triple)


# -- the band transfer -------------------------------------------------------


def band_sums(exponents):
    """(lo, S_{n+1}, S_n): `_band_transfer`'s lo and S_n, and S_{n+1} by the rule
    that fox_alexander applies, S_n + (-1)^n t^(e_0 + ... + e_{n-1})."""
    lo, s_n = _band_transfer(exponents)
    s_next = s_n[:]
    s_next[sum(exponents) - lo] += -1 if len(exponents) % 2 else 1
    return lo, s_next, s_n


def crossing_matrix(e):
    """T_e = [[1 - t^e, t^e], [1, 0]] for one crossing, as Laurent polynomials."""
    t_e = {e: 1}
    return [[plus(ONE, negated(t_e)), t_e], [ONE, ZERO]]


def matmul(x, y):
    return [[plus(product(x[i][0], y[0][j]), product(x[i][1], y[1][j])) for j in range(2)] for i in range(2)]


@given(st.lists(st.sampled_from([1, -1]), min_size=0, max_size=60))
@settings(max_examples=120, deadline=None)
@example([])
@example([1])
@example([1, -1])
@example([-1, 1, -1])
@example([-1] * 60)
@example([1, -1] * 29 + [1])
def test_band_transfer_is_the_product_of_the_crossing_matrices(exponents):
    expect = [[ONE, ZERO], [ZERO, ONE]]
    for e in exponents:
        expect = matmul(crossing_matrix(e), expect)
    lo, s_next, s_n = band_sums(exponents)
    got = [[laurent((lo, s)), plus(ONE, negated(laurent((lo, s))))] for s in (s_next, s_n)]
    assert got == expect


class TestCrossingRecords:
    def test_every_built_crossing_is_a_crossing(self):
        for twists in [(6, -3, 5), (2, -1, -1), (-1, 4, 1), (200, -41, 201)]:
            assert all(type(c) is Crossing for c in build_pretzel_diagram(*twists).crossings), twists

    def test_a_crossing_equals_its_plain_tuple(self):
        c, same = Crossing(1, 2, 3, 1), (1, 2, 3, 1)
        assert c == same and same == c and not c != same and not same != c
        assert c != (1, 2, 3, -1) and c != [1, 2, 3, 1] and hash(c) == hash(same)
        assert repr(c) == "Crossing(over=1, incoming=2, outgoing=3, exponent=1)"
        assert c == Crossing(1, 2, 3, 1) and not c != Crossing(1, 2, 3, 1)
        assert c != Crossing(1, 2, 3, -1) and not c == Crossing(1, 2, 3, -1)
        assert hash(c) == hash(Crossing(1, 2, 3, 1)) and len({c, Crossing(1, 2, 3, 1)}) == 1

    def test_replace_returns_a_crossing(self):
        c = build_pretzel_diagram(6, -3, 5).crossings[4]
        replaced = c._replace(exponent=7)
        assert type(replaced) is Crossing and replaced == Crossing(c.over, c.incoming, c.outgoing, 7)


def with_crossing(diagram, index, **changes):
    crossings = list(diagram.crossings)
    crossings[index] = crossings[index]._replace(**changes)
    return diagram._replace(crossings=tuple(crossings))


def outcome(oracle, diagram):
    """The oracle's polynomial, or the message of the AlgebraError raised instead."""
    try:
        return oracle(diagram)
    except AlgebraError as exc:
        return f"AlgebraError: {exc}"


def chain_breaks(diagram, index):
    """Changes to crossing `index` that break its band's chain: its over and
    incoming arcs swapped, and a wrong arc on each side where it meets a
    neighbour in its band."""
    starts = list(accumulate(map(abs, diagram.twists), initial=0))
    c = diagram.crossings[index]
    changes = [{"over": c.incoming, "incoming": c.over}]
    if index not in starts:
        changes.append({"incoming": c.outgoing})
    if index + 1 not in starts:
        changes.append({"outgoing": c.incoming})
    return changes


def relabelled(diagram, old, new):
    """The diagram with arc `old` renamed `new` in every crossing."""
    crossings = [Crossing(*(new if arc == old else arc for arc in c[:3]), c.exponent) for c in diagram.crossings]
    return diagram._replace(crossings=tuple(crossings))


def closure_arcs(diagram):
    """The arcs at the band ends, which the closure glues."""
    return {arc for overs, incomings, outgoings, _ in bands(diagram)
            for arc in (overs[0], overs[-1], incomings[0], outgoings[-1])}


class TestBandPreconditions:
    """A diagram whose bands do not chain, or that lacks crossings, raises."""

    diagram = build_pretzel_diagram(6, -3, 5)

    # P(6, -3, 5) by crossing index: its bands of 6, 3 and 5 crossings begin or
    # end at 0, 5, 6, 8, 9 and 13; P(2, -1, -1) has nothing to chain in its unit bands
    @pytest.mark.parametrize(
        "twists, index",
        [pytest.param((6, -3, 5), i, id=str(i)) for i in (0, 1, 3, 5, 6, 7, 8, 9, 13)]
        + [pytest.param((2, -1, -1), i, id=f"P(2,-1,-1)-{i}") for i in (0, 1)],
    )
    def test_a_broken_chain_is_rejected(self, twists, index):
        diagram = build_pretzel_diagram(*twists)
        for changes in chain_breaks(diagram, index):
            with pytest.raises(DiagramError, match="chain"):
                fox_alexander(with_crossing(diagram, index, **changes))

    @pytest.mark.parametrize("index", [2, 3, 5, 8, 10])
    def test_an_off_period_exponent_is_rejected(self, index):
        # the name is kept from when a flipped exponent raised; the band
        # transfer holds for any exponents, so a flipped one is not rejected:
        # the oracle gives what the full Wirtinger minor gives
        flipped = with_crossing(self.diagram, index, exponent=-self.diagram.crossings[index].exponent)
        assert outcome(fox_alexander, flipped) == outcome(wirtinger_alexander, flipped)

    # P(6, -3, 5) has 14 arcs and P(2, -1, -1) 4; each band end is moved to a
    # fresh arc and to every other arc, one at a time
    @pytest.mark.parametrize("twists", [(6, -3, 5), (2, -1, -1)], ids=str)
    def test_a_band_end_glued_elsewhere_is_rejected(self, twists):
        diagram = build_pretzel_diagram(*twists)
        starts = list(accumulate(map(abs, twists), initial=0))
        cases = 0
        for first, end in zip(starts, starts[1:]):
            for index, field in ((first, "incoming"), (end - 1, "outgoing")):
                label = getattr(diagram.crossings[index], field)
                for other in range(len(diagram.crossings) + 1):
                    if other != label:
                        cases += 1
                        with pytest.raises(DiagramError):
                            fox_alexander(with_crossing(diagram, index, **{field: other}))
        assert cases == 6 * len(diagram.crossings)

    def test_an_interior_arc_merged_with_another_arc_is_rejected(self):
        # chains, band ends and gluing are untouched, so only the count of
        # distinct arc labels (13 for 14 crossings) can tell
        interior = set(range(len(self.diagram.crossings))) - closure_arcs(self.diagram)
        assert len(interior) == 8 and self.diagram.crossings[0].outgoing in interior  # y_2 of the first band
        for arc in interior:
            for other in set(range(len(self.diagram.crossings))) - {arc}:
                with pytest.raises(DiagramError, match="13 arcs for 14 crossings"):
                    fox_alexander(relabelled(self.diagram, arc, other))

    def test_two_closure_arcs_merged_are_rejected_by_the_arc_relation_count(self):
        ends = closure_arcs(self.diagram)
        assert ends == {0, 5, 6, 8, 9, 13}
        for arc, other in permutations(ends, 2):
            with pytest.raises(DiagramError, match="arc/relation count mismatch"):
                fox_alexander(relabelled(self.diagram, arc, other))

    def test_missing_crossings_are_rejected(self):
        with pytest.raises(DiagramError):
            fox_alexander(self.diagram._replace(crossings=self.diagram.crossings[:-1]))
        with pytest.raises(DiagramError):
            fox_alexander(self.diagram._replace(twists=(6, 0, 5), crossings=self.diagram.crossings[:-3]))


# -- reference: the band minor that each form was expanded from -------------


def bands(d):
    """Each band's crossings as field tuples: overs, incomings, outgoings, exponents."""
    for twist, end in zip(d.twists, accumulate(map(abs, d.twists))):
        yield tuple(zip(*d.crossings[end - abs(twist) : end]))


def band_minor(d):
    """The band minor as dense rows of Laurent polynomials.

    Each band's bottom arcs give relations bottom = S y_1 + (1 - S) y_0 (one
    for a single crossing); the last band's last relation and the first band's
    incoming top arc are deleted.
    """
    relations = []
    for overs, incomings, outgoings, exponents in bands(d):
        lo, s_next, s_n = band_sums(exponents)
        if len(overs) > 1:
            relations.append((overs[-1], overs[0], incomings[0], laurent((lo, s_n))))
        relations.append((outgoings[-1], overs[0], incomings[0], laurent((lo, s_next))))
    arcs = sorted({arc for relation in relations for arc in relation[:3]})
    assert len(arcs) == len(relations)
    rows = []
    for bottom, y1, y0, s in relations[:-1]:
        row = dict.fromkeys(arcs, ZERO)  # arcs may coincide
        row[bottom] = plus(row[bottom], negated(ONE))
        row[y1] = plus(row[y1], s)
        row[y0] = plus(row[y0], plus(ONE, negated(s)))
        rows.append([row[arc] for arc in arcs if arc != d.crossings[0].incoming])
    return rows


def band_minor_determinant(d):
    """The band minor, expanded by `laplace`."""
    return laplace(band_minor(d))


def form_value(d):
    """alexander's form for d's sign class, run on Laurent polynomials: each
    band gives t^-lo, t^-lo S_n and t^-lo S_{n+1}."""
    values = []
    for _, _, _, exponents in bands(d):
        lo, s_next, s_n = band_sums(exponents)
        values += (Laurent({-lo: 1}), Laurent(laurent((0, s_n))), Laurent(laurent((0, s_next))))
    return _FORMS[tuple(t > 0 for t in d.twists)](*values)


SIGN_CLASSES = [(p, q, r) for p in (1, -1) for q in (1, -1) for r in (1, -1)]


def sign_class_id(signs):
    return "".join("+" if s > 0 else "-" for s in signs)


def with_exponents_flipped(diagram, indices):
    crossings = [c._replace(exponent=-c.exponent) if i in indices else c for i, c in enumerate(diagram.crossings)]
    return diagram._replace(crossings=tuple(crossings))


@pytest.mark.parametrize("signs", SIGN_CLASSES, ids=sign_class_id)
def test_each_form_is_its_band_minor_up_to_a_unit(signs):
    # every band order and every choice of single-crossing odd bands, with the
    # pretzel exponents and with random ones
    rng = random.Random(31)
    for even in range(3):
        for units in [u for u in range(8) if not u >> even & 1]:  # bit k: band k has one crossing
            sizes = [4 if k == even else 1 if units >> k & 1 else 3 + 2 * k for k in range(3)]
            diagram = build_pretzel_diagram(*(s * n for s, n in zip(signs, sizes)))
            flips = {i for i in range(len(diagram.crossings)) if rng.random() < 0.5}
            for d in (diagram, with_exponents_flipped(diagram, flips)):
                assert equal_up_to_unit(form_value(d), band_minor_determinant(d)), (d.twists, flips)


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
            acc[col] = plus(acc.get(col, ZERO), laurent((0, [c0, c1])))
        rows.append({col: p for col, p in acc.items() if p})
    return rows


def is_unit(p):
    return len(p) == 1 and abs(*p.values()) == 1


def unit_pivot_determinant(rows):
    """Determinant over Z[t, 1/t], up to a unit, of square sparse rows of
    nonzero Laurent polynomials: each unit entry +-t^k in turn clears its
    column from the other rows, and `laplace` expands what is left."""
    rows = [dict(row) for row in rows]
    while pick := next(((r, col) for r, row in enumerate(rows) for col, e in row.items() if is_unit(e)), None):
        r, col = pick
        pivot_row = rows.pop(r)
        pivot = pivot_row.pop(col)
        ((e, c),) = pivot.items()
        minus_inverse = {-e: -c}
        for row in rows:
            if col in row:
                factor = product(row.pop(col), minus_inverse)
                for c2, e2 in pivot_row.items():
                    row[c2] = plus(row.get(c2, ZERO), product(factor, e2))
                    if not row[c2]:
                        del row[c2]
    cols = sorted(set().union(*rows))
    if len(cols) != len(rows):
        return ZERO
    return laplace([[row.get(c, ZERO) for c in cols] for row in rows])


def wirtinger_alexander(d):
    """Normalized determinant of the Wirtinger matrix minus its last row and column."""
    drop = len(d.crossings) - 1
    minor = [{c: v for c, v in row.items() if c != drop} for row in fox_matrix(d)[:-1]]
    return normalize_alexander(coefficients(unit_pivot_determinant(minor)))


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


@st.composite
def flipped_diagrams(draw, signs):
    """A diagram of the sign class, bands of 1 to 7 crossings, with random exponents flipped."""
    even = draw(st.integers(0, 2))
    sizes = [draw(st.sampled_from([2, 4, 6] if k == even else [1, 3, 5, 7])) for k in range(3)]
    diagram = build_pretzel_diagram(*(s * n for s, n in zip(signs, sizes)))
    return with_exponents_flipped(diagram, draw(st.sets(st.integers(0, len(diagram.crossings) - 1))))


@pytest.mark.parametrize("signs", SIGN_CLASSES, ids=sign_class_id)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_any_exponents_agree_with_the_wirtinger_minor(signs, data):
    d = data.draw(flipped_diagrams(signs))
    assert outcome(fox_alexander, d) == outcome(wirtinger_alexander, d)


def pinned_knots():
    """The grid, the seeded short-band knots and six large knots up to the CLI ceiling."""
    grid = [TangleParams(a, b, c, sign).pretzel_triple()
            for sign in "+-" for a in range(1, 7) for b in range(1, 7) for c in range(1, 7)]
    large = [TangleParams(*k).pretzel_triple() for k in [
        (100, 20, 100, "+"), (100, 20, 100, "-"), (100, 99, 100, "-"),
        (20, 100, 20, "+"), (1, 499, 500, "+"), (333, 333, 334, "-")]]
    return grid + random_knots(seed=606, count=300, bound=45) + large


def test_the_digit_width_never_lets_a_coefficient_wrap(monkeypatch):
    # the form fox_alexander decodes at 2^K has the coefficients of the same
    # form run on the tests' Laurent polynomials
    decode, calls = alexander._decode, []
    monkeypatch.setattr(alexander, "_decode", lambda value, bits: calls.append((value, bits)) or decode(value, bits))
    knots = pinned_knots()
    for twists in knots:
        calls.clear()
        diagram = build_pretzel_diagram(*twists)
        fox_alexander(diagram)
        ((value, bits),) = calls
        assert decode(value, bits) == coefficients(form_value(diagram)), twists
    assert len(knots) == 738


def test_the_digit_bound_holds_before_byte_rounding(monkeypatch):
    # K is rounded up to whole 32-bit words, so a bound below the form's L1 norm could
    # still decode correctly; the bound itself must cover the norm
    digit_bits, bounds = alexander._digit_bits, []
    monkeypatch.setattr(alexander, "_digit_bits", lambda bound: bounds.append(bound) or digit_bits(bound))
    knots = pinned_knots()
    for twists in knots:
        bounds.clear()
        diagram = build_pretzel_diagram(*twists)
        fox_alexander(diagram)
        (bound,) = bounds
        assert bound >= sum(map(abs, form_value(diagram).values())), twists
    assert len(knots) == 738


def test_every_expanded_minor_is_square_and_at_most_5x5():
    # the band minor each sign class's form was expanded from; a single-crossing
    # band gives one relation, so one row and one column fewer
    knots = pinned_knots()
    sizes = Counter()
    for twists in knots:
        rows = band_minor(build_pretzel_diagram(*twists))
        assert len(rows) <= 5 and all(len(row) == len(rows) for row in rows), twists
        sizes[len(rows)] += 1
    assert sizes == {5: 657, 4: 78, 3: 3}


def test_alex_output_bytes_are_pinned():
    # `alex` on the pinned knots; the digest was taken when the oracle
    # returned a Laurent polynomial object and `alex` printed its repr
    knots = pinned_knots()
    assert len(knots) == 738
    digest = hashlib.sha256()
    for p, q, r in knots:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["alex", "--p", str(p), "--q", str(q), "--r", str(r)])
        digest.update(f"{code}\n{buf.getvalue()}".encode())
    assert digest.hexdigest() == "b1a6c33ac6c236fb618eb8c42ead4b7c522b1340fb460c85b86ad76e14765c7f"


# -- reference: the diagram built crossing by crossing ----------------------


def _union(parent, x, y):
    parent[_find(parent, x)] = _find(parent, y)


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _strand_directions(twists):
    """Trace the closed-up diagram once and orient every band strand.

    Returns dir[(band, top_side_entered)] in {"down", "up"}; raises if the
    trace closes up before visiting all six strands (link case).
    """
    seen = {}
    band, side, at_top = 0, "L", True
    for _ in range(12):
        n = abs(twists[band])
        other_end_side = side if n % 2 == 0 else ("R" if side == "L" else "L")
        top_side = side if at_top else other_end_side
        if (band, top_side) in seen:
            break
        seen[(band, top_side)] = "down" if at_top else "up"
        exit_side = other_end_side if at_top else top_side
        # closure arcs: (k, R) joins (k+1, L); (k, L) joins (k-1, R)
        if exit_side == "R":
            band, side = (band + 1) % 3, "L"
        else:
            band, side = (band - 1) % 3, "R"
        at_top = not at_top
    if len(seen) != 6:
        raise DiagramError(f"P{twists} is a link, not a knot")
    return seen


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


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
    evens = sum(1 for t in twists if t % 2 == 0)
    if evens > 1:
        raise DiagramError(f"P{twists} is a link, not a knot")
    if evens == 0:
        raise DiagramError(f"P{twists} has no even band: the oracle covers only knots with exactly one even band")
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
    if len(reps) != len(merged):
        raise DiagramError("arc/crossing count mismatch; diagram is not a knot diagram")
    return PretzelDiagram(twists=twists, crossings=merged)


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

    def test_every_even_band_position_sign_and_unit_band(self):
        # the grid puts the even band first: here each of the three positions is
        # even, with every sign and unit bands, so each `_EXPONENTS` entry is read
        values = (1, -1, 2, -2, 3, -3, 4, -4)
        knots = [(p, q, r) for p in values for q in values for r in values]
        knots = [t for t in knots if sum(x % 2 == 0 for x in t) == 1]
        assert len(knots) == 192
        for twists in knots:
            assert build_pretzel_diagram(*twists) == reference_diagram(*twists), twists

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
