"""Tests for the Fox-calculus Alexander polynomial oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pretzelhfk.alexander import (
    DiagramError,
    _determinant,
    _divexact,
    _mul,
    _to_laurent,
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
    assert poly == LaurentPolynomial({1: -1, 0: 1, -1: -1}) * -1


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


# -- the dense kernel: (lowest exponent, coefficients), both ends nonzero ----


def dense(coeff, max_size, min_size=1):
    """Trimmed dense polynomials: zero ends are replaced by 1."""

    def build(lo, cs):
        cs[0], cs[-1] = cs[0] or 1, cs[-1] or 1
        return (lo, cs)

    return st.builds(build, st.integers(-5, 5), st.lists(coeff, min_size=min_size, max_size=max_size))


big = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
long_dense = dense(big, 60)


def schoolbook(a, b):
    out = {}
    for i, x in enumerate(a[1]):
        for j, y in enumerate(b[1]):
            out[a[0] + b[0] + i + j] = out.get(a[0] + b[0] + i + j, 0) + x * y
    return LaurentPolynomial(out)


class TestDenseKernel:
    @given(long_dense, long_dense)
    @settings(max_examples=150, deadline=None)
    @example((0, [2**70 - 1] * 60), (0, [-(2**70) + 1] * 60))
    @example((-3, [-1, 0, 0, 5]), (2, [3]))
    def test_kronecker_product_is_the_schoolbook_product(self, a, b):
        prod = _mul(a, b)
        assert _to_laurent(prod) == schoolbook(a, b)
        assert prod[1][0] and prod[1][-1]

    @given(long_dense, long_dense)
    @settings(max_examples=100, deadline=None)
    def test_division_undoes_multiplication(self, a, b):
        assert _divexact(_mul(a, b), b) == a

    @given(dense(big, 20, min_size=2), dense(big, 20, min_size=2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_remainder_in_the_middle_is_rejected(self, a, b, data):
        # a non-monomial b divides no monomial, so a*b + k t^i is not a multiple of b
        lo, cs = _mul(a, b)
        i = data.draw(st.integers(1, len(cs) - 2))
        cs[i] += data.draw(st.sampled_from([-1, 1, 2**70]))
        with pytest.raises(AlgebraError):
            _divexact((lo, cs), b)

    @given(dense(big, 10), st.data())
    @settings(max_examples=50, deadline=None)
    def test_numerator_of_too_low_degree_is_rejected(self, a, data):
        den = data.draw(dense(big, 20, min_size=len(a[1]) + 1))
        with pytest.raises(AlgebraError):
            _divexact(a, den)

    def test_zero_is_none(self):
        assert _mul(None, (0, [1])) is None
        assert _divexact(None, (0, [1, 1])) is None
        assert _to_laurent(None).is_zero()


# -- the determinant against a Laplace expansion ----------------------------


def laplace(mat):
    if not mat:
        return LaurentPolynomial.one()
    total = LaurentPolynomial.zero()
    for j, entry in enumerate(mat[0]):
        if not entry.is_zero():
            minor = laplace([row[:j] + row[j + 1 :] for row in mat[1:]])
            term = entry * minor
            total = total + (term if j % 2 == 0 else -term)
    return total


def equal_up_to_unit(p, q):
    """p = +-t^k q in Z[t, 1/t]."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    shifted = p.shift(q.min_exp - p.min_exp)
    return shifted == q or -shifted == q


small_entry = st.one_of(st.none(), st.none(), dense(st.integers(-3, 3), 3))


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 5))
    mat = [[draw(small_entry) for _ in range(n)] for _ in range(n)]
    if not draw(st.booleans()):
        # few units: scale each unit entry by (1 + t) so phase 2 gets a block
        mat = [[_mul(e, (0, [1, 1])) if e and len(e[1]) == 1 and abs(e[1][0]) == 1 else e
                for e in row] for row in mat]
    for j in range(n):  # a column without entries would read as a missing column
        if all(row[j] is None for row in mat):
            mat[draw(st.integers(0, n - 1))][j] = draw(dense(st.integers(-3, 3), 3))
    return mat


class TestDeterminant:
    @given(sparse_matrices())
    @settings(max_examples=300, deadline=None)
    @example([[None, (0, [2]), None], [(0, [2]), None, None], [None, None, (1, [2, 1])]])
    @example([[(0, [1, 1]), (0, [2])], [(0, [2]), (0, [1, -1])]])
    def test_equals_laplace_expansion_up_to_a_unit(self, mat):
        rows = [{j: e for j, e in enumerate(row) if e is not None} for row in mat]
        expect = laplace([[_to_laurent(e) for e in row] for row in mat])
        assert equal_up_to_unit(_to_laurent(_determinant(rows)), expect)

    def test_non_square_is_rejected(self):
        with pytest.raises(AlgebraError):
            _determinant([{0: (0, [1])}, {0: (0, [2])}])


# -- past the 6x6x6 grid: outputs only, never times -------------------------


@pytest.mark.parametrize(
    "a, b, c, sign",
    [(100, 20, 100, "+"), (100, 20, 100, "-"), (100, 99, 100, "-"), (20, 100, 20, "+")],
)
def test_large_knots_match_the_euler_characteristic(a, b, c, sign):
    params = TangleParams(a, b, c, sign)
    triple = params.pretzel_triple()
    oracle = fox_alexander(build_pretzel_diagram(*triple))
    assert oracle == normalize_alexander(euler_characteristic(compute_hfk(params)))
    assert abs(oracle.eval_at_unit(at_minus_one=True)) == pretzel_determinant(*triple)
