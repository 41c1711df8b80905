"""Independent Alexander-polynomial oracle via Wirtinger presentations and Fox calculus.

The pretzel diagram (three vertical twist bands, closed cyclically at top
and bottom) is written band by band in closed form, each crossing once; the
Alexander polynomial is a minor of its Fox-derivative matrix over Z[t, 1/t].

That matrix is never built in full.  Inside a band the crossings chain:
crossing j takes its over-arc y_{j+1} and its incoming arc y_j and emits
y_{j+2} = (1 - t^e) y_{j+1} + t^e y_j, the abelianized Fox row of its
relation (Fox, Free differential calculus I, 1953).  So (y_{j+2}, y_{j+1}) =
T_e (y_{j+1}, y_j) with T_e = [[1 - t^e, t^e], [1, 0]], and a band of n
crossings maps its top arcs to its bottom arcs by the product of n such
matrices.  The exponents of a band have period at most 2, so that product is
a power M^m of one period matrix (times one more T_e on the left for an odd
antiparallel band).  M has eigenvalue 1: trace M = 1 + delta with
delta = det M a unit monomial, and Cayley-Hamilton gives
M^m = s_m M - delta s_{m-1} I with s_m = 1 + delta + ... + delta^(m-1).
Each band thus contributes the relations of its two bottom arcs (one for a
single crossing).  Eliminating the interior arcs this way is unimodular, so
after one relation and one arc column are deleted the minor, at most 5x5, is
the Alexander polynomial up to a unit.

The determinant runs on a private dense form: a polynomial is a pair
(lowest exponent, list of int coefficients), trimmed so that both ends are
nonzero, and None is zero.  Unit-pivot elimination updates a row entry
a - f*b with one shifted slice update per coefficient of the shorter of
f and b.  It leaves a residual block of at most 2x2 for a pretzel diagram
(3x3 for the full Wirtinger minor), which is expanded by cofactors, so no
step divides.  Products whose factors both have more than four terms, as in
the residual block of a large knot, use Kronecker substitution:
both factors are packed at t = 2^K into one integer each and multiplied once.
K = bit_length(max|a| * sum|b|) + 2 bounds every product coefficient below
2^(K-2), so the signed base-2^K digits of the product decode exactly.  The
result becomes a LaurentPolynomial once, at the end.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle
from operator import add, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraError, LaurentPolynomial, normalize_alexander


# A dense polynomial is (lowest exponent, coefficients) with both ends nonzero;
# None is the zero polynomial.
Poly = Tuple[int, List[int]]
Dense = Optional[Poly]
DenseRow = Dict[int, Poly]
Matrix2 = Tuple[Tuple[Dense, Dense], Tuple[Dense, Dense]]
_ONE = (0, [1])
_MINUS_ONE = (0, [-1])
_SHORT = 4  # longest factor _mul multiplies by slice updates


class DiagramError(ValueError):
    """Raised for link (non-knot) inputs or degenerate twist parameters."""


@dataclass(frozen=True)
class Crossing:
    """One Wirtinger crossing: under-arc `incoming` passes under `over` and
    re-emerges as `outgoing`, conjugated with exponent `exponent` (+-1)."""

    over: int
    incoming: int
    outgoing: int
    exponent: int


@dataclass(frozen=True)
class PretzelDiagram:
    twists: Tuple[int, int, int]
    crossings: Tuple[Crossing, ...]
    arc_count: int


def _union(parent: Dict[int, int], x: int, y: int) -> None:
    parent[_find(parent, x)] = _find(parent, y)


def _find(parent: Dict[int, int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _strand_directions(twists: Tuple[int, int, int]) -> Dict[Tuple[int, str], str]:
    """Trace the closed-up diagram once and orient every band strand.

    Returns dir[(band, top_side_entered)] in {"down", "up"}; raises if the
    trace closes up before visiting all six strands (link case).
    """
    seen: Dict[Tuple[int, str], str] = {}
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


def _cross(u: Tuple[int, int], v: Tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _diagonal(pos: str, going_down: bool) -> Tuple[int, int]:
    """Direction of a strand inside a crossing, by its position above it."""
    if pos == "L":  # occupies the upper-left -> lower-right diagonal
        return (1, -1) if going_down else (-1, 1)
    return (-1, -1) if going_down else (1, 1)


def build_pretzel_diagram(p: int, q: int, r: int) -> PretzelDiagram:
    """Combinatorial pretzel diagram P(p, q, r); knot cases only.

    Exactly one of p, q, r must be even (else the diagram is a 2- or
    3-component link) and none may be zero.

    Each band is written in closed form.  Its over-strand enters at the top
    on side L for a positive twist, else R; its arcs are y_0 and y_1 (top,
    under and over side), then y_2, ..., y_{n+1}, one per crossing, and
    crossing j is Crossing(over=y_{j+1}, incoming=y_j, outgoing=y_{j+2},
    exponent=e_{j mod 2}): the strands swap sides at each crossing, so the
    two exponents are read once off the strand directions by the sign rule.
    Raw labels count the bands in order (top L, top R, then one per
    crossing).  The cyclic closure merges band-end arcs only, so union-find
    runs on at most 12 labels; every arc is then relabelled by the rank of
    its class representative.
    """
    twists = (p, q, r)
    if any(t == 0 for t in twists):
        raise DiagramError("zero twist bands are not supported")
    if sum(1 for t in twists if t % 2 == 0) != 1:
        raise DiagramError(f"P{twists} is a link, not a knot")
    directions = _strand_directions(twists)

    tops, bottoms, bands = [], [], []  # bands: (twist, start, raw y_0, raw y_1)
    base = 0
    for t in twists:
        n = abs(t)
        y0, y1 = (base + 1, base) if t > 0 else (base, base + 1)
        yn = y1 if n == 1 else base + n  # after n crossings: y_n under, y_{n+1} over side
        tops.append((base, base + 1))
        bottoms.append((base + n + 1, yn) if t > 0 else (yn, base + n + 1))
        bands.append((t, base, y0, y1))
        base += n + 2

    parent = {x: x for pair in tops + bottoms for x in pair}
    for k in range(3):
        _union(parent, tops[k][1], tops[(k + 1) % 3][0])
        _union(parent, bottoms[k][1], bottoms[(k + 1) % 3][0])
    merged = sorted(x for x in parent if _find(parent, x) != x)

    crossings: List[Crossing] = []
    for band, (t, start, y0, y1) in enumerate(bands):
        n = abs(t)
        over, under = ("L", "R") if t > 0 else ("R", "L")
        exponents = []
        for over_side, under_side in ((over, under), (under, over)):
            over_down = directions[(band, over_side)] == "down"
            under_down = directions[(band, under_side)] == "down"
            sign = 1 if _cross(_diagonal(over, over_down), _diagonal(under, under_down)) > 0 else -1
            exponents.append(sign if under_down else -sign)
        # interior arcs are their own representatives, and no merged label lies among them
        shift = bisect_left(merged, start + 2)
        y = [y0, y1, *range(start + 2 - shift, start + n + 2 - shift)]
        for j in {0, 1, n, n + 1}:
            root = _find(parent, (y0, y1)[j] if j < 2 else start + j)
            y[j] = root - bisect_left(merged, root)
        crossings.extend(map(Crossing, y[1:], y, y[2:], cycle(exponents)))

    diagram = PretzelDiagram(twists=twists, crossings=tuple(crossings), arc_count=base - len(merged))
    if diagram.arc_count != len(crossings):
        raise DiagramError("arc/crossing count mismatch; diagram is not a knot diagram")
    return diagram


def _trim(lo: int, cs: List[int]) -> Dense:
    """The dense polynomial sum cs[i] t^(lo+i), with zero ends stripped."""
    i, j = 0, len(cs)
    while i < j and not cs[i]:
        i += 1
    if i == j:
        return None
    while not cs[j - 1]:
        j -= 1
    return (lo + i, cs[i:j] if i or j < len(cs) else cs)


def _to_laurent(p: Dense) -> LaurentPolynomial:
    if p is None:
        return LaurentPolynomial.zero()
    lo, cs = p
    return LaurentPolynomial({lo + i: c for i, c in enumerate(cs)})


def _is_unit(p: Poly) -> bool:
    return len(p[1]) == 1 and abs(p[1][0]) == 1


def _neg(a: Dense) -> Dense:
    return None if a is None else (a[0], [-x for x in a[1]])


def _sub_mul(a: Dense, f: Poly, b: Poly) -> Dense:
    """a - f*b, as one shifted slice update of the longer factor per
    coefficient of the shorter one.

    Cheap when one factor is short: in the band transfer one factor is an
    entry of a period matrix, at most three terms.
    """
    if len(f[1]) > len(b[1]):
        f, b = b, f
    flo, fc = f
    blo, bc = b
    lo, stop = flo + blo, flo + blo + len(fc) + len(bc) - 1
    if a is not None:
        alo, ac = a
        lo, stop = min(lo, alo), max(stop, alo + len(ac))
    out = [0] * (stop - lo)
    if a is not None:
        out[alo - lo : alo - lo + len(ac)] = ac
    n = len(bc)
    for i, c in enumerate(fc):
        if not c:
            continue
        s = flo + i + blo - lo
        seg = out[s : s + n]
        if c == 1:
            out[s : s + n] = map(sub, seg, bc)
        elif c == -1:
            out[s : s + n] = map(add, seg, bc)
        else:
            out[s : s + n] = map(sub, seg, map(c.__mul__, bc))
    return _trim(lo, out)


def _mul(a: Dense, b: Dense) -> Dense:
    """a*b: by slice updates when a factor has at most _SHORT terms, else by
    Kronecker substitution (evaluate both at t = 2^K, multiply once).

    Packing into bytes costs more than it saves for a short factor: an entry
    of a band's period matrix, a unit, or a small knot's residual block.

    Every product coefficient is a sum of a_i b_j over i + j = k, so its
    absolute value is at most max|a| * sum|b| < 2^(K-2) for
    K = bit_length(max|a| * sum|b|) + 2 (rounded up to whole bytes here).  The
    coefficients of a and b obey the same bound.  Each digit therefore lies
    in (-2^(K-1), 2^(K-1)), and adding 2^(K-1) to every digit makes the packed
    integer an ordinary base-2^K numeral, so packing and unpacking through
    bytes are exact.  The ends of a product of trimmed polynomials are
    nonzero, so the result needs no trimming.
    """
    if a is None or b is None:
        return None
    if len(a[1]) > len(b[1]):
        a, b = b, a
    if len(a[1]) <= _SHORT:
        return _sub_mul(None, _neg(a), b)
    (alo, ac), (blo, bc) = a, b
    width = ((max(map(abs, ac)) * sum(map(abs, bc))).bit_length() + 2 + 7) // 8  # K in bytes
    half = 1 << (8 * width - 1)
    digit = bytes(width - 1) + b"\x80"  # half, little-endian

    def pack(cs: List[int]) -> int:
        raw = b"".join((c + half).to_bytes(width, "little") for c in cs)
        return int.from_bytes(raw, "little") - int.from_bytes(digit * len(cs), "little")

    n = len(ac) + len(bc) - 1
    value = pack(ac) * pack(bc) + int.from_bytes(digit * n, "little")
    raw = value.to_bytes(n * width, "little")
    out = [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, n * width, width)]
    return (alo + blo, out)


def _determinant(rows: List[DenseRow], ncols: int) -> Dense:
    """Determinant over Z[t, 1/t] of a matrix with ncols columns, up to a unit
    +-t^k; None is zero, also for an all-zero row or column.

    Entries are dense polynomials: (lowest exponent, list of coefficients),
    both ends nonzero.  Unit entries (every band relation has one) are used as
    pivots first, which keeps the elimination division-free: dividing by
    +-t^k only shifts and negates, and each row update a - f*b is one shifted
    slice update per coefficient of the shorter factor.  The residual block
    (at most 2x2 from fox_alexander) is expanded by cofactors (`_expand`),
    whose long products go through Kronecker substitution (`_mul`).
    """
    rows = dict(enumerate(dict(r) for r in rows))
    if len(rows) != ncols:
        raise AlgebraError(f"determinant of a non-square matrix ({len(rows)}x{ncols})")
    used = set().union(*rows.values())
    if not used <= set(range(ncols)):
        raise AlgebraError(f"matrix entry outside columns 0..{ncols - 1}")
    if len(used) != ncols or not all(rows.values()):
        return None

    # phase 1: unit pivots
    while rows:
        pick = next(
            ((ri, col, val) for ri, row in rows.items() for col, val in row.items() if _is_unit(val)),
            None,
        )
        if pick is None:
            break
        ri, col, (plo, pc) = pick
        prow = rows.pop(ri)
        del prow[col]
        for row in rows.values():
            val = row.pop(col, None)
            if val is None:
                continue
            factor = (val[0] - plo, val[1] if pc[0] == 1 else [-x for x in val[1]])
            for c2, v2 in prow.items():
                v = _sub_mul(row.get(c2), factor, v2)
                if v is None:
                    del row[c2]
                else:
                    row[c2] = v
    if not rows:
        return _ONE

    # phase 2: cofactor expansion of the residual block
    cols = sorted(set().union(*rows.values()))
    if len(cols) != len(rows):
        return None
    return _expand([[row.get(c) for c in cols] for row in rows.values()])


def _expand(mat: List[List[Dense]]) -> Dense:
    """Determinant of a square block by cofactor expansion along its first
    row: division-free, with n! products for an n x n block."""
    if len(mat) == 1:
        return mat[0][0]
    total = None
    for j, entry in enumerate(mat[0]):
        term = _mul(entry, _expand([row[:j] + row[j + 1 :] for row in mat[1:]]))
        if term is not None:
            total = _sub_mul(total, _ONE if j % 2 else _MINUS_ONE, term)
    return total


def _add(a: Dense, b: Dense) -> Dense:
    return a if b is None else _sub_mul(a, _MINUS_ONE, b)


def _sub(a: Dense, b: Dense) -> Dense:
    return a if b is None else _sub_mul(a, _ONE, b)


def _transfer(e: int) -> Matrix2:
    """T_e, which maps (y_{j+1}, y_j) to (y_{j+2}, y_{j+1}) across a crossing
    with exponent e: y_{j+2} = (1 - t^e) y_{j+1} + t^e y_j."""
    return ((_add(_ONE, (e, [-1])), (e, [1])), (_ONE, None))


def _matmul2(x: Matrix2, y: Matrix2) -> Matrix2:
    (a, b), (c, d) = y
    return tuple((_add(_mul(u, a), _mul(v, c)), _add(_mul(u, b), _mul(v, d))) for u, v in x)


def _geometric(delta: Poly, m: int) -> Dense:
    """s_m = 1 + delta + ... + delta^(m-1) for a unit monomial delta = +-t^k."""
    k, (c,) = delta
    if k == 0:
        return _trim(0, [m if c == 1 else m % 2])
    terms = [c**i for i in range(m)]
    cs = [0] * (abs(k) * (m - 1) + 1)
    cs[:: abs(k)] = terms if k > 0 else terms[::-1]
    return (min(0, k * (m - 1)), cs)


@lru_cache(maxsize=16)
def _period(e0: int, e1: int, odd: bool) -> Tuple[Matrix2, Matrix2, Poly]:
    """(X M, X, delta) for the period matrix M of a band with exponents
    e0, e1, e0, ...: M is T_e0 (parallel strands) or T_e1 T_e0 (antiparallel
    strands), delta = det M, and X is T_e0 for an odd antiparallel band, else I.

    Cayley-Hamilton gives M^m = s_m M - delta s_{m-1} I only when M has
    eigenvalue 1, that is trace M = 1 + delta; DiagramError is raised unless
    that holds with delta a unit monomial.  The result is shared by every
    caller, so its polynomials must not be mutated.
    """
    period = _transfer(e0) if e0 == e1 else _matmul2(_transfer(e1), _transfer(e0))
    (a, b), (c, d) = period
    delta = _sub(_mul(a, d), _mul(b, c))
    if delta is None or not _is_unit(delta) or _add(a, d) != _add(_ONE, delta):
        raise DiagramError(f"band period matrix for exponents ({e0}, {e1}) has no eigenvalue 1")
    tail = _transfer(e0) if odd else ((_ONE, None), (None, _ONE))
    return _matmul2(tail, period), tail, delta


def _band_transfer(exponents: Sequence[int]) -> Matrix2:
    """The product T_{e_{n-1}} ... T_{e_1} T_{e_0} over one band, in closed form.

    The exponents must have period at most 2, else DiagramError.  With M, X
    and delta from _period, the product is X M^m = s_m X M - delta s_{m-1} X,
    where m counts the periods and s_m = 1 + delta + ... + delta^(m-1).
    """
    n = len(exponents)
    if n == 0:
        raise DiagramError("empty twist band")
    e0, e1 = exponents[0], exponents[min(1, n - 1)]
    if any(e != (e1 if j % 2 else e0) for j, e in enumerate(exponents)):
        raise DiagramError(f"band exponents {list(exponents)} do not have period 2")
    m, odd = (n, 0) if e0 == e1 else divmod(n, 2)
    head, tail, delta = _period(e0, e1, bool(odd))
    s = _geometric(delta, m)
    shift = _sub(s, _ONE)  # delta s_{m-1}, as s_m = 1 + delta s_{m-1}
    return tuple(
        tuple(_mul(s, h) if x is None or shift is None else _sub_mul(_mul(s, h), shift, x)
              for h, x in zip(hrow, xrow))
        for hrow, xrow in zip(head, tail)
    )


def _relation(bottom: int, over: Dense, incoming: Dense, y1: int, y0: int) -> DenseRow:
    """The row of bottom = over * y1 + incoming * y0, coinciding arcs summed."""
    row: Dict[int, Dense] = {bottom: _MINUS_ONE}
    for arc, coeff in ((y1, over), (y0, incoming)):
        row[arc] = _add(row[arc], coeff) if arc in row else coeff
    return {arc: v for arc, v in row.items() if v is not None}


def fox_alexander(d: PretzelDiagram) -> LaurentPolynomial:
    """Normalized Alexander polynomial of the diagram via Fox calculus.

    The crossings are read in band order, |p|, |q| and |r| of them.  Each band
    must chain (crossing j+1 passes under the arc crossing j emitted, and its
    incoming arc is crossing j's over-arc) and gives the relations of its
    bottom arcs through its transfer matrix; a DiagramError is raised
    otherwise.  The last band's last relation and the column of the first
    band's incoming top arc are deleted before taking the determinant; every
    bottom arc keeps its unit entry for the unit-pivot phase.  The unit
    ambiguity is removed by normalize_alexander.
    """
    if len(d.crossings) != sum(map(abs, d.twists)):
        raise DiagramError(f"{len(d.crossings)} crossings for twists {d.twists}")
    rows: List[DenseRow] = []
    arcs = set()
    start = 0
    for twist in d.twists:
        band = d.crossings[start : start + abs(twist)]
        start += abs(twist)
        for prev, cur in zip(band, band[1:]):
            if cur.over != prev.outgoing or cur.incoming != prev.over:
                raise DiagramError(f"the crossings of the {twist}-twist band do not chain")
        (p00, p01), (p10, p11) = _band_transfer([c.exponent for c in band])
        y1, y0 = band[0].over, band[0].incoming
        if len(band) > 1:
            rows.append(_relation(band[-1].over, p10, p11, y1, y0))
        rows.append(_relation(band[-1].outgoing, p00, p01, y1, y0))
        arcs.update((y0, y1, band[-1].over, band[-1].outgoing))
    if len(arcs) != len(rows):
        raise DiagramError("arc/relation count mismatch; diagram is not a knot diagram")
    column = {arc: i for i, arc in enumerate(sorted(arcs - {d.crossings[0].incoming}))}
    minor = [{column[arc]: v for arc, v in row.items() if arc in column} for row in rows[:-1]]
    return normalize_alexander(_to_laurent(_determinant(minor, len(column))))


def pretzel_determinant(p: int, q: int, r: int) -> int:
    """|Delta(-1)| for the pretzel knot: |pq + qr + rp|."""
    return abs(p * q + q * r + r * p)
