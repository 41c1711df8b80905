"""Independent Alexander-polynomial oracle via Wirtinger presentations and Fox calculus.

The pretzel diagram (three vertical twist bands, closed cyclically at top
and bottom) is written band by band in closed form, each crossing once; the
Alexander polynomial is a minor of its Fox-derivative matrix over Z[t, 1/t].

That matrix is never built in full.  Inside a band the crossings chain:
crossing j takes its over-arc y_{j+1} and its incoming arc y_j and emits
y_{j+2} = (1 - t^e) y_{j+1} + t^e y_j, the abelianized Fox row of its
relation (Fox, Free differential calculus I, 1953).  In differences,
y_{j+2} - y_{j+1} = -t^e (y_{j+1} - y_j), so every arc of a band is
y_m = (1 - S_m) y_0 + S_m y_1, where S_m is a sum of m signed unit monomials
whose exponents are prefix sums of the band's exponents, whatever they are.
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
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, cycle
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

    Cheap when one factor is short: a unit, or an entry of an antiparallel
    band, whose S_m = i - j t^e has at most two terms.
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

    Packing into bytes costs more than it saves for a short factor: a unit,
    an antiparallel band's entry, or a small knot's residual block.

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


def _band_transfer(exponents: Sequence[int]) -> Matrix2:
    """The product T_{e_{n-1}} ... T_{e_1} T_{e_0} over one band, in closed form.

    Crossing j gives y_{j+2} - y_{j+1} = -t^(e_j) (y_{j+1} - y_j), so
    y_{i+1} - y_i = u_i (y_1 - y_0) with u_i = (-1)^i t^(e_0 + ... + e_{i-1}),
    and y_m = (1 - S_m) y_0 + S_m y_1 with S_m = u_0 + ... + u_{m-1}.  The
    product maps (y_1, y_0) to (y_{n+1}, y_n), so its rows are
    (S_{n+1}, 1 - S_{n+1}) and (S_n, 1 - S_n), for any exponent sequence.
    """
    n = len(exponents)
    if n == 0:
        raise DiagramError("empty twist band")
    sums = list(accumulate(exponents, initial=0))  # u_i = (-1)^i t^sums[i]
    lo = min(sums)
    cs = [0] * (max(sums) - lo + 1)
    for k, c in Counter(sums[: n : 2]).items():
        cs[k - lo] += c
    for k, c in Counter(sums[1 : n : 2]).items():
        cs[k - lo] -= c
    s_n = _trim(lo, cs[:])
    cs[sums[n] - lo] += -1 if n % 2 else 1
    s_next = _trim(lo, cs)
    return ((s_next, _sub(_ONE, s_next)), (s_n, _sub(_ONE, s_n)))


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
