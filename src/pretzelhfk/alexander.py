"""Independent Alexander-polynomial oracle via Wirtinger presentations and Fox calculus.

The pretzel diagram is transcribed combinatorially (three vertical twist
bands, closed cyclically at top and bottom), a Wirtinger presentation is read
off crossing by crossing, and the Alexander polynomial is extracted as a
minor of the Fox-derivative matrix over Z[t, 1/t].

The determinant runs on a private dense form: a polynomial is a pair
(lowest exponent, list of int coefficients), trimmed so that both ends are
nonzero, and None is zero.  Unit-pivot elimination updates a row entry
a - f*b with one shifted slice update of b per coefficient of the short
factor f.  The residual Bareiss block multiplies by Kronecker substitution:
both factors are packed at t = 2^K into one integer each and multiplied once.
K = bit_length(max|a| * sum|b|) + 2 bounds every product coefficient below
2^(K-2), so the signed base-2^K digits of the product decode exactly.  The
result becomes a LaurentPolynomial once, at the end.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import add, sub
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraError, LaurentPolynomial, normalize_alexander


# A dense polynomial is (lowest exponent, coefficients) with both ends nonzero;
# None is the zero polynomial.
Poly = Tuple[int, List[int]]
Dense = Optional[Poly]
DenseRow = Dict[int, Poly]
_ONE = (0, [1])


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


def build_pretzel_diagram(p: int, q: int, r: int) -> PretzelDiagram:
    """Combinatorial pretzel diagram P(p, q, r); knot cases only.

    Exactly one of p, q, r must be even (else the diagram is a 2- or
    3-component link) and none may be zero.
    """
    twists = (p, q, r)
    if any(t == 0 for t in twists):
        raise DiagramError("zero twist bands are not supported")
    if sum(1 for t in twists if t % 2 == 0) != 1:
        raise DiagramError(f"P{twists} is a link, not a knot")
    directions = _strand_directions(twists)

    next_arc = 0

    def fresh() -> int:
        nonlocal next_arc
        next_arc += 1
        return next_arc - 1

    # diagonal direction vectors within a crossing, by position above it
    def diag(pos: str, going_down: bool) -> Tuple[int, int]:
        if pos == "L":  # occupies the upper-left -> lower-right diagonal
            return (1, -1) if going_down else (-1, 1)
        return (-1, -1) if going_down else (1, 1)

    crossings: List[Crossing] = []
    tops: List[Tuple[int, int]] = []
    bottoms: List[Tuple[int, int]] = []
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
            # the under strand re-emerges on the other side with the new arc
            arc[over_pos] = new  # under strand lands where the over strand left
        bottoms.append((arc["L"], arc["R"]))

    # cyclic closure: right side of band k meets left side of band k+1
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


def _fox_matrix(d: PretzelDiagram) -> List[DenseRow]:
    """Rows of Fox derivatives of the Wirtinger relators, abelianized at t.

    Relator x_o^e x_i x_o^-e x_j^-1 has derivatives (1 - t^e) at o, t^e at i
    and -1 at j (rows with e = -1 are scaled by the unit t, which is harmless).
    Every entry lies in exponents 0..1, so each column is accumulated as
    [t^0 coefficient, t^1 coefficient] before trimming.
    """
    rows = []
    for c in d.crossings:
        if c.exponent == 1:
            terms = ((c.over, 1, -1), (c.incoming, 0, 1), (c.outgoing, -1, 0))
        else:
            # derivatives (1 - 1/t, 1/t, -1) scaled by t
            terms = ((c.over, -1, 1), (c.incoming, 1, 0), (c.outgoing, 0, -1))
        acc: Dict[int, List[int]] = {}
        for col, c0, c1 in terms:
            pair = acc.setdefault(col, [0, 0])
            pair[0] += c0
            pair[1] += c1
        rows.append({col: p for col, pair in acc.items() if (p := _trim(0, pair))})
    return rows


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


def _sub_mul(a: Dense, f: Poly, b: Poly) -> Dense:
    """a - f*b, as one shifted slice update of b per coefficient of f.

    Cheap for a short f: in the unit-pivot phase f is an entry divided by a
    unit, which at the pretzel knots is nearly always one to three terms.
    """
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
    """a*b by Kronecker substitution: evaluate both at t = 2^K, multiply once.

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


def _divexact(num: Dense, den: Poly) -> Dense:
    """num / den in Z[t, 1/t] by schoolbook division from the top.

    Raises AlgebraError unless den divides num exactly.
    """
    if num is None:
        return None
    (nlo, nc), (dlo, dc) = num, den
    m = len(dc)
    size = len(nc) - m + 1
    if size < 1:
        raise AlgebraError("inexact polynomial division")
    rem = list(nc)
    lead = dc[-1]
    q = [0] * size
    for i in range(size - 1, -1, -1):
        c, r = divmod(rem[i + m - 1], lead)
        if r:
            raise AlgebraError("inexact polynomial division")
        if c:
            q[i] = c
            rem[i : i + m] = map(sub, rem[i : i + m], map(c.__mul__, dc))
    if any(rem[: m - 1]):
        raise AlgebraError("inexact polynomial division")
    # exact: the quotient's ends divide the nonzero ends of num, so q is trimmed
    return (nlo - dlo, q)


def _determinant(rows: List[DenseRow], ncols: int) -> Dense:
    """Determinant over Z[t, 1/t] of a matrix with ncols columns, up to a unit
    +-t^k; None is zero, also for an all-zero row or column.

    Entries are dense polynomials: (lowest exponent, list of coefficients),
    both ends nonzero.  Unit entries (Wirtinger rows are full of them) are used
    as pivots first, which keeps the elimination division-free: dividing by
    +-t^k only shifts and negates, and each row update a - f*b is one shifted
    slice update of b per coefficient of f.  Any residual block falls back to
    fraction-free Bareiss (1968) elimination, whose long products go through
    Kronecker substitution (`_mul`) and whose exact divisions are schoolbook.
    """
    rows = dict(enumerate(dict(r) for r in rows))
    where: Dict[int, set] = defaultdict(set)  # column -> ids of the rows holding it
    for ri, row in rows.items():
        for col in row:
            where[col].add(ri)
    if len(rows) != ncols:
        raise AlgebraError(f"determinant of a non-square matrix ({len(rows)}x{ncols})")
    if not set(where) <= set(range(ncols)):
        raise AlgebraError(f"matrix entry outside columns 0..{ncols - 1}")
    if len(where) != ncols or not all(rows.values()):
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
        for c2 in prow:
            where[c2].discard(ri)
        for rj in where.pop(col) - {ri}:
            row = rows[rj]
            val = row.pop(col)
            factor = (val[0] - plo, val[1] if pc[0] == 1 else [-x for x in val[1]])
            for c2, v2 in prow.items():
                v = _sub_mul(row.get(c2), factor, v2)
                if v is None:
                    del row[c2]
                    where[c2].discard(rj)
                else:
                    row[c2] = v
                    where[c2].add(rj)
    if not rows:
        return _ONE

    # phase 2: Bareiss on the residual dense block
    cols = sorted(set().union(*rows.values()))
    if len(cols) != len(rows):
        return None
    mat = [[row.get(c) for c in cols] for row in rows.values()]
    n = len(mat)
    prev = _ONE
    for k in range(n - 1):
        if mat[k][k] is None:
            swap = next((i for i in range(k + 1, n) if mat[i][k] is not None), None)
            if swap is None:
                return None
            mat[k], mat[swap] = mat[swap], mat[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _mul(mat[k][k], mat[i][j])
                sub = _mul(mat[i][k], mat[k][j])
                if sub is not None:
                    num = _sub_mul(num, _ONE, sub)
                mat[i][j] = _divexact(num, prev)
            mat[i][k] = None
        prev = mat[k][k]
    return mat[n - 1][n - 1]


def fox_alexander(d: PretzelDiagram) -> LaurentPolynomial:
    """Normalized Alexander polynomial of the diagram via Fox calculus.

    One column (the last generator) and one row (the last relation) of the
    Alexander matrix are deleted before taking the determinant; the unit
    ambiguity is removed by normalize_alexander.
    """
    rows = _fox_matrix(d)
    drop_col = d.arc_count - 1
    trimmed = [{c: v for c, v in row.items() if c != drop_col} for row in rows[:-1]]
    # columns 0 .. drop_col - 1 remain
    return normalize_alexander(_to_laurent(_determinant(trimmed, drop_col)))


def pretzel_determinant(p: int, q: int, r: int) -> int:
    """|Delta(-1)| for the pretzel knot: |pq + qr + rp|."""
    return abs(p * q + q * r + r * p)
