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

The determinant runs on Python integers.  Each column of the minor is
multiplied by the least t^k, k >= 0, that leaves no negative exponent in it;
t^k is a unit, so the determinant changes only by a unit, and the minor, now
over Z[t], is evaluated once at t = X = 2^K.  Its determinant D sums signed
products of one entry per column, so ||D||_1 (the sum of its coefficients'
absolute values) is at most the product over the columns of their entries'
summed L1 norms: the row bound applied to the transpose, and far smaller here,
where a bottom arc's column holds only -1s.  K = bit_length(that bound) + 2,
rounded up to whole bytes, puts each coefficient of D in (-X/2, X/2), so the
balanced base-X digits of D(X) are the coefficients, decoded once at the end.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, cycle
from math import prod
from typing import Dict, List, Sequence, Tuple

from .algebra import AlgebraError, LaurentPolynomial, normalize_alexander


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


def _digit_bits(bound: int) -> int:
    """K = bit_length(bound) + 2, rounded up to whole bytes, so that coefficients
    at most `bound` in absolute value are base-2^K digits."""
    return (bound.bit_length() + 2 + 7) // 8 * 8


def _evaluate(cs: Sequence[int], bits: int) -> int:
    """sum cs[i] X^i at X = 2^bits, for |cs[i]| < X/2 and whole bytes of bits:
    packed through bytes with X/2 added to every coefficient, then subtracted."""
    half = 1 << (bits - 1)
    offset = (bytes(bits // 8 - 1) + b"\x80") * len(cs)  # X/2 in every digit
    raw = b"".join((c + half).to_bytes(bits // 8, "little") for c in cs)
    return int.from_bytes(raw, "little") - int.from_bytes(offset, "little")


def _decode(value: int, bits: int) -> LaurentPolynomial:
    """sum d_i t^i for the balanced digits d_i in (-X/2, X/2), X = 2^bits, of
    `value`; a top digit d_h makes |value| > X^h / 2, which bounds h."""
    width = bits // 8
    low = ((value & -value).bit_length() - 1) // bits if value else 0  # zero digits below t^low
    value >>= bits * low
    n = abs(value).bit_length() // bits + 1
    half = 1 << (bits - 1)
    offset = (bytes(width - 1) + b"\x80") * n
    raw = (value + int.from_bytes(offset, "little")).to_bytes(n * width, "little")
    return LaurentPolynomial(
        {low + i: int.from_bytes(raw[i * width : (i + 1) * width], "little") - half for i in range(n)}
    )


def _determinant(rows: List[Dict[int, int]], ncols: int) -> int:
    """Determinant, up to sign, of a square integer matrix given as sparse rows
    (column -> nonzero entry); 0 also for an all-zero row or column.

    Entries +-1 are pivots first, so the elimination is exact and division-free;
    fox_alexander's -1 at each bottom arc is one, as the unit shifts t^k leave a
    column of -1s alone.  The residual block (at most 2x2 there) is expanded by
    cofactors.  fox_alexander decodes the result D(X) exactly: ||D||_1 is at
    most the product over the columns of their entries' summed L1 norms < 2^(K-2).
    """
    rows = dict(enumerate(dict(r) for r in rows))
    if len(rows) != ncols:
        raise AlgebraError(f"determinant of a non-square matrix ({len(rows)}x{ncols})")
    used = set().union(*rows.values())
    if not used <= set(range(ncols)):
        raise AlgebraError(f"matrix entry outside columns 0..{ncols - 1}")
    if len(used) != ncols or not all(rows.values()):
        return 0

    # phase 1: unit pivots
    while True:
        pick = next(((ri, col, v) for ri, row in rows.items() for col, v in row.items() if v in (1, -1)), None)
        if pick is None:
            break
        ri, col, unit = pick
        prow = rows.pop(ri)
        del prow[col]
        for row in rows.values():
            factor = row.pop(col, 0) * unit
            if factor:
                for c2, v2 in prow.items():
                    row[c2] = row.get(c2, 0) - factor * v2  # a zero left here is harmless

    # phase 2: cofactor expansion of the residual block
    cols = sorted(set().union(*rows.values()))
    if len(cols) != len(rows):
        return 0
    return _expand([[row.get(c, 0) for c in cols] for row in rows.values()])


def _expand(mat: List[List[int]]) -> int:
    """Determinant of a square block by cofactor expansion along its first
    row: division-free, with n! products for an n x n block; 1 if empty."""
    if not mat:
        return 1
    total = 0
    for j, entry in enumerate(mat[0]):
        if entry:
            term = entry * _expand([row[:j] + row[j + 1 :] for row in mat[1:]])
            total += -term if j % 2 else term
    return total


def _band_transfer(exponents: Sequence[int]) -> Tuple[int, List[int], List[int]]:
    """The product T_{e_{n-1}} ... T_{e_1} T_{e_0} over one band, in closed form.

    Crossing j gives y_{j+2} - y_{j+1} = -t^(e_j) (y_{j+1} - y_j), so
    y_{i+1} - y_i = u_i (y_1 - y_0) with u_i = (-1)^i t^(e_0 + ... + e_{i-1}),
    and y_m = (1 - S_m) y_0 + S_m y_1 with S_m = u_0 + ... + u_{m-1}.  The
    product maps (y_1, y_0) to (y_{n+1}, y_n), so its rows are
    (S_{n+1}, 1 - S_{n+1}) and (S_n, 1 - S_n), for any exponent sequence.
    Returns (lo, S_{n+1}, S_n): both as coefficient lists of t^lo, t^(lo+1),
    ..., where lo <= 0 is the least prefix sum.
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
    s_n = cs[:]
    cs[sums[n] - lo] += -1 if n % 2 else 1
    return lo, cs, s_n


def fox_alexander(d: PretzelDiagram) -> LaurentPolynomial:
    """Normalized Alexander polynomial of the diagram via Fox calculus.

    The crossings are read in band order, |p|, |q| and |r| of them.  Each band
    must chain (crossing j+1 passes under the arc crossing j emitted, and its
    incoming arc is crossing j's over-arc), else a DiagramError is raised, and
    gives its bottom arcs' relations bottom = S y_1 + (1 - S) y_0.  The last
    band's last relation and the first band's incoming top arc are deleted.
    Each S is evaluated once, and 1 - S on integers as X^k - S; the unit
    ambiguity is removed by normalize_alexander.
    """
    if len(d.crossings) != sum(map(abs, d.twists)):
        raise DiagramError(f"{len(d.crossings)} crossings for twists {d.twists}")
    relations = []  # (bottom, y1, y0, lo, S as a coefficient list from t^lo)
    start = 0
    for twist in d.twists:
        band = d.crossings[start : start + abs(twist)]
        start += abs(twist)
        for prev, cur in zip(band, band[1:]):
            if cur.over != prev.outgoing or cur.incoming != prev.over:
                raise DiagramError(f"the crossings of the {twist}-twist band do not chain")
        lo, s_next, s_n = _band_transfer([c.exponent for c in band])
        y1, y0 = band[0].over, band[0].incoming
        if len(band) > 1:
            relations.append((band[-1].over, y1, y0, lo, s_n))
        relations.append((band[-1].outgoing, y1, y0, lo, s_next))
    arcs = {arc for relation in relations for arc in relation[:3]}
    if len(arcs) != len(relations):
        raise DiagramError("arc/relation count mismatch; diagram is not a knot diagram")
    del relations[-1]
    column = {arc: i for i, arc in enumerate(sorted(arcs - {d.crossings[0].incoming}))}
    shift, norms = Counter(), Counter()  # per arc: its column's power of t, its entries' L1 norms
    for bottom, y1, y0, lo, s in relations:
        size = sum(map(abs, s))
        norms[bottom] += 1
        for arc, norm in ((y1, size), (y0, size + 1)):  # ||1 - S||_1 <= ||S||_1 + 1
            norms[arc] += norm
            shift[arc] = max(shift[arc], -lo)
    bits = _digit_bits(prod(norms[arc] for arc in column))
    minor = []
    for bottom, y1, y0, lo, s in relations:
        value = _evaluate(s, bits)
        row: Dict[int, int] = defaultdict(int)  # arcs may coincide
        row[bottom] -= 1 << bits * shift[bottom]
        row[y1] += value << bits * (lo + shift[y1])
        row[y0] += (1 << bits * shift[y0]) - (value << bits * (lo + shift[y0]))
        minor.append({column[arc]: v for arc, v in row.items() if v and arc in column})
    return normalize_alexander(_decode(_determinant(minor, len(column)), bits))


def pretzel_determinant(p: int, q: int, r: int) -> int:
    """|Delta(-1)| for the pretzel knot: |pq + qr + rp|."""
    return abs(p * q + q * r + r * p)
