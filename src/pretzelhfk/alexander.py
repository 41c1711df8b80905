"""Independent Alexander-polynomial oracle via Wirtinger presentations and Fox calculus.

The pretzel diagram (three vertical twist bands, closed cyclically at top
and bottom) is written band by band in closed form, each crossing once as a
`Crossing` NamedTuple made in C (`_replace` changes a field: it is not a
dataclass); the Alexander polynomial is a minor of its Fox matrix over Z[t, 1/t].

That matrix is never built in full.  Inside a band the crossings chain:
crossing j takes its over-arc y_{j+1} and its incoming arc y_j and emits
y_{j+2} = (1 - t^e) y_{j+1} + t^e y_j, the abelianized Fox row of its
relation (Fox, Free differential calculus I, 1953).  In differences,
y_{j+2} - y_{j+1} = -t^e (y_{j+1} - y_j), so every arc of a band is
y_m = (1 - S_m) y_0 + S_m y_1, where S_m is a sum of m signed unit monomials
whose exponents are prefix sums of the band's exponents, whatever they are.
Each band thus contributes the relations of its two bottom arcs (one for a
single crossing).  Eliminating the interior arcs is unimodular, so after one
relation and one arc column are deleted the minor, at most 5x5, is the
Alexander polynomial up to a unit.

The determinant runs on Python integers.  Each relation row is multiplied by
the unit t^-lo of its band (lo <= 0 the row's least exponent), and the minor,
now over Z[t], is evaluated once at t = X = 2^K and expanded by cofactors,
division-free.  Its determinant D sums signed products of one entry per
column, so ||D||_1 is at most the product over the columns of their entries'
summed L1 norms, which a unit shift keeps.  K = bit_length(that bound) + 2,
rounded up to whole bytes, puts each coefficient of D in (-X/2, X/2): the
balanced base-X digits of D(X) are its coefficients, decoded once at the end.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, cycle, repeat
from math import prod
from operator import add, sub
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .algebra import normalize_alexander


class DiagramError(ValueError):
    """Raised for link (non-knot) inputs or degenerate twist parameters."""


class Crossing(NamedTuple):
    """One Wirtinger crossing: under-arc `incoming` passes under `over` and re-emerges
    as `outgoing`, with exponent `exponent` (+-1); never equal to a plain tuple."""

    over: int
    incoming: int
    outgoing: int
    exponent: int

    def __eq__(self, other) -> bool:
        return type(other) is Crossing and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return type(other) is not Crossing or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


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
    """Combinatorial pretzel diagram P(p, q, r); knot cases only: exactly one
    of p, q, r must be even (else it is a 2- or 3-component link), none zero.

    Each band is written in closed form.  Its over-strand enters at the top on
    side L for a positive twist, else R; its arcs are y_0 and y_1 (top, under
    and over side), then y_2, ..., y_{n+1}, one per crossing, and crossing j
    is Crossing(over=y_{j+1}, incoming=y_j, outgoing=y_{j+2}, exponent=
    e_{j mod 2}), made in C: the strands swap sides at each crossing, so the
    two exponents are read once off the strand directions.  Raw labels count
    the bands in order (top L, top R, then one per crossing).  The closure
    merges band-end arcs only, so union-find runs on at most 12 labels; every
    arc is relabelled by the rank of its class representative.
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
    root = {x: _find(parent, x) for x in parent}
    merged = sorted(x for x in parent if root[x] != x)
    label = {x: r - bisect_left(merged, r) for x, r in root.items()}

    crossings: List[Crossing] = []
    for band, (t, start, y0, y1) in enumerate(bands):
        n = abs(t)
        over, under = ("L", "R") if t > 0 else ("R", "L")
        down = {side: directions[(band, side)] == "down" for side in "LR"}  # by top side entered
        # the sign rule is symmetric in the two strands, so both crossings share it
        sign = 1 if _cross(_diagonal(over, down[over]), _diagonal(under, down[under])) > 0 else -1
        exponents = [sign if down[under] else -sign, sign if down[over] else -sign]
        # interior arcs are their own representatives, and no merged label lies among them
        shift = bisect_left(merged, start + 2)
        y = [y0, y1, *range(start + 2 - shift, start + n + 2 - shift)]
        for j in {0, 1, n, n + 1}:
            y[j] = label[(y0, y1)[j] if j < 2 else start + j]
        crossings.extend(map(partial(tuple.__new__, Crossing), zip(y[1:], y, y[2:], cycle(exponents))))

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
    raw = b"".join(map(int.to_bytes, map(add, cs, repeat(half)), repeat(bits // 8), repeat("little")))
    return int.from_bytes(raw, "little") - int.from_bytes(offset, "little")


def _decode(value: int, bits: int) -> List[int]:
    """The balanced digits d_0, d_1, ..., in (-X/2, X/2), X = 2^bits, of
    value / X^low, where X^low is the largest power of X dividing `value`
    ([0] for 0); a top digit d_h makes |value| > X^h / 2, which bounds h."""
    width = bits // 8
    low = ((value & -value).bit_length() - 1) // bits if value else 0  # zero digits below X^low
    value >>= bits * low
    n = abs(value).bit_length() // bits + 1
    raw = (value + int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")).to_bytes(n * width, "little")
    edges = range(0, (n + 1) * width, width)  # digit boundaries; each digit is still X/2 high
    chunks = map(raw.__getitem__, map(slice, edges, edges[1:]))
    return list(map(sub, map(int.from_bytes, chunks, repeat("little")), repeat(1 << (bits - 1))))


def _expand(mat: List[List[int]]) -> int:
    """Determinant of a square block by cofactor expansion along its first
    row: division-free, with n! products for an n x n block; 1 if empty."""
    if len(mat) == 2:  # the expansion's last step, written out
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
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
    for k in sums[:n:2]:
        cs[k - lo] += 1
    for k in sums[1:n:2]:
        cs[k - lo] -= 1
    s_n = cs[:]
    cs[sums[n] - lo] += -1 if n % 2 else 1
    return lo, cs, s_n


def fox_alexander(d: PretzelDiagram) -> Tuple[int, ...]:
    """Normalized Alexander polynomial (a_0, ..., a_g) of the diagram via Fox calculus.

    The crossings are read in band order, |p|, |q| and |r| of them, each band
    transposed once into field tuples.  A band must chain (crossing j+1 passes
    under the arc crossing j emitted, and its incoming arc is crossing j's
    over-arc), else a DiagramError is raised; its bottom arcs give relations
    bottom = S y_1 + (1 - S) y_0.  The last band's last relation and the first
    band's incoming top arc are deleted.  Each row is multiplied by t^-lo.
    """
    if 0 in d.twists or len(d.crossings) != sum(map(abs, d.twists)):
        raise DiagramError(f"{len(d.crossings)} crossings for twists {d.twists}")
    relations = []  # (bottom, y1, y0, lo, S as a coefficient list from t^lo, step or None)
    for twist, end in zip(d.twists, accumulate(map(abs, d.twists))):
        band = d.crossings[end - abs(twist) : end]
        overs, incomings, outgoings, exponents = zip(*band)
        if incomings[1:] != overs[:-1] or overs[1:] != outgoings[:-1]:
            raise DiagramError(f"the crossings of the {twist}-twist band do not chain")
        lo, s_next, s_n = _band_transfer(exponents)
        y1, y0, step = overs[0], incomings[0], None
        if len(band) > 1:  # S_{n+1} = S_n + (-1)^n t^(e_0 + ... + e_{n-1}): one step on
            relations.append((overs[-1], y1, y0, lo, s_n, None))
            step = (-1 if len(band) % 2 else 1, sum(exponents) - lo)
        relations.append((outgoings[-1], y1, y0, lo, s_next, step))
    arcs = {arc for relation in relations for arc in relation[:3]}
    if len(arcs) != len(relations):
        raise DiagramError("arc/relation count mismatch; diagram is not a knot diagram")
    del relations[-1]
    columns = sorted(arcs - {d.crossings[0].incoming})
    norms = dict.fromkeys(arcs, 0)  # per arc: its column's entries' L1 norms
    for bottom, y1, y0, lo, s, _ in relations:
        size = sum(map(abs, s))
        norms[bottom] += 1
        norms[y1] += size
        norms[y0] += size + 1  # ||1 - S||_1 <= ||S||_1 + 1
    bits = _digit_bits(prod(map(norms.__getitem__, columns)))
    minor = []
    for bottom, y1, y0, lo, s, step in relations:  # each row times t^-lo
        value = _evaluate(s, bits) if step is None else value + (step[0] << bits * step[1])
        row, unit = dict.fromkeys(arcs, 0), 1 << bits * -lo  # arcs may coincide
        row[bottom] -= unit
        row[y1] += value
        row[y0] += unit - value
        minor.append(list(map(row.__getitem__, columns)))
    return normalize_alexander(_decode(_expand(minor), bits))


def pretzel_determinant(p: int, q: int, r: int) -> int:
    """|Delta(-1)| for the pretzel knot: |pq + qr + rp|."""
    return abs(p * q + q * r + r * p)
