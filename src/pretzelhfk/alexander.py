"""Independent Alexander-polynomial oracle via Wirtinger presentations and Fox calculus.

The pretzel diagram (three vertical twist bands, closed cyclically at top
and bottom) is written band by band in closed form, each crossing once as a
`Crossing` NamedTuple made in C (`_replace` changes a field: it is not a
dataclass); the Alexander polynomial is a minor of its Fox matrix over Z[t, 1/t].

That matrix is never built.  Inside a band the crossings chain:
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

Nor is that minor expanded.  Which band ends are y_0, y_1, y_n and y_{n+1},
and so how the closure glues the relations, depends on the twists' signs
alone, so each of the eight sign classes has one form in `_FORMS`: the
minor's determinant, expanded once symbolically with each band's S_n, S_{n+1}
and row unit t^-lo (lo <= 0 the least prefix sum) as free symbols.  So a form
holds for any exponents and bands of any parity and length: a single crossing
(S_1 = 1) changes the minor only by a unit.

The form runs on Python integers, once, at t = X = 2^K.  Every term takes
one of t^-lo, t^-lo S_n and t^-lo S_{n+1}, polynomials in t, from each band
with coefficient +-1, so the value's L1 norm is at most the product over the
bands of 1 + n + (n + 1).  K = bit_length(that bound) + 2, rounded up to
whole bytes, puts each coefficient in (-X/2, X/2): the balanced base-X
digits of the value are its coefficients, decoded once at the end.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, cycle, repeat
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


# The minor without the last band's last relation and the first band's y_0
# column, up to a unit, in each band's u = t^-lo, s = t^-lo S_n and
# x = t^-lo S_{n+1}; keyed by (p > 0, q > 0, r > 0).
_FORMS = {
    (1, 1, 1): lambda u0, s0, x0, u1, s1, x1, u2, s2, x2: (u1 - x1) * (u0 * (u2 - s2) - x0 * u2) + u1 * s0 * s2,
    (0, 0, 0): lambda u0, s0, x0, u1, s1, x1, u2, s2, x2: (u0 - x0) * (u2 * (u1 - x1) - u1 * s2) + u0 * s1 * s2,
    (1, 1, 0): lambda u0, s0, x0, u1, s1, x1, u2, s2, x2: s2 * (u0 * (x1 - u1) + u1 * s0) - u2 * s0 * s1,
    (0, 0, 1): lambda u0, s0, x0, u1, s1, x1, u2, s2, x2: s2 * (u0 * (s1 - u1) + u1 * x0) - u2 * s0 * s1,
    (1, 0, 1): lambda u0, s0, x0, u1, s1, x1, u2, s2, x2: s1 * (u0 * (s2 - u2) + u2 * x0) - u1 * s0 * s2,
    (1, 0, 0): lambda u0, s0, x0, u1, s1, x1, u2, s2, x2: s0 * (u1 * (s2 - u2) + u2 * x1) - u0 * s1 * s2,
    (0, 1, 1): lambda u0, s0, x0, u1, s1, x1, u2, s2, x2: s0 * u2 * (x1 - u1) + s2 * (u1 * x0 - u0 * x1),
    (0, 1, 0): lambda u0, s0, x0, u1, s1, x1, u2, s2, x2: s1 * u2 * (x0 - u0) + s2 * (u0 * x1 - u1 * x0),
}


def fox_alexander(d: PretzelDiagram) -> Tuple[int, ...]:
    """Normalized Alexander polynomial (a_0, ..., a_g) of the diagram via Fox calculus.

    The crossings are read in band order, |p|, |q| and |r| of them, each band
    transposed once into field tuples.  A band must chain (crossing j+1 passes
    under the arc crossing j emitted, and its incoming arc is crossing j's
    over-arc), and each band's top and bottom arcs on the right must be the
    next band's on the left, as the closure glues them, else a DiagramError is
    raised.  The sign class's form is evaluated at t = 2^K.
    """
    if 0 in d.twists or len(d.crossings) != sum(map(abs, d.twists)):
        raise DiagramError(f"{len(d.crossings)} crossings for twists {d.twists}")
    lefts, rights, transfers, arcs, relations, bound = [], [], [], set(), 0, 1  # ends: (top, bottom)
    for twist, end in zip(d.twists, accumulate(map(abs, d.twists))):
        n = abs(twist)
        overs, incomings, outgoings, exponents = zip(*d.crossings[end - n : end])
        if incomings[1:] != overs[:-1] or overs[1:] != outgoings[:-1]:
            raise DiagramError(f"the crossings of the {twist}-twist band do not chain")
        # y_1 enters at the top and y_{n+1} leaves at the bottom on side L for a positive twist
        over_side, under_side = (overs[0], outgoings[-1]), (incomings[0], overs[-1])
        lefts.append(over_side if twist > 0 else under_side)
        rights.append(under_side if twist > 0 else over_side)
        arcs.update(over_side, under_side)
        relations += 1 if n == 1 else 2
        bound *= 2 * n + 2  # ||t^-lo|| + ||S_n|| + ||S_{n+1}|| for one band
        lo, _, s_n = _band_transfer(exponents)
        transfers.append((lo, s_n, -1 if n % 2 else 1, sum(exponents) - lo))
    if len(arcs) != relations:
        raise DiagramError("arc/relation count mismatch; diagram is not a knot diagram")
    if rights[-1:] + rights[:-1] != lefts:  # each band's right ends are the next band's left ends
        raise DiagramError(f"the band ends of P{d.twists} are not glued as the closure glues them")
    bits = _digit_bits(bound)
    values = []
    for lo, s_n, sign, top in transfers:  # S_{n+1} = S_n + (-1)^n t^(e_0 + ... + e_{n-1})
        s = _evaluate(s_n, bits)
        values += (1 << bits * -lo, s, s + (sign << bits * top))
    p, q, r = d.twists
    return normalize_alexander(_decode(_FORMS[p > 0, q > 0, r > 0](*values), bits))


def pretzel_determinant(p: int, q: int, r: int) -> int:
    """|Delta(-1)| for the pretzel knot: |pq + qr + rp|."""
    return abs(p * q + q * r + r * p)
