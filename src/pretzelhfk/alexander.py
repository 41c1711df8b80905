"""Independent Alexander-polynomial oracle via Wirtinger presentations and Fox calculus.

The pretzel diagram (three vertical twist bands, closed cyclically at top
and bottom) is written band by band in closed form, each crossing once as a
`Crossing` NamedTuple made in C (`_replace` changes a field: it is not a
dataclass) with its exponent from one constant table keyed by the even band,
and the closure glues each band's right ends to the next band's left ends
through one six-entry map; the Alexander polynomial is a minor of its Fox
matrix over Z[t, 1/t].

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
bands of 1 + n + (n + 1).  K >= bit_length(that bound) + 2 puts each
coefficient in (-X/2, X/2): the value's balanced base-X digits, packed and
decoded by one `struct` call each, are its coefficients.  Each n >= 1 makes
the bound at least 4^3 = 64, so K >= 9: K is 16, 32 or 64m.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, cycle, repeat
from operator import add, and_, lshift, or_, rshift, sub
from typing import List, NamedTuple, Sequence, Tuple

from .algebra import normalize_alexander, same_type_eq, same_type_ne


class DiagramError(ValueError):
    """Raised for link (non-knot) inputs or degenerate twist parameters."""


class Crossing(NamedTuple):
    """One Wirtinger crossing: under-arc `incoming` passes under `over` and re-emerges
    as `outgoing`, with exponent `exponent` (+-1); never equal to a plain tuple."""

    over: int
    incoming: int
    outgoing: int
    exponent: int

    __eq__, __ne__ = same_type_eq, same_type_ne


@dataclass(frozen=True)
class PretzelDiagram:
    twists: Tuple[int, int, int]
    crossings: Tuple[Crossing, ...]


# Each band's exponents (e_0, e_1) for a positive twist, by which band is even:
# the closure runs the even band's strands opposite ways, each odd band's the
# same way, the lower-indexed odd band down.  A negative twist negates each
# crossing's sign and swaps the under-strand: an odd band's pair is negated.
_EXPONENTS = (
    ((-1, 1), (-1, -1), (1, 1)),
    ((-1, -1), (1, -1), (1, 1)),
    ((-1, -1), (1, 1), (-1, 1)),
)


def build_pretzel_diagram(p: int, q: int, r: int) -> PretzelDiagram:
    """Combinatorial pretzel diagram P(p, q, r), none zero, with exactly one
    even band: two or three even bands make a link, and the all-odd knots are
    not covered.

    Each band is written in closed form.  Its over-strand enters at the top on
    side L for a positive twist, else R; its arcs are y_0 and y_1 (top, under
    and over side), then y_2, ..., y_{n+1}, one per crossing, and crossing j
    is Crossing(over=y_{j+1}, incoming=y_j, outgoing=y_{j+2}, exponent=
    e_{j mod 2}), made in C.  The strands swap sides at each crossing, and
    which way each runs depends only on which band is even, so the pair
    (e_0, e_1) is read from the constant `_EXPONENTS`, negated for an odd band
    with a negative twist.  Raw labels count the bands in order (top L, top R,
    then one per crossing).  The closure maps each band's top and bottom right
    ends to the next band's left ends; a band end's representative is where
    that map leads, and every arc is relabelled by the rank of its
    representative among the unmapped, so there are as many arcs as crossings.
    """
    twists = (p, q, r)
    if 0 in twists:
        raise DiagramError("zero twist bands are not supported")
    parities = [t % 2 for t in twists]
    if parities.count(0) > 1:
        raise DiagramError(f"P{twists} is a link, not a knot")
    if 0 not in parities:
        raise DiagramError(f"P{twists} has no even band: the oracle covers only knots "
                           "with exactly one even band")
    pairs = _EXPONENTS[parities.index(0)]

    tops, bottoms, bands = [], [], []  # bands: (twist, start, raw y_0, y_1, y_n, y_{n+1})
    base = 0
    for t in twists:
        n = abs(t)
        y0, y1 = (base + 1, base) if t > 0 else (base, base + 1)
        yn = y1 if n == 1 else base + n  # after n crossings: y_n under, y_{n+1} over side
        tops.append((base, base + 1))
        bottoms.append((base + n + 1, yn) if t > 0 else (yn, base + n + 1))
        bands.append((t, base, y0, y1, yn, base + n + 1))
        base += n + 2

    # a single crossing makes a bottom end a top end, so a chain of `glue` can take several steps
    glue = {end[1]: ends[(k + 1) % 3][0] for ends in (tops, bottoms) for k, end in enumerate(ends)}
    merged = sorted(glue)

    crossings: List[Crossing] = []
    new_crossing = partial(tuple.__new__, Crossing)
    for band, (t, start, *ends) in enumerate(bands):
        n = abs(t)
        e0, e1 = pairs[band]
        if t < 0 and n % 2:
            e0, e1 = -e0, -e1
        # interior arcs are their own representatives; below them lie two merged
        # labels per earlier band and this band's top right end
        y = [0, 0, *range(start + 1 - 2 * band, start + n + 1 - 2 * band)]
        for j, x in zip((0, 1, n, n + 1), ends):
            while x in glue:
                x = glue[x]
            y[j] = x - bisect_left(merged, x)
        crossings.extend(map(new_crossing, zip(y[1:], y, y[2:], cycle((e0, e1)))))

    return PretzelDiagram(twists=twists, crossings=tuple(crossings))


def _digit_bits(bound: int) -> int:
    """The smallest K in {16, 32} or 64m (m >= 1) with K >= bit_length(bound) + 2,
    so that coefficients at most `bound` in absolute value are base-2^K digits."""
    need = bound.bit_length() + 2
    return next((k for k in (16, 32) if k >= need), -(-need // 64) * 64)


def _layout(bits: int) -> Tuple[int, str]:
    """(m, code): a base-2^bits digit is m little-endian struct words of `code`."""
    if bits in (16, 32) or (bits > 0 and bits % 64 == 0):
        return max(bits // 64, 1), {16: "H", 32: "I"}.get(bits, "Q")
    raise ValueError(f"{bits}-bit digits: K must be 16, 32 or a multiple of 64")


def _evaluate(cs: Sequence[int], bits: int) -> int:
    """sum cs[i] X^i at X = 2^bits, for |cs[i]| < X/2 and bits from `_digit_bits`:
    X/2 is added to every coefficient, the digits are packed (word j of each
    as one strided slice) by one struct.pack, and X/2 is subtracted again."""
    m, code = _layout(bits)
    digits = words = list(map(add, cs, repeat(1 << (bits - 1))))
    if m > 1:
        words = digits * m
        for j in range(m):
            words[j::m] = map(and_, map(rshift, digits, repeat(64 * j)), repeat((1 << 64) - 1))
    raw = struct.pack(f"<{len(words)}{code}", *words)
    return int.from_bytes(raw, "little") - int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * len(cs), "little")


def _decode(value: int, bits: int) -> List[int]:
    """The balanced digits d_0, d_1, ..., in (-X/2, X/2), X = 2^bits, of
    value / X^low, where X^low is the largest power of X dividing `value`
    ([0] for 0); a top digit d_h makes |value| > X^h / 2, which bounds h.  The
    digits, X/2 high, come out of one struct.unpack, joined from their words."""
    m, code = _layout(bits)
    low = ((value & -value).bit_length() - 1) // bits if value else 0  # zero digits below X^low
    value >>= bits * low
    n = abs(value).bit_length() // bits + 1
    raw = (value + int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * n, "little")).to_bytes(n * bits // 8, "little")
    words = struct.unpack(f"<{n * m}{code}", raw)
    digits = words[m - 1 :: m]
    for j in range(m - 2, -1, -1):  # high word first
        digits = map(or_, map(lshift, digits, repeat(64)), words[j::m])
    return list(map(sub, digits, repeat(1 << (bits - 1))))


def _band_transfer(exponents: Sequence[int]) -> Tuple[int, List[int]]:
    """The product T_{e_{n-1}} ... T_{e_1} T_{e_0} over one band, in closed form.

    Crossing j gives y_{j+2} - y_{j+1} = -t^(e_j) (y_{j+1} - y_j), so
    y_{i+1} - y_i = u_i (y_1 - y_0) with u_i = (-1)^i t^(e_0 + ... + e_{i-1}),
    and y_m = (1 - S_m) y_0 + S_m y_1 with S_m = u_0 + ... + u_{m-1}.  The
    product maps (y_1, y_0) to (y_{n+1}, y_n), so its rows are
    (S_{n+1}, 1 - S_{n+1}) and (S_n, 1 - S_n), for any exponent sequence,
    with S_{n+1} = S_n + u_n; the empty band gives S_0 = 0 and S_1 = 1, the
    identity.  Returns (lo, S_n): S_n as the coefficient list of t^lo,
    t^(lo+1), ..., where lo <= 0 is the least prefix sum, long enough to hold
    u_n too.
    """
    n = len(exponents)
    sums = list(accumulate(exponents, initial=0))  # u_i = (-1)^i t^sums[i]
    lo = min(sums)
    cs = [0] * (max(sums) - lo + 1)
    for k in sums[:n:2]:
        cs[k - lo] += 1
    for k in sums[1:n:2]:
        cs[k - lo] -= 1
    return lo, cs


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
    over-arc), each band's top and bottom arcs on the right must be the next
    band's on the left, as the closure glues them, and the crossings must use
    one arc label each, else a DiagramError is raised.  The sign class's form
    is evaluated at t = 2^K.
    """
    if 0 in d.twists or len(d.crossings) != sum(map(abs, d.twists)):
        raise DiagramError(f"{len(d.crossings)} crossings for twists {d.twists}")
    p, q, r = d.twists
    # a band's ||t^-lo|| + ||S_n|| + ||S_{n+1}|| is at most 1 + n + (n + 1)
    bits = _digit_bits((2 * abs(p) + 2) * (2 * abs(q) + 2) * (2 * abs(r) + 2))
    lefts, rights, arcs, labels, relations, values = [], [], set(), set(), 0, []  # ends: (top, bottom)
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
        labels.update(overs)  # with the band's ends, every arc of a chained band
        relations += 1 if n == 1 else 2
        lo, s_n = _band_transfer(exponents)
        s = _evaluate(s_n, bits)  # S_{n+1} = S_n + (-1)^n t^(e_0 + ... + e_{n-1})
        values += (1 << bits * -lo, s, s + ((-1 if n % 2 else 1) << bits * (sum(exponents) - lo)))
    if len(arcs) != relations:
        raise DiagramError("arc/relation count mismatch; diagram is not a knot diagram")
    if rights[-1:] + rights[:-1] != lefts:  # each band's right ends are the next band's left ends
        raise DiagramError(f"the band ends of P{d.twists} are not glued as the closure glues them")
    if len(labels | arcs) != len(d.crossings):
        raise DiagramError(f"{len(labels | arcs)} arcs for {len(d.crossings)} crossings; diagram is not a knot diagram")
    return normalize_alexander(_decode(_FORMS[p > 0, q > 0, r > 0](*values), bits))


def pretzel_determinant(p: int, q: int, r: int) -> int:
    """|Delta(-1)| for the pretzel knot: |pq + qr + rp|."""
    return abs(p * q + q * r + r * p)
