"""Closed-form Lagrangian pairings of tangle curves with the closure curve.

Each function computes the "reduced" pairing of one tangle curve with the
rational closure curve r(-+1/(2c+1)): generator pairs whose Alexander labels
differ by 2 are merged into a single generator at half the averaged label.
Every pairing is given as at most four constant-rank runs: an interval, or
blocks alternating between neighbouring gradings, truncated at the
intersection count L given by the rational-curve determinant law.
TangleParams checks the closure sign and c; here only curve shapes are checked.

A pairing comes back as a `ReducedPairing`, a NamedTuple made in C (no
Python-level constructor runs), equal only to another ReducedPairing.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .algebra import GeneratorMultiset, HalfInteger, same_type_eq, same_type_ne, single_run
from .curves import SPECIAL14, SPECIAL23, GradedCurve, ReducedSlope

DELTA_MINUS_HALF = HalfInteger(-1)
DELTA_HALF = HalfInteger(1)
DELTA_THREE_HALVES = HalfInteger(3)


class PairingError(ValueError):
    """Raised on unpairable multisets or unsupported curve shapes."""


def _unordered(self, other) -> bool:
    raise TypeError(f"{type(self).__name__} is not ordered")


class ReducedPairing(NamedTuple):
    """Reduced Floer generators of one curve pairing, final gradings.

    A NamedTuple made in C, equal only to another ReducedPairing with equal
    generators; it is never ordered, and not hashable.
    """

    generators: GeneratorMultiset

    @property
    def total_rank(self) -> int:
        return self.generators.total_rank

    __eq__, __ne__ = same_type_eq, same_type_ne
    __lt__ = __le__ = __gt__ = __ge__ = _unordered


# _tuple_new(ReducedPairing, (gens,)) makes a ReducedPairing in C, no Python-level __new__
_tuple_new = tuple.__new__


def reduce_generator_pairs(unreduced: GeneratorMultiset) -> ReducedPairing:
    """Merge {alpha, alpha+2} pairs (per delta) into generators at (alpha+1)/2.

    The matching into such pairs is forced: processing Alexander labels in
    increasing order, every leftover generator at alpha must pair upward with
    one at alpha+2.  Raises PairingError if no perfect matching exists.
    """
    by_delta: Dict[HalfInteger, Dict[int, int]] = {}
    for (s, d), rk in unreduced.entries.items():
        by_delta.setdefault(d, {})[s] = rk
    out: Dict[Tuple[int, HalfInteger], int] = {}
    for delta in sorted(by_delta):
        counts = by_delta[delta]
        pending: Dict[int, int] = {}
        for alpha in sorted(counts):
            matched = pending.pop(alpha, 0)  # pairs {alpha-2, alpha}, forced
            if matched > counts[alpha]:
                raise PairingError(f"unpairable multiset at alexander grading {alpha}")
            if matched:
                if alpha % 2 == 0:
                    raise PairingError(f"pair {{{alpha - 2}, {alpha}}} has no integer reduction")
                key = ((alpha - 1) // 2, delta)  # midpoint alpha-1, then halved
                out[key] = out.get(key, 0) + matched
            if counts[alpha] > matched:
                pending[alpha + 2] = counts[alpha] - matched
        if any(pending.values()):
            raise PairingError(f"unpairable multiset, leftovers at {sorted(pending)}")
    return _tuple_new(ReducedPairing, (GeneratorMultiset(out),))


def pair_special14(closure: str, c: int, curve: GradedCurve) -> ReducedPairing:
    """Pairing with a special curve of (1,4) type: 2k generators at delta 1/2."""
    if curve.kind is not SPECIAL14:
        raise PairingError("curve is not special of (1,4) type")
    if closure == "-":
        return _tuple_new(ReducedPairing, (single_run(curve.m // 2 - c, curve.M // 2 - c - 1, DELTA_HALF),))
    return _tuple_new(ReducedPairing, (single_run(curve.m // 2 + c + 1, curve.M // 2 + c, DELTA_HALF),))


def pair_special23(closure: str, c: int, curve: GradedCurve) -> ReducedPairing:
    """Pairing with a special curve of (2,3) type: mirror of the (1,4) case."""
    if curve.kind is not SPECIAL23:
        raise PairingError("curve is not special of (2,3) type")
    if closure == "-":
        return _tuple_new(ReducedPairing, (single_run(curve.m // 2 + c + 1, curve.M // 2 + c, DELTA_HALF),))
    return _tuple_new(ReducedPairing, (single_run(curve.m // 2 - c, curve.M // 2 - c - 1, DELTA_HALF),))


def pair_rational_neg_half(closure: str, c: int, n: int, curve: GradedCurve) -> ReducedPairing:
    """Pairing with r(-1/2n) t^-2n t^2n by the Case III formula at A = 1; any other grading raises PairingError."""
    if (curve.m, curve.M) != (-2 * n, 2 * n):
        raise PairingError(f"r(-1/{2 * n}) needs the grading t^{-2 * n} t^{2 * n}, got {curve}")
    return pair_rational_general(closure, c, curve.slope, 2 * n)


def pair_rational_pos_half(closure: str, c: int, n: int, curve: GradedCurve) -> ReducedPairing:
    """Pairing with r(1/2n) t^m t^(m+4n); m need not be symmetric, the span must be 4n."""
    m, M = curve.m, curve.M
    if M - m != 4 * n:
        raise PairingError(f"r(1/{2 * n}) needs M - m = {4 * n}, got {curve}")
    if closure == "+":
        return _tuple_new(ReducedPairing, (single_run(m // 2 - c, M // 2 + c, DELTA_HALF),))
    if n > c:
        return _tuple_new(ReducedPairing, (single_run(m // 2 + c + 1, M // 2 - c - 1, DELTA_HALF),))
    return _tuple_new(ReducedPairing, (single_run(M // 2 - c, m // 2 + c, DELTA_THREE_HALVES),))


def _blocks(base0: int, step: int, A: int, L: int, delta: HalfInteger) -> GeneratorMultiset:
    """L generators in blocks of A alternating base / base + step, as runs.

    Block i puts ceil(A/2) generators at its base base0 + i and floor(A/2) at
    base + step; the last block is cut to the remainder of L.
    """
    full, rest = divmod(L, A)
    last = base0 + full
    return GeneratorMultiset.of_runs([
        (base0, last - 1, delta, (A + 1) // 2),
        (base0 + step, last - 1 + step, delta, A // 2),
        (last, last, delta, (rest + 1) // 2),
        (last + step, last + step, delta, rest // 2),
    ])


def pair_rational_general(closure: str, c: int, slope: ReducedSlope, M: int) -> ReducedPairing:
    """Pairing with the general rational curve r(-A/B) t^-M t^M of Case III."""
    A = -slope.numerator
    B = slope.denominator
    if A <= 0 or A % 2 == 0 or B % 2:
        raise PairingError(f"slope {slope} is not of the -A/B Case III shape")
    Ac = A * (2 * c + 1)  # odd, and B is even: the slopes never tie
    if closure == "-":
        gens = _blocks(-M // 2 - c, +1, A, B + Ac, DELTA_HALF)
    elif Ac > B:
        gens = _blocks(M // 2 - c, -1, A, Ac - B, DELTA_MINUS_HALF)
    else:
        gens = _blocks(-M // 2 + c + 1, +1, A, B - Ac, DELTA_HALF)
    return _tuple_new(ReducedPairing, (gens,))


def pair_curve(closure: str, c: int, curve: GradedCurve) -> ReducedPairing:
    """Dispatch a tangle curve to the matching closed-form pairing."""
    kind = curve.kind
    if kind is SPECIAL14:
        return pair_special14(closure, c, curve)
    if kind is SPECIAL23:
        return pair_special23(closure, c, curve)
    slope = curve.slope
    if slope.denominator % 2 == 0 and slope.numerator == 1:
        return pair_rational_pos_half(closure, c, slope.denominator // 2, curve)
    if slope.denominator % 2 == 0 and slope.numerator == -1:
        return pair_rational_neg_half(closure, c, slope.denominator // 2, curve)
    if slope.numerator < 0 and slope.denominator % 2 == 0:
        if curve.m != -curve.M:  # pair_rational_general reads only M
            raise PairingError(f"r({slope}) needs m = -M, got {curve}")
        return pair_rational_general(closure, c, slope, curve.M)
    raise PairingError(f"no pairing formula for rational slope {slope}")
