"""Graded immersed-curve lists for the (2a,-2b-1)-pretzel tangle.

The tangle invariant is a ladder of "special" curves i_k(1,4), a rational
middle and the ladder's grading reversal, the curves i_k(2,3).  The ladder's
length and the middle depend on how a compares to b: when a <= b the middle is
2(b-a)+1 parallel curves of slope 1/2a, and when a > b it is one curve of
slope -A/B.  Each curve carries the minimal and maximal Alexander grading
(m, M) of its intersections with the parametrizing square, and is checked once,
by `GradedCurve.__new__`, however it is made (`_replace` and unpickling included).
The three records here are tuples, each checked in its one `__new__`.
TangleParams checks a knot's parameters; the functions here take checked values.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum
from typing import List, Optional, Tuple


class CurveError(ValueError):
    """Raised on invalid tangle parameters or malformed curves."""


# tuple.__new__(cls, fields) stores a checked record's fields without a second check
_tuple_new = tuple.__new__


class _Checked:
    """Sends namedtuple's _make (so _replace) and unpickling, at every pickle
    protocol, through the record's checking __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class ReducedSlope(_Checked, namedtuple("ReducedSlope", "numerator denominator")):
    """A finite slope numerator/denominator in lowest terms, denominator >= 1."""

    __slots__ = ()

    def __new__(cls, numerator: int, denominator: int):
        if denominator < 1:
            raise CurveError("denominator must be positive")
        if math.gcd(abs(numerator), denominator) != 1:
            raise CurveError("slope must be in lowest terms")
        return _tuple_new(cls, (numerator, denominator))

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class CurveKind(Enum):
    RATIONAL = "rational"
    SPECIAL14 = "special14"
    SPECIAL23 = "special23"


# CPython 3.11's EnumType defines __getattr__, so a CurveKind.X read takes its slow
# hook (0.1-0.2 us on x86-64, a module name 0.02 us); per-curve code reads these
RATIONAL, SPECIAL14, SPECIAL23 = CurveKind.RATIONAL, CurveKind.SPECIAL14, CurveKind.SPECIAL23


class GradedCurve(_Checked, namedtuple("GradedCurve", "kind m M slope k")):
    """One component of the tangle invariant with its Alexander decoration.

    m and M are the minimal/maximal Alexander labels (always even here).
    Special curves of index k span M - m = 4k.  __new__ is the only check.
    """

    __slots__ = ()

    def __new__(cls, kind: CurveKind, m: int, M: int,
                slope: Optional[ReducedSlope] = None, k: Optional[int] = None):
        if kind is RATIONAL:
            # closure curves of odd slope carry odd gradings, so only the
            # parity agreement of m and M is required here
            if (M - m) % 2:
                raise CurveError("curve grading span must be even")
            if slope is None or k is not None:
                raise CurveError("rational curve needs a slope and no index")
        elif kind is SPECIAL14 or kind is SPECIAL23:
            if m % 2 or M % 2:
                raise CurveError("special curve gradings must be even")
            if k is None or k < 1 or slope is not None:
                raise CurveError("special curve needs a positive index and no slope")
            if M - m != 4 * k:
                raise CurveError(f"special curve span must be 4k, got {M - m}")
        else:
            raise CurveError(f"curve kind must be a CurveKind member, not {kind!r}")
        return _tuple_new(cls, (kind, m, M, slope, k))

    @staticmethod
    def rational(num: int, den: int, m: int, M: int) -> "GradedCurve":
        return GradedCurve(RATIONAL, m, M, ReducedSlope(num, den))

    def __str__(self) -> str:
        if self.kind is RATIONAL:
            head = f"r({self.slope})"
        else:
            pair = "(1,4)" if self.kind is SPECIAL14 else "(2,3)"
            head = f"i_{self.k}{pair}"
        return f"{head} t^{self.m} t^{self.M}"


class CaseLabel(Enum):
    CASE_I = "I"       # a <= b
    CASE_II = "II"     # a == b + 1
    CASE_III = "III"   # a > b + 1


class TangleParams(_Checked, namedtuple("TangleParams", "a b c sign")):
    """The pretzel parameters (a, b, c) plus the sign of the third band.

    Positive closure means the third strand carries +(2c+1) twists and the
    pairing uses r(-1/(2c+1)); negative closure means -(2c+1) twists and
    r(+1/(2c+1)).
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, sign: str):  # sign is "+" or "-"
        for name, value in (("a", a), ("b", b), ("c", c)):
            if type(value) is not int or value < 1:  # a bool is an int subclass, and is refused too
                raise CurveError(f"{name} must be an int of at least 1, not {value!r}")
        if sign not in ("+", "-"):
            raise CurveError(f"sign must be '+' or '-', not {sign!r}")
        return _tuple_new(cls, (a, b, c, sign))

    @property
    def positive_closure(self) -> bool:
        return self.sign == "+"

    def pretzel_triple(self) -> Tuple[int, int, int]:
        """The classical pretzel twist parameters (p, q, r)."""
        third = (2 * self.c + 1) if self.positive_closure else -(2 * self.c + 1)
        return (2 * self.a, -2 * self.b - 1, third)


def case_of(a: int, b: int) -> CaseLabel:
    if a <= b:
        return CaseLabel.CASE_I
    if a == b + 1:
        return CaseLabel.CASE_II
    return CaseLabel.CASE_III


def slope_AB(a: int, b: int) -> Tuple[int, int, int]:
    """The (A, B, M) data of the single rational curve r(-A/B) t^-M t^M, a > b.

    A = 2(a-b)-1, B = 4b(a-b-1)+2a = A(2b+1)+1, M = 2b+2, so (1, 2a, 2a) at
    a = b+1.  B = A(2b+1)+1 makes gcd(A, B) = 1; ReducedSlope rechecks it.
    """
    if a <= b:
        raise CurveError(f"slope_AB requires a > b, got a={a}, b={b}")
    A = 2 * (a - b) - 1
    B = 4 * b * (a - b - 1) + 2 * a
    M = 2 * b + 2
    return A, B, M


@functools.lru_cache(maxsize=1)
def pretzel_tangle_curves(a: int, b: int) -> Tuple[GradedCurve, ...]:
    """The full graded curve list for the (2a,-2b-1)-pretzel tangle, as a tuple.

    The list is the (1,4) ladder, then the rational middle, then the ladder's
    grading reversal.  The ladder holds, for j = 1..min(a-1, b), the curves
    i_j(1,4) t^(-2b-2) t^(4j-2b-2) and i_j(1,4) t^(-2b) t^(4j-2b), and when
    a <= b also i_a(1,4) t^(-2b-2) t^(4a-2b-2).  The middle is the curves
    r(1/2a) t^m t^(m+4a), m = -2b, ..., 2b-4a in steps of 2, when a <= b, and
    r(-A/B) t^-M t^M with (A, B, M) = slope_AB(a, b) when a > b.  Each ladder
    curve i_k(1,4) t^m t^M, in reverse order, gives the mirror curve i_k(2,3)
    t^-M t^-m.

    The list depends on (a, b) alone; c enters only when each curve is paired
    with the closure curve.  verify and a sweep over c ask for the same (a, b)
    again, so the last result is kept.  It is a tuple of frozen curves, so a
    caller cannot change what the next one gets.  The rational curves of an
    a <= b list share one frozen ReducedSlope(1, 2a).
    """
    specials: List[GradedCurve] = []
    for j in range(1, min(a - 1, b) + 1):
        specials.append(GradedCurve(SPECIAL14, -2 * b - 2, 4 * j - 2 * b - 2, None, j))
        specials.append(GradedCurve(SPECIAL14, -2 * b, 4 * j - 2 * b, None, j))
    if a <= b:
        specials.append(GradedCurve(SPECIAL14, -2 * b - 2, 4 * a - 2 * b - 2, None, a))
        slope = ReducedSlope(1, 2 * a)
        middle = [GradedCurve(RATIONAL, m, m + 4 * a, slope)
                  for m in range(-2 * b, 2 * b - 4 * a + 1, 2)]
    else:
        A, B, M = slope_AB(a, b)
        middle = [GradedCurve.rational(-A, B, -M, M)]
    mirror = [GradedCurve(SPECIAL23, -s.M, -s.m, None, s.k) for s in reversed(specials)]
    return tuple(specials + middle + mirror)
