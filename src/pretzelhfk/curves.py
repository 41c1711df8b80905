"""Graded immersed-curve lists for the (2a,-2b-1)-pretzel tangle.

The tangle invariant is a ladder of "special" curves i_k(1,4), a rational
middle and the ladder's grading reversal, the curves i_k(2,3).  The ladder's
length and the middle depend on how a compares to b: when a <= b the middle is
2(b-a)+1 parallel curves of slope 1/2a, and when a > b it is one curve of
slope -A/B.  Each curve carries the minimal and maximal Alexander grading
(m, M) of its intersections with the parametrizing square, and is checked once,
by `GradedCurve.__init__`, however it is made (`dataclasses.replace` included).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple


class CurveError(ValueError):
    """Raised on invalid tangle parameters or malformed curves."""


@dataclass(frozen=True)
class ReducedSlope:
    """A finite slope numerator/denominator in lowest terms, denominator >= 1."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise CurveError("denominator must be positive")
        if math.gcd(abs(self.numerator), self.denominator) != 1:
            raise CurveError("slope must be in lowest terms")

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class CurveKind(Enum):
    RATIONAL = "rational"
    SPECIAL14 = "special14"
    SPECIAL23 = "special23"


# CPython 3.11's EnumType defines __getattr__, so a CurveKind.X read takes its slow
# hook (0.1-0.2 us on x86-64, a module name 0.02 us); per-curve code reads these
RATIONAL, SPECIAL14, SPECIAL23 = CurveKind.RATIONAL, CurveKind.SPECIAL14, CurveKind.SPECIAL23


@dataclass(frozen=True, init=False)
class GradedCurve:
    """One component of the tangle invariant with its Alexander decoration.

    m and M are the minimal/maximal Alexander labels (always even here).
    Special curves of index k span M - m = 4k.  __init__ is the only check
    (no __post_init__) and stores the five fields in one step.
    """

    kind: CurveKind
    m: int
    M: int
    slope: Optional[ReducedSlope] = None
    k: Optional[int] = None

    def __init__(self, kind: CurveKind, m: int, M: int,
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
        object.__setattr__(self, "__dict__", {"kind": kind, "m": m, "M": M, "slope": slope, "k": k})

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


@dataclass(frozen=True)
class TangleParams:
    """The pretzel parameters (a, b, c) plus the sign of the third band.

    Positive closure means the third strand carries +(2c+1) twists and the
    pairing uses r(-1/(2c+1)); negative closure means -(2c+1) twists and
    r(+1/(2c+1)).
    """

    a: int
    b: int
    c: int
    sign: str  # "+" or "-"

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if type(value) is not int:  # a bool is an int subclass, and is refused too
                raise CurveError(f"{name} must be an int, not {value!r}")
        if self.a < 1 or self.b < 1 or self.c < 1:
            raise CurveError("a, b, c must all be at least 1")
        if self.sign not in ("+", "-"):
            raise CurveError("sign must be '+' or '-'")

    @property
    def positive_closure(self) -> bool:
        return self.sign == "+"

    def pretzel_triple(self) -> Tuple[int, int, int]:
        """The classical pretzel twist parameters (p, q, r)."""
        third = (2 * self.c + 1) if self.positive_closure else -(2 * self.c + 1)
        return (2 * self.a, -2 * self.b - 1, third)


def case_of(a: int, b: int) -> CaseLabel:
    if a < 1 or b < 1:
        raise CurveError("a and b must be positive")
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
    if case_of(a, b) is CaseLabel.CASE_I:
        raise CurveError(f"slope_AB requires a > b, got a={a}, b={b}")
    A = 2 * (a - b) - 1
    B = 4 * b * (a - b - 1) + 2 * a
    M = 2 * b + 2
    return A, B, M


@functools.lru_cache(maxsize=1, typed=True)
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
    caller cannot change what the next one gets.  typed=True keeps (True, 1)
    and (3.0, 1) raising after (1, 1) and (3, 1) were cached.  The rational
    curves of an a <= b list share one frozen ReducedSlope(1, 2a).
    """
    for name, value in (("a", a), ("b", b)):
        if type(value) is not int or value < 1:  # TangleParams' rule: a bool is refused too
            raise CurveError(f"{name} must be an int of at least 1, not {value!r}")
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
