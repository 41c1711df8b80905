"""Graded immersed-curve lists for the (2a,-2b-1)-pretzel tangle.

The tangle invariant consists of "special" curves i_k(1,4) / i_k(2,3) and one
family of rational curves, with the exact list depending on how a compares to
b (three cases).  Each curve carries the minimal and maximal Alexander grading
(m, M) of its intersections with the parametrizing square.
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
    """A reduced fraction numerator/denominator; 1/0 encodes infinity."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 0:
            raise CurveError("denominator must be non-negative")
        if self.denominator == 0 and abs(self.numerator) != 1:
            raise CurveError("infinite slope must be 1/0")
        if self.denominator > 0 and math.gcd(abs(self.numerator), self.denominator) != 1:
            raise CurveError("slope must be in lowest terms")

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        return f"{self.numerator}/{self.denominator}"


class CurveKind(Enum):
    RATIONAL = "rational"
    SPECIAL14 = "special14"
    SPECIAL23 = "special23"


@dataclass(frozen=True)
class GradedCurve:
    """One component of the tangle invariant with its Alexander decoration.

    m and M are the minimal/maximal Alexander labels (always even here).
    Special curves of index k span M - m = 4k.
    """

    kind: CurveKind
    m: int
    M: int
    slope: Optional[ReducedSlope] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind is CurveKind.RATIONAL:
            # closure curves of odd slope carry odd gradings, so only the
            # parity agreement of m and M is required here
            if (self.M - self.m) % 2:
                raise CurveError("curve grading span must be even")
            if self.slope is None or self.k is not None:
                raise CurveError("rational curve needs a slope and no index")
        else:
            if self.m % 2 or self.M % 2:
                raise CurveError("special curve gradings must be even")
            if self.k is None or self.k < 1 or self.slope is not None:
                raise CurveError("special curve needs a positive index and no slope")
            if self.M - self.m != 4 * self.k:
                raise CurveError(f"special curve span must be 4k, got {self.M - self.m}")

    @staticmethod
    def rational(num: int, den: int, m: int, M: int) -> "GradedCurve":
        return GradedCurve(CurveKind.RATIONAL, m, M, slope=ReducedSlope(num, den))

    @staticmethod
    def special14(k: int, m: int, M: int) -> "GradedCurve":
        return GradedCurve(CurveKind.SPECIAL14, m, M, k=k)

    @staticmethod
    def special23(k: int, m: int, M: int) -> "GradedCurve":
        return GradedCurve(CurveKind.SPECIAL23, m, M, k=k)

    def __str__(self) -> str:
        if self.kind is CurveKind.RATIONAL:
            head = f"r({self.slope})"
        else:
            pair = "(1,4)" if self.kind is CurveKind.SPECIAL14 else "(2,3)"
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
    """The (A, B, M) data of the general rational curve, defined only when a > b+1.

    A = 2(a-b)-1, B = 4b(a-b-1)+2a = A(2b+1)+1, M = 2b+2.
    """
    if case_of(a, b) is not CaseLabel.CASE_III:
        raise CurveError(f"slope_AB requires a > b + 1, got a={a}, b={b}")
    A = 2 * (a - b) - 1
    B = 4 * b * (a - b - 1) + 2 * a
    M = 2 * b + 2
    if B != A * (2 * b + 1) + 1 or math.gcd(A, B) != 1:
        raise CurveError(f"inconsistent general-slope data A={A}, B={B} at a={a}, b={b}")
    return A, B, M


@functools.lru_cache(maxsize=1, typed=True)
def pretzel_tangle_curves(a: int, b: int) -> Tuple[GradedCurve, ...]:
    """The full graded curve list for the (2a,-2b-1)-pretzel tangle, as a tuple.

    The list depends on (a, b) alone; c enters only when each curve is paired
    with the closure curve.  verify and a sweep over c ask for the same (a, b)
    again, so the last result is kept.  It is a tuple of frozen curves, so a
    caller cannot change what the next one gets.  typed=True keeps (3.0, 1)
    raising TypeError after (3, 1) was cached.
    """
    case = case_of(a, b)
    out: List[GradedCurve] = []
    if case is CaseLabel.CASE_I:
        for j in range(1, a):
            out.append(GradedCurve.special14(j, -2 * b - 2, 4 * j - 2 * b - 2))
            out.append(GradedCurve.special14(j, -2 * b, 4 * j - 2 * b))
        out.append(GradedCurve.special14(a, -2 * b - 2, 4 * a - 2 * b - 2))
        for m in range(-2 * b, 2 * b - 4 * a + 1, 2):
            out.append(GradedCurve.rational(1, 2 * a, m, m + 4 * a))
        out.append(GradedCurve.special23(a, 2 * b - 4 * a + 2, 2 * b + 2))
        for j in range(a - 1, 0, -1):
            out.append(GradedCurve.special23(j, 2 * b - 4 * j, 2 * b))
            out.append(GradedCurve.special23(j, 2 * b - 4 * j + 2, 2 * b + 2))
    elif case is CaseLabel.CASE_II:
        for j in range(1, a):
            out.append(GradedCurve.special14(j, -2 * a, 4 * j - 2 * a))
            out.append(GradedCurve.special14(j, -2 * a + 2, 4 * j - 2 * a + 2))
        out.append(GradedCurve.rational(-1, 2 * a, -2 * a, 2 * a))
        for j in range(a - 1, 0, -1):
            out.append(GradedCurve.special23(j, 2 * a - 4 * j - 2, 2 * a - 2))
            out.append(GradedCurve.special23(j, 2 * a - 4 * j, 2 * a))
    else:
        A, B, M = slope_AB(a, b)
        for j in range(1, b + 1):
            out.append(GradedCurve.special14(j, -2 * b - 2, 4 * j - 2 * b - 2))
            out.append(GradedCurve.special14(j, -2 * b, 4 * j - 2 * b))
        out.append(GradedCurve.rational(-A, B, -M, M))
        out.append(GradedCurve.special23(b, -2 * b, 2 * b))
        out.append(GradedCurve.special23(b, -2 * b + 2, 2 * b + 2))
        for j in range(b - 1, 0, -1):
            out.append(GradedCurve.special23(j, 2 * b - 4 * j, 2 * b))
            out.append(GradedCurve.special23(j, 2 * b - 4 * j + 2, 2 * b + 2))
    return tuple(out)
