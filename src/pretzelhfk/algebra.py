"""Exact integer Laurent polynomials, half-integer gradings, and bigraded rank tables.

Everything downstream (pairing formulas, the Fox-calculus oracle, the
verification predicates) is built on the types in this module.  All values are
immutable after construction and all operations are pure.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, Mapping, Tuple


class AlgebraError(ValueError):
    """Raised when an algebraic precondition fails (bad normalization, etc.)."""


@dataclass(frozen=True, order=True)
class HalfInteger:
    """An exact half-integer, stored as twice its value.

    Used for the (relative) delta gradings, which take values such as
    -1/2, 1/2, 3/2.  Ordered by value.
    """

    twice: int

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


class LaurentPolynomial:
    """Integer-coefficient polynomial in t and 1/t.

    Stored as a map exponent -> coefficient with zero coefficients pruned.
    Instances are treated as immutable; all operators return new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        pruned = {e: c for e, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "coeffs", pruned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return LaurentPolynomial()

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_exp(self) -> int:
        if self.is_zero():
            raise AlgebraError("zero polynomial has no exponent range")
        return min(self.coeffs)

    @property
    def max_exp(self) -> int:
        if self.is_zero():
            raise AlgebraError("zero polynomial has no exponent range")
        return max(self.coeffs)

    def __getitem__(self, exp: int) -> int:
        return self.coeffs.get(exp, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial({e + k: c for e, c in self.coeffs.items()})

    def reciprocal(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        return LaurentPolynomial({-e: c for e, c in self.coeffs.items()})

    def eval_at_unit(self, at_minus_one: bool = False) -> int:
        """Exact evaluation at t = 1 or t = -1."""
        if not at_minus_one:
            return sum(self.coeffs.values())
        return sum(c if e % 2 == 0 else -c for e, c in self.coeffs.items())

    # -- display --------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                t = "t" if e == 1 else f"t^{e}"
                body = t if mag == 1 else f"{mag}*{t}"
            parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
        return "".join(parts)


def normalize_alexander(p: LaurentPolynomial) -> LaurentPolynomial:
    """Conway-normalize an Alexander polynomial known only up to +-t^k.

    Returns q = +-t^k p with q(t) = q(1/t) and q(1) = 1.  Raises
    AlgebraError if p is zero, p(1) != +-1, or no symmetrizing unit exists.
    """
    if p.is_zero():
        raise AlgebraError("cannot normalize the zero polynomial")
    if abs(p.eval_at_unit()) != 1:
        raise AlgebraError(f"p(1) = {p.eval_at_unit()} is not a unit; not a knot polynomial")
    span = p.min_exp + p.max_exp
    if span % 2 != 0:
        raise AlgebraError("no symmetrizing unit exists (odd exponent span)")
    q = p.shift(-span // 2)
    if q != q.reciprocal():
        raise AlgebraError("polynomial is not symmetrizable")
    if q.eval_at_unit() == -1:
        q = -q
    return q


# -- bigraded generator bookkeeping --------------------------------------


class GeneratorMultiset:
    """Multiset of bigraded generators (alexander, delta) with multiplicities.

    Stored as constant-rank runs (lo, hi, delta, rank), which may overlap; the
    per-cell `entries` are summed once, on first access.  Alexander gradings
    are plain integers: unhalved labels before the pair reduction, final
    gradings after it.  Ranks are never negative.
    """

    __slots__ = ("runs", "_entries")

    def __init__(self, entries: Mapping[Tuple[int, HalfInteger], int] | None = None):
        self._set_runs((s, s, d, rk) for (s, d), rk in (entries or {}).items())

    def _set_runs(self, runs: Iterable[Tuple[int, int, HalfInteger, int]]) -> None:
        self.runs = tuple(run for run in runs if run[3] and run[0] <= run[1])
        if any(rk < 0 for _, _, _, rk in self.runs):
            raise AlgebraError("negative rank in generator multiset")
        self._entries: Dict[Tuple[int, HalfInteger], int] | None = None

    @staticmethod
    def of_runs(runs: Iterable[Tuple[int, int, HalfInteger, int]]) -> "GeneratorMultiset":
        out = GeneratorMultiset.__new__(GeneratorMultiset)
        out._set_runs(runs)
        return out

    @staticmethod
    def from_generators(gens: Iterable[Tuple[int, HalfInteger]]) -> "GeneratorMultiset":
        return GeneratorMultiset(Counter(gens))

    @staticmethod
    def interval(lo: int, hi: int, delta: HalfInteger) -> "GeneratorMultiset":
        """One generator at each Alexander grading lo..hi (empty if lo > hi)."""
        return GeneratorMultiset.of_runs([(lo, hi, delta, 1)])

    @property
    def entries(self) -> Dict[Tuple[int, HalfInteger], int]:
        """Rank per (alexander, delta) cell, summed by a difference array per delta."""
        if self._entries is None:
            diffs: Dict[HalfInteger, Counter] = defaultdict(Counter)
            for lo, hi, d, rk in self.runs:
                diffs[d][lo] += rk
                diffs[d][hi + 1] -= rk
            self._entries = {}
            for d, diff in diffs.items():
                edges = sorted(diff)
                for lo, stop, rk in zip(edges, edges[1:], accumulate(diff[s] for s in edges)):
                    self._entries.update(((s, d), rk) for s in range(lo, stop) if rk)
        return self._entries

    def add(self, other: "GeneratorMultiset") -> "GeneratorMultiset":
        return GeneratorMultiset.of_runs(self.runs + other.runs)

    @property
    def total_rank(self) -> int:
        return sum((hi - lo + 1) * rk for lo, hi, _, rk in self.runs)

    def deltas(self) -> set:
        return {d for (_, _, d, _) in self.runs}

    def rank(self, s: int, delta: HalfInteger) -> int:
        return self.entries.get((s, delta), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratorMultiset):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        items = sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        body = ", ".join(f"(s={s}, d={d}): {rk}" for (s, d), rk in items)
        return f"GeneratorMultiset({{{body}}})"


@dataclass(frozen=True)
class HfkTable:
    """The assembled knot Floer homology: rank per (Alexander, relative delta)."""

    params: "object"  # TangleParams; kept loose to avoid an import cycle
    entries: Mapping[Tuple[int, HalfInteger], int]

    @property
    def total_rank(self) -> int:
        return sum(self.entries.values())

    def rank(self, s: int, delta: HalfInteger) -> int:
        return self.entries.get((s, delta), 0)

    def deltas(self) -> set:
        return {d for (_, d) in self.entries}

    def support(self, delta: HalfInteger) -> set:
        return {s for (s, d) in self.entries if d == delta}

    def rank_by_alexander(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for (s, _), rk in self.entries.items():
            out[s] = out.get(s, 0) + rk
        return out


def euler_characteristic(h: HfkTable | GeneratorMultiset) -> LaurentPolynomial:
    """Graded Euler characteristic sum_{s,delta} (-1)^(s-delta) rk t^s.

    Delta gradings are relative, so the overall sign is free; we fix the sign
    convention by one arbitrary global delta offset and leave the final
    normalization to normalize_alexander.  Raises AlgebraError if the deltas
    are not mutually integer-spaced.
    """
    entries = h.entries
    if not entries:
        return LaurentPolynomial.zero()
    parities = {d.twice % 2 for (_, d) in entries}
    if len(parities) > 1:
        raise AlgebraError("delta gradings are not mutually integer-spaced")
    # offset chosen so that s - delta + offset is an integer
    offset = next(iter(entries))[1]
    out: Dict[int, int] = {}
    for (s, d), rk in entries.items():
        exp_sign = s - (d.twice - offset.twice) // 2
        out[s] = out.get(s, 0) + (rk if exp_sign % 2 == 0 else -rk)
    return LaurentPolynomial(out)
