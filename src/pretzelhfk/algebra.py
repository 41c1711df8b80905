"""Half-integer gradings, bigraded rank tables and Alexander polynomials.

Everything downstream (pairing formulas, the Fox-calculus oracle, the
verification predicates) is built on the types in this module.  All values are
immutable after construction and all operations are pure.

An Alexander polynomial is kept Conway-normalized, hence symmetric, as one
tuple (a_0, a_1, ..., a_g) with Delta = a_0 + sum a_i (t^i + t^-i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


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


def normalize_alexander(cs: Sequence[int]) -> Tuple[int, ...]:
    """Conway-normalize an Alexander polynomial known only up to +-t^k.

    cs holds the coefficients of p at consecutive powers of t, from any power.
    Returns (a_0, a_1, ..., a_g) with Delta = a_0 + sum a_i (t^i + t^-i) =
    +-t^k p and Delta(1) = 1.  Raises AlgebraError if p is zero, p(1) != +-1,
    or no symmetrizing unit exists.
    """
    support = [i for i, c in enumerate(cs) if c]
    if not support:
        raise AlgebraError("cannot normalize the zero polynomial")
    cs = list(cs[support[0] : support[-1] + 1])
    value = sum(cs)
    if abs(value) != 1:
        raise AlgebraError(f"p(1) = {value} is not a unit; not a knot polynomial")
    if len(cs) % 2 == 0:
        raise AlgebraError("no symmetrizing unit exists (odd exponent span)")
    if cs != cs[::-1]:
        raise AlgebraError("polynomial is not symmetrizable")
    return tuple(value * c for c in cs[len(cs) // 2 :])


# -- bigraded generator bookkeeping --------------------------------------


class GeneratorMultiset:
    """Multiset of bigraded generators (alexander, delta) with multiplicities.

    Stored as constant-rank runs (lo, hi, delta, rank), which may overlap; the
    per-cell `entries` are summed once, on first access, in time and memory
    that grow with the number of runs and cells, never with the span of the
    gradings.  Alexander gradings are plain integers: unhalved labels before
    the pair reduction, final gradings after it.  Ranks are never negative.
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
    def interval(lo: int, hi: int, delta: HalfInteger) -> "GeneratorMultiset":
        """One generator at each Alexander grading lo..hi (empty if lo > hi)."""
        out = GeneratorMultiset.__new__(GeneratorMultiset)
        out.runs = ((lo, hi, delta, 1),) if lo <= hi else ()
        out._entries = None
        return out

    @property
    def entries(self) -> Dict[Tuple[int, HalfInteger], int]:
        """Rank per (alexander, delta) cell, summed in one sorted walk per delta.

        Each delta gets a sparse difference map {edge: rank change}, keyed by
        the int 2*delta; the walk writes the cells between consecutive edges
        straight out, so time and memory go with the runs, not with the span.
        Cells come in first-seen delta order, then ascending s, and keep the
        first-seen HalfInteger object; zero-rank cells are left out.
        """
        if self._entries is None:
            diffs: Dict[int, Dict[int, int]] = {}
            first: Dict[int, HalfInteger] = {}
            for lo, hi, d, rk in self.runs:
                diff = diffs.get(d.twice)
                if diff is None:
                    diff = diffs[d.twice] = {}
                    first[d.twice] = d
                diff[lo] = diff.get(lo, 0) + rk
                diff[hi + 1] = diff.get(hi + 1, 0) - rk
            out: Dict[Tuple[int, HalfInteger], int] = {}
            for twice, diff in diffs.items():
                d = first[twice]
                rk = start = 0
                for edge in sorted(diff):
                    if rk:
                        for s in range(start, edge):
                            out[s, d] = rk
                    rk += diff[edge]
                    start = edge
            self._entries = out
        return self._entries

    def add(self, other: "GeneratorMultiset") -> "GeneratorMultiset":
        return GeneratorMultiset.of_runs(self.runs + other.runs)

    @property
    def total_rank(self) -> int:
        total = 0  # a plain loop: no generator frame for the few runs of a curve
        for lo, hi, _, rk in self.runs:
            total += (hi - lo + 1) * rk
        return total

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


def euler_characteristic(h: HfkTable | GeneratorMultiset) -> List[int]:
    """Graded Euler characteristic sum_{s,delta} (-1)^(s-delta) rk t^s.

    Returns its coefficients at t^low, t^(low+1), ..., t^high for the lowest
    and highest Alexander gradings of the table ([] for an empty table).
    Delta gradings are relative, so the overall sign is free; we fix the sign
    convention by one arbitrary global delta offset and leave the final
    normalization to normalize_alexander.  Raises AlgebraError if the deltas
    are not mutually integer-spaced.
    """
    entries = h.entries
    if not entries:
        return []
    parities = {d.twice % 2 for (_, d) in entries}
    if len(parities) > 1:
        raise AlgebraError("delta gradings are not mutually integer-spaced")
    # offset chosen so that s - delta + offset is an integer
    offset = next(iter(entries))[1]
    low = min(s for s, _ in entries)
    out = [0] * (max(s for s, _ in entries) - low + 1)
    for (s, d), rk in entries.items():
        exp_sign = s - (d.twice - offset.twice) // 2
        out[s - low] += rk if exp_sign % 2 == 0 else -rk
    return out
