"""Half-integer gradings, bigraded rank tables and Alexander polynomials.

Everything downstream (pairing formulas, the Fox-calculus oracle, the
verification predicates) is built on the types in this module.  All values are
immutable after construction and all operations are pure.

A delta grading is a `HalfInteger`, a NamedTuple made in C: it hashes as the
1-tuple of its field, but it is equal only to another HalfInteger and ordered
only against one.

An Alexander polynomial is kept Conway-normalized, hence symmetric, as one
tuple (a_0, a_1, ..., a_g) with Delta = a_0 + sum a_i (t^i + t^-i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress, count
from operator import itemgetter, neg
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from .curves import TangleParams


# the two parts of an (s, delta) cell key, read in C
cell_alexander = itemgetter(0)
cell_delta = itemgetter(1)


class AlgebraError(ValueError):
    """Raised when an algebraic precondition fails (bad normalization, etc.)."""


# __eq__ and __ne__ of each NamedTuple here: equal only to one of its own type, never
# to a plain tuple; typing.NamedTuple keeps tuple.__hash__ when they are set
def same_type_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def same_type_ne(self, other) -> bool:
    return type(other) is not type(self) or tuple.__ne__(self, other)


def _among_half_integers(op: str, compare):
    """A HalfInteger comparison that raises TypeError against any other type."""

    def method(self, other) -> bool:
        if type(other) is not HalfInteger:
            raise TypeError(
                f"'{op}' not supported between instances of "
                f"{type(self).__name__!r} and {type(other).__name__!r}"
            )
        return compare(self, other)

    return method


class HalfInteger(NamedTuple):
    """An exact half-integer, stored as twice its value.

    Used for the (relative) delta gradings, which take values such as
    -1/2, 1/2, 3/2.  Ordered by value.  Never equal to a plain tuple, and
    ordering against any other type raises TypeError (tuple's own comparison
    would otherwise answer for a reflected one).
    """

    twice: int

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    __eq__, __ne__ = same_type_eq, same_type_ne  # hash stays hash((twice,)): sets of deltas keep their order
    __lt__ = _among_half_integers("<", tuple.__lt__)
    __le__ = _among_half_integers("<=", tuple.__le__)
    __gt__ = _among_half_integers(">", tuple.__gt__)
    __ge__ = _among_half_integers(">=", tuple.__ge__)


def normalize_alexander(cs: Sequence[int]) -> Tuple[int, ...]:
    """Conway-normalize an Alexander polynomial known only up to +-t^k.

    cs holds the coefficients of p at consecutive powers of t, from any power.
    Returns (a_0, a_1, ..., a_g) with Delta = a_0 + sum a_i (t^i + t^-i) =
    +-t^k p and Delta(1) = 1.  Raises AlgebraError if p is zero, p(1) != +-1,
    or no symmetrizing unit exists.
    """
    first = next(compress(count(), cs), None)  # scans stop at the first nonzero
    if first is None:
        raise AlgebraError("cannot normalize the zero polynomial")
    last = len(cs) - next(compress(count(), reversed(cs)))
    cs = list(cs[first:last])
    value = sum(cs)
    if abs(value) != 1:
        raise AlgebraError(f"p(1) = {value} is not a unit; not a knot polynomial")
    if len(cs) % 2 == 0:
        raise AlgebraError("no symmetrizing unit exists (odd exponent span)")
    if cs != cs[::-1]:
        raise AlgebraError("polynomial is not symmetrizable")
    half = cs[len(cs) // 2 :]
    return tuple(half) if value == 1 else tuple(map(neg, half))


def alexander_terms(alex: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """(exponent, coefficient) of each nonzero term of Delta, from t^-g up.

    alex is (a_0, a_1, ..., a_g); the terms are paired up in C.
    """
    coeffs = tuple(alex[:0:-1]) + tuple(alex)
    return zip(compress(range(1 - len(alex), len(alex)), coeffs), filter(None, coeffs))


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
        out = _new_multiset()
        out._set_runs(runs)
        return out

    @property
    def entries(self) -> Dict[Tuple[int, HalfInteger], int]:
        """Rank per (alexander, delta) cell, summed by cells_of_runs on first access."""
        if self._entries is None:
            self._entries = cells_of_runs(self.runs)
        return self._entries

    def add(self, other: "GeneratorMultiset") -> "GeneratorMultiset":
        return GeneratorMultiset.of_runs(self.runs + other.runs)

    def __reduce__(self):
        # rebuilt from its runs, so every pickle protocol works despite __slots__
        return GeneratorMultiset.of_runs, (self.runs,)

    @property
    def total_rank(self) -> int:
        total = 0  # a plain loop: no generator frame for the few runs of a curve
        for lo, hi, _, rk in self.runs:
            total += (hi - lo + 1) * rk
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratorMultiset):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        items = sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        body = ", ".join(f"(s={s}, d={d}): {rk}" for (s, d), rk in items)
        return f"GeneratorMultiset({{{body}}})"


_new_multiset = partial(object.__new__, GeneratorMultiset)


def single_run(lo: int, hi: int, delta: HalfInteger) -> GeneratorMultiset:
    """One generator at each Alexander grading lo..hi (none if lo > hi), with no class lookup."""
    out = _new_multiset()
    out.runs = ((lo, hi, delta, 1),) if lo <= hi else ()
    out._entries = None
    return out


def cells_of_runs(runs: Iterable[Tuple[int, int, HalfInteger, int]]) -> Dict[Tuple[int, HalfInteger], int]:
    """Rank per (alexander, delta) cell of runs, each nonempty with a rank >= 0.

    One sorted walk per delta over a sparse difference map {edge: rank change},
    keyed by the int 2*delta, writes the cells between consecutive edges, so
    time and memory go with the runs, not the span.  Cells come in first-seen
    delta order, then ascending s, and keep the first-seen HalfInteger object;
    zero-rank cells are left out.
    """
    diffs: Dict[int, Dict[int, int]] = {}
    first: Dict[int, HalfInteger] = {}
    for lo, hi, d, rk in runs:
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
    return out


@dataclass(frozen=True)
class HfkTable:
    """The assembled knot Floer homology: rank per (Alexander, relative delta).

    Every cell's rank is positive, as compute_hfk writes it; a zero-rank cell
    is outside this contract, and the checks may count it as support.
    """

    params: TangleParams
    entries: Mapping[Tuple[int, HalfInteger], int]

    @property
    def total_rank(self) -> int:
        return sum(self.entries.values())

    def rank(self, s: int, delta: HalfInteger) -> int:
        return self.entries.get((s, delta), 0)

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
    # offset chosen so that s - delta + offset is an integer; one loop reads
    # the cells after C-level scans for the lowest and highest grading
    offset = next(iter(entries))[1].twice
    low = min(map(cell_alexander, entries))
    out = [0] * (max(map(cell_alexander, entries)) - low + 1)
    for (s, d), rk in entries.items():
        shift = d.twice - offset
        if shift % 2:
            raise AlgebraError("delta gradings are not mutually integer-spaced")
        out[s - low] += -rk if (s - shift // 2) % 2 else rk
    return out
