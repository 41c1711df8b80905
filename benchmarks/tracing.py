"""Spans around pretzelhfk's public functions, recorded from outside the package.

A wrapper replaces a function at the attribute its *caller* looks up.  The
package imports with ``from .x import y``, so ``hfk.pair_curve`` and
``pairing.pair_curve`` are separate bindings: patching the defining module
alone would record nothing for the calls made from ``hfk``.  The benchmark
itself calls the library through module attributes, so the same patches see
its calls too.

A span is ``[name, start, end, parent, op, count]``: ``parent`` indexes the
enclosing span (-1 at the root), ``op`` numbers the unit it belongs to, and
``count`` is what the call produced (generators, cells, crossings, ...).
Spans stay in memory until ``write``, which stores them gzipped, one JSON
array per line, times in perf_counter() seconds.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


def _rank(result) -> int:
    return result.total_rank


def _table(result):
    return (len(result.entries), result.total_rank)


def _crossings(result) -> int:
    return len(result.crossings)


# (module, attribute, span name, count of the result)
BINDINGS = [
    ("cli", "verify", "hfk.verify", None),
    ("cli", "compute_hfk", "hfk.compute", _table),
    ("cli", "euler_characteristic", "algebra.euler", None),
    ("cli", "normalize_alexander", "algebra.normalize", None),
    ("hfk", "compute_hfk", "hfk.compute", _table),
    ("hfk", "pretzel_tangle_curves", "curves.tangle", len),
    ("hfk", "pair_curve", "pairing.curve", _rank),
    ("hfk", "build_pretzel_diagram", "alexander.build", _crossings),
    ("hfk", "fox_alexander", "alexander.fox", None),
    ("hfk", "euler_characteristic", "algebra.euler", None),
    ("hfk", "normalize_alexander", "algebra.normalize", None),
    ("alexander", "normalize_alexander", "algebra.normalize", None),
    ("pairing", "pair_curve", "pairing.curve", _rank),
    ("pairing", "pair_special14", "pairing.interval", None),
    ("pairing", "pair_special23", "pairing.interval", None),
    ("pairing", "pair_rational_neg_half", "pairing.interval", None),
    ("pairing", "pair_rational_pos_half", "pairing.interval", None),
    ("pairing", "pair_rational_general", "pairing.general", None),
    ("pairing", "reduce_generator_pairs", "pairing.reduce", None),
    ("geometry", "enumerate_geometric_pairing", "geometry.enumerate", _rank),
]

ROOT = "op"  # span around one timed unit, opened by the benchmark
CLI = "cli.main"  # span around pretzelhfk.cli.main, opened by the benchmark


class Tracer:
    """Collects spans while installed; ``op`` tags the spans of the current unit."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in BINDINGS:
            module = importlib.import_module(f"pretzelhfk.{module_name}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """A span opened by the benchmark itself; set ``[5]`` to record a count."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        """One JSON array per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.writelines(json.dumps(s) + "\n" for s in self.spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nearest(spans: List[list], name: str) -> List[int]:
    """For each span, the index of its nearest ancestor-or-self called name."""
    out = [-1] * len(spans)
    for i, span in enumerate(spans):
        if span[0] == name:
            out[i] = i
        elif span[3] >= 0:
            out[i] = out[span[3]]
    return out


def layer_metrics(
    spans: List[list], ops: int, untraced_s: float, factor: float = 1.0
) -> Dict[str, float]:
    """Per-layer numbers of a traced pass (``ops`` operations, parents first).

    Times and counts are means per operation; BENCHMARK.json gives the units.
    Times are divided by the speed ``factor``.  ``untraced_s`` is the wall
    time of the same units run without tracing.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _, _) in enumerate(spans):
        self_ms[name] += (end - start - child[i]) * 1e3
        calls[name] += 1

    def total(name: str, pick: int = 0) -> float:
        return sum(
            s[5][pick] if isinstance(s[5], tuple) else s[5]
            for s in spans if s[0] == name
        )

    traced_ms = sum((s[2] - s[1]) * 1e3 for s in spans if s[0] == ROOT)
    layers_ms = sum(t for name, t in self_ms.items() if name != ROOT)

    # generators the pairings emit inside compute_hfk, per cell of its tables
    in_compute = sum(
        s[5] for s in spans
        if s[0] == "pairing.curve" and s[3] >= 0 and spans[s[3]][0] == "hfk.compute"
    )
    # pair_curve calls per tangle curve inside verify
    verify = _nearest(spans, "hfk.verify")
    curves_per_verify: Dict[int, int] = {}
    verify_pairings = 0
    for i, s in enumerate(spans):
        if verify[i] < 0:
            continue
        if s[0] == "curves.tangle":
            curves_per_verify[verify[i]] = max(curves_per_verify.get(verify[i], 0), s[5])
        elif s[0] == "pairing.curve":
            verify_pairings += 1
    # Euler characteristics per knot verified by the CLI
    cli = _nearest(spans, CLI)
    cli_euler = sum(1 for i, s in enumerate(spans) if s[0] == "algebra.euler" and cli[i] >= 0)
    cli_knots = sum(1 for i, s in enumerate(spans) if s[0] == "hfk.verify" and cli[i] >= 0)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def ms(*names: str) -> float:
        return per_op(sum(self_ms[n] for n in names)) / factor

    return {
        "pairing.ms": ms("pairing.curve", "pairing.interval", "pairing.general", "pairing.reduce"),
        "pairing.calls": per_op(calls["pairing.curve"]),
        "pairing.general.ms": ms("pairing.general"),
        "pairing.interval.ms": ms("pairing.interval"),
        "pairing.generators_out": per_op(total("pairing.curve")),
        "pairing.generators_per_cell": _ratio(in_compute, total("hfk.compute", 0)),
        "pairing.calls_per_curve": _ratio(verify_pairings, sum(curves_per_verify.values())),
        "pairing.reduce.ms": ms("pairing.reduce"),
        "hfk.compute.self_ms": ms("hfk.compute"),
        "hfk.verify.self_ms": ms("hfk.verify"),
        "hfk.cells_out": per_op(total("hfk.compute", 0)),
        "hfk.total_rank_out": per_op(total("hfk.compute", 1)),
        "alexander.build.ms": ms("alexander.build"),
        "alexander.fox.ms": ms("alexander.fox"),
        "alexander.crossings": per_op(total("alexander.build")),
        "algebra.euler.ms": ms("algebra.euler"),
        "algebra.euler.calls_per_knot": _ratio(cli_euler, cli_knots),
        "algebra.normalize.ms": ms("algebra.normalize"),
        "geometry.enumerate.ms": ms("geometry.enumerate"),
        "geometry.points": per_op(total("geometry.enumerate")),
        "geometry.us_per_point": _ratio(
            self_ms["geometry.enumerate"] * 1e3 / factor, total("geometry.enumerate")
        ),
        "curves.ms": ms("curves.tangle"),
        "curves.calls": per_op(calls["curves.tangle"]),
        "curves.curves_out": per_op(total("curves.tangle")),
        "cli.self_ms": ms(CLI),
        "cli.bytes_out": per_op(total(CLI)),
        "trace.overhead_frac": _ratio(traced_ms, untraced_s * 1e3) - 1.0,
        "trace.accounted_frac": _ratio(layers_ms, traced_ms),
    }
