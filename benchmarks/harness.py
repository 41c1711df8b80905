"""Closed-loop benchmark of pretzelhfk: run, check and time one workload.

One thread drives the library in-process; each operation waits for the
previous one.  An untraced run reports the end-to-end metrics; a traced run
(``--trace 1``) runs each unit once untraced and once traced and reports the
per-layer metrics.  Every output is checked; the last stdout line is the
JSON result.

Timed values are scaled to an uncontended core (see ``SpeedProbe``).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from pretzelhfk import cli, geometry, hfk, pairing
from pretzelhfk.curves import CurveKind, TangleParams, pretzel_tangle_curves

import tracing
import workloads
from workloads import Unit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics
TRACE_DIR = ROOT / ".perfbench"
GRID_KNOTS = len(workloads.grid_params())
SWEEP_ARGV = ["sweep"] + [
    arg for x in "abc" for arg in (f"--max-{x}", str(workloads.GRID_MAX))
]
SETUP_RUNS = 7
# Fresh interpreter: import the CLI, then generate the workload's inputs.
SETUP_SCRIPT = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import pretzelhfk.cli, workloads; "
    "workloads.generate(sys.argv[3], int(sys.argv[4]))"
)

# the workload's user-facing operation, timed by op_ms_*
PRIMARY = {"grid-sweep": "sweep", "large-knots": "cli", "geo-oracle": "geo"}
# units whose time items_per_s divides by
RATE = {"grid-sweep": ("sweep",), "large-knots": ("table", "cli"), "geo-oracle": ("geo",)}

MAX_REPORTED_FAILURES = 10
# reference_work's time on an uncontended core (x86-64 host, CPython 3.11)
REFERENCE_NOMINAL_MS = 2.0
PROBE_EVERY_S = 0.05


def reference_work() -> int:
    """Fixed pure-Python work of the library's kind: tuple-keyed dicts, ints, Fractions."""
    out = 0
    for _ in range(6):
        counts: Dict[Tuple[int, int], int] = {}
        acc = Fraction(0)
        for i in range(120):
            key = (i % 23, i % 7)
            counts[key] = counts.get(key, 0) + i * i
            acc += Fraction(i % 13, 2 * i + 1)
        out += len(sorted(counts.items())) + acc.numerator % 7
    return out


class SpeedProbe:
    """Times ``reference_work`` between operations to track the core's speed.

    On a shared host the same work runs up to 1.8x slower while a neighbour
    loads the core, in spells from milliseconds to seconds long.  ``tick``
    runs between operations and probes once PROBE_EVERY_S has passed since
    the last probe, so a long operation is probed right before and right
    after.  A probe's factor is its time over its uncontended time; dividing
    an operation's time by the mean factor of the probes around it gives its
    time on an uncontended core.
    """

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.factors: List[float] = []
        self.last = perf_counter()

    def tick(self, force: bool = False) -> None:
        start = perf_counter()
        if not force and start - self.last < PROBE_EVERY_S:
            return
        reference_work()
        self.last = perf_counter()
        self.ends.append(self.last)
        self.factors.append((self.last - start) * 1e3 / REFERENCE_NOMINAL_MS)

    def around(self, start: float, seconds: float) -> float:
        """Mean factor of the last probe before and the first after an interval."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.ends, start + seconds)
        near = self.factors[before - 1:before] + self.factors[after:after + 1]
        return statistics.mean(near) if near else 1.0

    def factor(self) -> float:
        """Mean factor of all probes."""
        return statistics.mean(self.factors) if self.factors else 1.0


@dataclass
class Outcome:
    seconds: float = 0.0  # timed wall time
    start: float = 0.0  # perf_counter() when timing began
    samples_ms: List[float] = field(default_factory=list)
    items: int = 0  # knots, or intersection points for a geo unit
    rank: int = 0  # total rank of a table unit
    attempted: int = 1
    failed: int = 0


def digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()[:16]


def table_digest(entries) -> str:
    return digest((s, d.twice, rk) for (s, d), rk in entries.items())


class _Capture(io.TextIOBase):
    """Stdout of one CLI call, with the time each line ended."""

    def __init__(self) -> None:
        self.parts: List[str] = []
        self.marks: List[float] = []
        self.size = 0
        self.start = perf_counter()

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        self.size += len(s)
        if "\n" in s:
            self.marks.append(perf_counter())
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


class Runner:
    """Runs and checks units; ``golden`` maps unit keys to stored digests."""

    def __init__(self, golden: Dict[str, dict]) -> None:
        self.golden = golden
        self.digests: Dict[str, dict] = {}
        self.tracer: Optional[tracing.Tracer] = None
        self.tables: Dict[TangleParams, str] = {}
        self.problems: List[str] = []

    def run(self, unit: Unit) -> Outcome:
        weight = GRID_KNOTS if unit.kind == "sweep" else 1
        try:
            outcome, problems = getattr(self, "_" + unit.kind)(unit)
        except (Exception, SystemExit) as exc:  # a raising operation is a failed one
            outcome = Outcome(attempted=weight, failed=weight)
            problems = ["".join(traceback.format_exception_only(type(exc), exc)).strip()]
        if problems and len(self.problems) < MAX_REPORTED_FAILURES:
            self.problems.append(f"{unit.key}: {'; '.join(problems)}")
        return outcome

    @contextlib.contextmanager
    def _timed(self) -> Iterator[List[float]]:
        """Yields [seconds, start], filled in when the block ends."""
        box = [0.0, 0.0]
        if self.tracer is None:
            box[1] = perf_counter()
            yield box
            box[0] = perf_counter() - box[1]
        else:
            with self.tracer.span(tracing.ROOT) as span:
                yield box
            box[:] = [span[2] - span[1], span[1]]

    def _main(self, argv: List[str]) -> Tuple[int, _Capture]:
        out = _Capture()
        with contextlib.redirect_stdout(out):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                with self.tracer.span(tracing.CLI) as span:
                    rc = cli.main(argv)
                span[5] = out.size
        return rc, out

    def _golden(self, unit: Unit, name: str, value, problems: List[str]) -> None:
        self.digests.setdefault(unit.key, {})[name] = value
        expected = self.golden.get(unit.key, {}).get(name)
        if expected is not None and expected != value:
            problems.append(f"{name} digest {value} differs from the stored {expected}")

    def _table(self, unit: Unit):
        with self._timed() as t:
            table = hfk.compute_hfk(unit.params)
        problems = []
        if table.total_rank % 2 != 1:
            problems.append(f"even total rank {table.total_rank}")
        if any(table.rank(-s, d) != rk for (s, d), rk in table.entries.items()):
            problems.append("ranks not symmetric under s -> -s")
        found = table_digest(table.entries)
        self._golden(unit, "table", found, problems)
        self.tables[unit.params] = found
        outcome = Outcome(*t, [t[0] * 1e3], rank=table.total_rank, failed=int(bool(problems)))
        return outcome, problems

    def _cli(self, unit: Unit):
        p = unit.params
        argv = ["compute", "--a", str(p.a), "--b", str(p.b), "--c", str(p.c),
                "--sign", p.sign, "--format", "json"]
        with self._timed() as t:
            rc, out = self._main(argv)
        record = json.loads(out.text())
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        failing = [name for name, status in record["checks"].items() if status == "fail"]
        if failing:
            problems.append(f"checks failed: {', '.join(failing)}")
        knot = record["knot"]
        if (knot["a"], knot["b"], knot["c"], knot["sign"]) != (p.a, p.b, p.c, p.sign):
            problems.append(f"record is for another knot {knot}")
        found = digest((g["s"], g["delta_times_2"], g["rank"]) for g in record["generators"])
        if self.tables.get(p, found) != found:
            problems.append("CLI table differs from compute_hfk's")
        record["meta"].pop("seconds")
        self._golden(unit, "record", hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()).hexdigest()[:16], problems)
        return Outcome(*t, [t[0] * 1e3], items=1, failed=int(bool(problems))), problems

    def _sweep(self, unit: Unit):
        with self._timed() as t:
            rc, out = self._main(SWEEP_ARGV)
        ends = [out.start] + out.marks[:GRID_KNOTS]
        samples = [(b - a) * 1e3 for a, b in zip(ends, ends[1:])]
        lines = out.text().splitlines()
        found = [digest([line]) for line in lines[:GRID_KNOTS]]
        expected = self.golden.get(unit.key, {}).get("lines", found)
        self.digests[unit.key] = {"lines": found}
        bad = [
            line for i, line in enumerate(lines[:GRID_KNOTS])
            if not line.endswith(": pass") or i >= len(expected) or found[i] != expected[i]
        ]
        failed = len(bad) + max(0, GRID_KNOTS - len(lines))
        problems = [f"knot line {line!r} is wrong" for line in bad[:3]]
        tail = lines[GRID_KNOTS:GRID_KNOTS + 1] + lines[-1:]
        if rc != 0 or tail != [f"checked {GRID_KNOTS} knots", "all checks passed"]:
            problems.append(f"exit code {rc}, summary {tail}")
            failed = max(failed, 1)
        outcome = Outcome(*t, samples, items=GRID_KNOTS, attempted=GRID_KNOTS, failed=failed)
        return outcome, problems

    def _geo(self, unit: Unit):
        p, curve = unit.params, unit.curve
        with self._timed() as t:
            red = geometry.closure_curve(p.c, p.sign)
            unreduced = geometry.enumerate_geometric_pairing(red, curve)
            reduced = pairing.reduce_generator_pairs(unreduced)
            closed = pairing.pair_curve(p.sign, p.c, curve)
            points = 2 * geometry.det_pair_count(red.slope, curve.slope)
        problems = []
        if not unreduced.total_rank == points == unit.points:
            problems.append(
                f"{unreduced.total_rank} points, 2*det = {points}, expected {unit.points}"
            )
        if reduced.generators != closed.generators:
            problems.append("reduced geometric pairing differs from the closed form")
        self._golden(unit, "unreduced", table_digest(unreduced.entries), problems)
        return Outcome(*t, [t[0] * 1e3], items=unit.points, failed=int(bool(problems))), problems


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload: str, seed: int, speed: SpeedProbe) -> List[Tuple[float, float]]:
    """(start, wall time) of fresh interpreters that import the CLI and build the inputs.

    The first is dropped: it may compile bytecode.
    """
    cmd = [sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(BENCH_DIR), workload, str(seed)]
    times = []
    for i in range(SETUP_RUNS + 1):
        speed.tick(force=True)
        start = perf_counter()
        # a blocking wait: run(timeout=...) polls with sleeps up to 50 ms long
        code = subprocess.Popen(cmd, stdout=subprocess.DEVNULL).wait()
        if code:
            raise RuntimeError(f"set-up interpreter exited with code {code}")
        if i:
            times.append((start, perf_counter() - start))
    speed.tick(force=True)
    return times


def warm_up(golden: Dict[str, dict]) -> None:
    """Run each kind of operation once on a small knot, untimed and unreported."""
    runner = Runner(golden)
    p = TangleParams(4, 1, 2, "+")
    curve = next(cv for cv in pretzel_tangle_curves(p.a, p.b) if cv.kind is CurveKind.RATIONAL)
    points = 2 * geometry.det_pair_count(geometry.closure_curve(p.c, p.sign).slope, curve.slope)
    for unit in (Unit("table", p), Unit("cli", p), Unit("geo", p, curve, points)):
        runner.run(unit)


def measure(runner: Runner, units: List[Unit], seconds: float, speed: SpeedProbe):
    """Whole passes over the units; another starts only if it fits the time left."""
    outcomes: List[Tuple[Unit, Outcome]] = []
    start = perf_counter()
    passes = 0
    while True:
        begun = perf_counter()
        for unit in units:
            speed.tick()
            outcomes.append((unit, runner.run(unit)))
        speed.tick()
        if not passes:
            # later passes repeat the inputs: more only grows the benchmark's bookkeeping
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes += 1
        now = perf_counter()
        if now - start + (now - begun) > seconds:
            return outcomes, passes, peak_rss_mb


def measure_traced(runner: Runner, units: List[Unit], seconds: float, tracer: tracing.Tracer,
                   speed: SpeedProbe):
    """Each unit untraced and traced, alternating which goes first, until time is up."""
    outcomes: List[Tuple[Unit, Outcome]] = []
    untraced_s = 0.0
    ops = 0
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        unit = units[i % len(units)]
        for traced in (False, True) if i % 2 == 0 else (True, False):
            speed.tick()
            if traced:
                tracer.install()
                runner.tracer, tracer.op = tracer, i
            try:
                outcome = runner.run(unit)
            finally:
                if traced:
                    tracer.uninstall()
                    runner.tracer = None
            outcomes.append((unit, outcome))
            if traced:
                ops += outcome.attempted
            else:
                untraced_s += outcome.seconds
        i += 1
    speed.tick()
    return outcomes, ops, untraced_s


def end_to_end(
    workload: str, outcomes, setup, peak_rss_mb: float, speed: Optional[SpeedProbe]
) -> Dict[str, float]:
    """The end-to-end metrics; each time divided by the speed factor around it.

    Without ``speed`` the times are left as measured.
    """
    def factor(start: float, seconds: float) -> float:
        return speed.around(start, seconds) if speed else 1.0

    def samples(kinds) -> List[float]:
        return [
            ms / f for u, o in outcomes if u.kind in kinds
            for f in [factor(o.start, o.seconds)] for ms in o.samples_ms
        ]

    primary = samples((PRIMARY[workload],))
    tables = samples(("table",))
    rated = [o for u, o in outcomes if u.kind in RATE[workload] and o.samples_ms]
    busy = sum(o.seconds / factor(o.start, o.seconds) for o in rated)
    return {
        "setup_s": statistics.median(t / factor(start, t) for start, t in setup),
        "op_ms_p50": _percentile(primary, 50),
        "op_ms_p90": _percentile(primary, 90),
        "table_ms_p50": _percentile(tables, 50),
        "table_ms_p90": _percentile(tables, 90),
        "items_per_s": sum(o.items for o in rated) / busy if busy else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool,
        units: Optional[List[Unit]] = None) -> Tuple[dict, dict]:
    """Measure one workload; returns (result, info).  ``units`` overrides the pass."""
    golden = json.loads(GOLDEN.read_text())
    spec = json.loads(SPEC.read_text())
    speed = SpeedProbe()
    setup = [] if trace else setup_seconds(workload, seed, speed)
    if units is None:
        units = workloads.generate(workload, seed)
    warm_up(golden)
    runner = Runner(golden)
    info = {"workload": workload, "seed": seed, "mix": workloads.mix(units)}
    if trace:
        tracer = tracing.Tracer()
        outcomes, ops, untraced_s = measure_traced(runner, units, seconds, tracer, speed)
        tracer.write(TRACE_DIR / f"trace-{workload}.jsonl.gz")
        metrics = tracing.layer_metrics(tracer.spans, ops, untraced_s, speed.factor())
        declared = spec["per_layer"]
        info.update(traced_ops=ops, spans=len(tracer.spans))
    else:
        outcomes, passes, peak_rss_mb = measure(runner, units, seconds, speed)
        metrics = end_to_end(workload, outcomes, setup, peak_rss_mb, speed)
        declared = spec["end_to_end"]
        info.update(
            passes=passes,
            unscaled=end_to_end(workload, outcomes, setup, peak_rss_mb, None),
            samples={
                "op_ms": sum(len(o.samples_ms) for u, o in outcomes if u.kind == PRIMARY[workload]),
                "table_ms": sum(1 for u, o in outcomes if u.kind == "table" and o.samples_ms),
                "setup_s": len(setup),
            },
            total_rank=sum(o.rank for _, o in outcomes[:len(units)]),
        )
    attempted = sum(o.attempted for _, o in outcomes)
    failed = sum(o.failed for _, o in outcomes)
    if trace:
        metrics["ops_failed_frac"] = failed / attempted
    info["speed_factor"] = speed.factor()
    info["problems"] = runner.problems
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return result, info


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in info["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0
