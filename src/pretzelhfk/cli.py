"""Command-line front end: compute, sweep, verify, and Alexander oracle.

Output formats: json (the full record), csv (s,delta_times_2,rank rows),
latex (a tabular of the rank table), ascii (a dot plot in the (s, mu) plane).
Delta gradings are serialized as delta_times_2 so every field is an integer.
The record carries its rows as int tuples, (s, delta_times_2, rank) per cell
and (exp, coeff) per Alexander term; json writes each as an object.
Exit codes: 0 success, 1 verification failure, 2 usage error, 141 when the
reader closes stdout early (as `| head` does), without a traceback.

Input is capped: compute and verify exit 2 when a + b + c exceeds
MAX_PARAMETER_SUM, sweep when max-a + max-b + max-c does or when it would
visit more than MAX_SWEEP_KNOTS knots, and alex when |p| + |q| + |r| exceeds
MAX_TWIST_SUM, the largest sum of a knot that compute accepts.  The library
functions take any size.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import chain, repeat
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .alexander import DiagramError, build_pretzel_diagram, fox_alexander, pretzel_determinant
from .algebra import (AlgebraError, alexander_terms, cell_alexander, cell_delta,
                      euler_characteristic, normalize_alexander)
from .curves import CurveError, TangleParams
# unused here: benchmarks/tracing.py BINDINGS and benchmarks/tests bind cli.compute_hfk
from .hfk import VerificationReport, compute_hfk, verify  # noqa: F401

# The ascii plot grows with the square of a + b + c, the other formats
# linearly.  At the ceiling, on a shared 2-vCPU host with CPython 3.11, the
# largest plot, (1,499,500,+), is 12 MB and takes 2.5 s at 47 MB peak RSS;
# a json record takes 0.2 s at 17 MB.
MAX_PARAMETER_SUM = 1000
MAX_TWIST_SUM = 2 * MAX_PARAMETER_SUM + 2  # |2a| + |-2b-1| + |2c+1|
# A sweep visits signs * max-a * max-b * max-c knots.  On the same host the
# slowest sweep measured under this cap, --max-a 1 --max-b 5 --max-c 994 with
# both signs (9940 knots), takes 68 s; max-a = max-b = max-c = 17 (9826) 12 s.
MAX_SWEEP_KNOTS = 10_000


def _over_ceiling(what: str, total: int, ceiling: int) -> bool:
    if total <= ceiling:
        return False
    print(f"error: {what} = {total} exceeds the ceiling {ceiling}", file=sys.stderr)
    return True


def _record(report: VerificationReport, start: float) -> Dict:
    """The compute record of a verified knot; meta.seconds counts from start."""
    try:
        alex = normalize_alexander(euler_characteristic(report.table))
    except AlgebraError:  # verify has failed the Euler check, so compute exits 1
        alex = ()
    params = report.table.params
    p, q, r = params.pretzel_triple()
    # (s, 2*delta, rank) rows of plain ints, built and sorted in C
    entries = report.table.entries
    deltas = map(attrgetter("twice"), map(cell_delta, entries))
    return {
        "knot": {"a": params.a, "b": params.b, "c": params.c, "sign": params.sign, "p": p, "q": q, "r": r},
        "generators": sorted(zip(map(cell_alexander, entries), deltas, entries.values())),
        "alexander": list(alexander_terms(alex)),
        "classification": report.predicted.shape.value,
        "checks": dict(report.checks),
        "meta": {
            "version": __version__,
            "seconds": round(time.perf_counter() - start, 6),
        },
    }


# one array object each, its keys in the order of the row tuple it is filled from
_GENERATOR_ROW = '{\n      "s": %s,\n      "delta_times_2": %s,\n      "rank": %s\n    }'
_ALEXANDER_ROW = '{\n      "exp": %s,\n      "coeff": %s\n    }'


def _rows(template: str, rows: List[Tuple[int, ...]]) -> str:
    """json.dumps(..., indent=2) of the rows as objects, in one `%` over the template repeated."""
    if not rows:
        return "[]"
    body = ",\n    ".join(repeat(template, len(rows))) % tuple(chain.from_iterable(rows))
    return f"[\n    {body}\n  ]"


def _format_json(record: Dict) -> str:
    """json.dumps(record, indent=2), byte for byte, each row tuple written as its object.

    With indent, json.dumps runs CPython's pure-Python encoder, which is
    several times slower on a large record.  Generator and Alexander rows are
    int tuples, filled into fixed row templates; every other key and value
    goes through json.dumps, so strings are escaped exactly as json escapes
    them: each object in one call without indent, which runs the C encoder,
    its items split by the separator.
    """

    def scalars(obj: Dict) -> str:
        return "{\n    " + json.dumps(obj, separators=(",\n    ", ": "))[1:-1] + "\n  }" if obj else "{}"

    fields = [
        ("knot", scalars(record["knot"])),
        ("generators", _rows(_GENERATOR_ROW, record["generators"])),
        ("alexander", _rows(_ALEXANDER_ROW, record["alexander"])),
        ("classification", json.dumps(record["classification"])),
        ("checks", scalars(record["checks"])),
        ("meta", scalars(record["meta"])),
    ]
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields) + "\n}"


def _format_csv(record: Dict) -> str:
    return "\n".join(["s,delta_times_2,rank", *map("%s,%s,%s".__mod__, record["generators"])])


def _format_latex(record: Dict) -> str:
    k = record["knot"]
    lines = [
        r"\begin{tabular}{r|r|r}",
        rf"\multicolumn{{3}}{{c}}{{$P({k['p']},{k['q']},{k['r']})$}} \\",
        r"$s$ & $\delta$ & rank \\ \hline",
    ]
    for s, twice, rank in record["generators"]:
        frac = str(twice // 2) if twice % 2 == 0 else rf"\frac{{{twice}}}{{2}}"
        lines.append(rf"{s} & ${frac}$ & {rank} \\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines)


def _format_ascii(record: Dict) -> str:
    """Dot plot in the (s, mu) plane, mu = s - delta.

    The delta grading is relative; the plot shifts it so the lowest delta
    line lies on mu = s.  An empty table plots as the header line alone.
    """
    gens = record["generators"]
    k = record["knot"]
    out = [
        f"P({k['p']},{k['q']},{k['r']})  rank per (s, mu) cell; "
        "delta offset is conventional (lowest delta line placed on mu = s)"
    ]
    if not gens:
        return out[0]
    low = min(twice for _, twice, _ in gens)
    points = {}
    for s, twice, rank in gens:
        mu2 = 2 * s - (twice - low)
        if mu2 % 2:
            raise ValueError(f"generator at s={s} is off the integer mu grid")
        points[(s, mu2 // 2)] = rank
    s_range = range(min(s for s, _ in points), max(s for s, _ in points) + 1)
    mus = range(max(mu for _, mu in points), min(mu for _, mu in points) - 1, -1)
    # a cell is one wider than the widest s label or rank, the mu column the widest mu; 3 at least
    width = max(3, 1 + max(map(len, map(str, (s_range[0], s_range[-1], *points.values())))))
    mu_width = max(3, len(str(mus[0])), len(str(mus[-1])))
    for mu in mus:
        row = f"mu={mu:>{mu_width}} |"
        for s in s_range:
            rk = points.get((s, mu))
            row += f"{rk:>{width}}" if rk else " " * (width - 1) + "."
        out.append(row)
    out.append(" " * (mu_width + 4) + "+" + "-" * (len(s_range) * width))
    out.append(" " * (mu_width + 2) + "s =" + "".join(f"{s:>{width}}" for s in s_range))
    return "\n".join(out)


FORMATS = {"json": _format_json, "csv": _format_csv, "latex": _format_latex, "ascii": _format_ascii}


def _knot(args) -> Optional[TangleParams]:
    """The knot of a compute or verify call, or None after an error message."""
    try:
        params = TangleParams(args.a, args.b, args.c, args.sign)
    except CurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return None if _over_ceiling("a + b + c", args.a + args.b + args.c, MAX_PARAMETER_SUM) else params


def cmd_compute(args) -> int:
    params = _knot(args)
    if params is None:
        return 2
    start = time.perf_counter()
    report = verify(params)
    print(FORMATS[args.format](_record(report, start)))
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    params = _knot(args)
    if params is None:
        return 2
    report = verify(params)
    p, q, r = params.pretzel_triple()
    print(f"P({p},{q},{r}):")
    for name, outcome in report.checks.items():
        print(f"  {name}: {outcome}")
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    if min(args.max_a, args.max_b, args.max_c) < 1:
        print("error: sweep bounds must be at least 1", file=sys.stderr)
        return 2
    if _over_ceiling("max-a + max-b + max-c", args.max_a + args.max_b + args.max_c, MAX_PARAMETER_SUM):
        return 2
    signs = ["+", "-"] if args.sign == "both" else [args.sign]
    knots = len(signs) * args.max_a * args.max_b * args.max_c
    if _over_ceiling("signs * max-a * max-b * max-c", knots, MAX_SWEEP_KNOTS):
        return 2
    census: Dict[str, int] = {}
    failures = []
    for sign in signs:
        for a in range(1, args.max_a + 1):
            for b in range(1, args.max_b + 1):
                for c in range(1, args.max_c + 1):
                    params = TangleParams(a, b, c, sign)
                    report = verify(params)
                    shape = report.predicted.shape.value
                    census[shape] = census.get(shape, 0) + 1
                    status = "pass" if report.passed else "fail"
                    p, q, r = params.pretzel_triple()
                    print(f"P({p},{q},{r}) [{shape}]: {status}")
                    if not report.passed:
                        failures.append((f"P({p},{q},{r})", report.failures()))
    print(f"checked {knots} knots")
    for shape in sorted(census):
        print(f"  {shape}: {census[shape]}")
    if failures:
        for knot, names in failures:
            print(f"FAILED {knot}: {', '.join(names)}")
        return 1
    print("all checks passed")
    return 0


def _poly_str(alex: Sequence[int]) -> str:
    """a_0 + sum a_i (t^i + t^-i) for alex = (a_0, ..., a_g), highest power of t first."""
    parts = []
    for e, c in reversed(list(alexander_terms(alex))):
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            t = "t" if e == 1 else f"t^{e}"
            body = t if mag == 1 else f"{mag}*{t}"
        parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
    return "".join(parts)


def cmd_alex(args) -> int:
    if _over_ceiling("|p| + |q| + |r|", abs(args.p) + abs(args.q) + abs(args.r), MAX_TWIST_SUM):
        return 2
    try:
        poly = fox_alexander(build_pretzel_diagram(args.p, args.q, args.r))
    except (DiagramError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    det = abs(poly[0] + 2 * sum((-1) ** i * a for i, a in enumerate(poly) if i))  # |Delta(-1)|
    print(_poly_str(poly))
    print(f"determinant {det}")
    expected = pretzel_determinant(args.p, args.q, args.r)
    if det != expected:
        print(f"error: polynomial determinant {det} != |pq+qr+rp| = {expected}", file=sys.stderr)
    return 0 if det == expected else 1


def _knot_parser(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """A subcommand taking one knot as --a, --b, --c and --sign."""
    parser = sub.add_parser(name, help=summary)
    for letter in "abc":
        parser.add_argument(f"--{letter}", type=int, required=True)
    parser.add_argument("--sign", choices=["+", "-"], required=True)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pretzelhfk",
        description=(
            "Knot Floer homology of pretzel knots P(2a,-2b-1,+-(2c+1)). "
            "Delta gradings are relative half-integers, serialized as "
            "delta_times_2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = _knot_parser(sub, "compute", "rank table of one knot")
    pc.add_argument("--format", choices=FORMATS, default="json")
    pc.set_defaults(func=cmd_compute)

    pv = _knot_parser(sub, "verify", "run all consistency checks for one knot")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="verify a whole parameter grid")
    for letter in "abc":
        ps.add_argument(f"--max-{letter}", type=int, required=True)
    ps.add_argument("--sign", choices=["+", "-", "both"], default="both")
    ps.set_defaults(func=cmd_sweep)

    pa = sub.add_parser("alex", help="Fox-calculus Alexander polynomial oracle")
    for letter in "pqr":
        pa.add_argument(f"--{letter}", type=int, required=True)
    pa.set_defaults(func=cmd_alex)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line; returns the exit code.

    Every call parses with one parser, built on the first call and shared for
    the life of the process.  Each subcommand's cmd_* function is bound into
    it then, so a test that patches one must call _parser.cache_clear()
    before and after.
    """
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send the unflushed rest to devnull, exit as SIGPIPE does
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
