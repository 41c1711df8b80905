"""End-to-end tests of the command-line interface."""

import ast
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_acceptance import GRID

import pretzelhfk
from pretzelhfk import cli, curves, hfk
from pretzelhfk.alexander import build_pretzel_diagram, pretzel_determinant
from pretzelhfk.algebra import AlgebraError, GeneratorMultiset, HalfInteger, HfkTable
from pretzelhfk.cli import MAX_PARAMETER_SUM, MAX_SWEEP_KNOTS, MAX_TWIST_SUM, main
from pretzelhfk.curves import GradedCurve, TangleParams, pretzel_tangle_curves
from pretzelhfk.geometry import closure_curve, enumerate_geometric_pairing
from pretzelhfk.hfk import compute_hfk
from pretzelhfk.pairing import ReducedPairing, pair_curve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCompute:
    def test_json_record_shape(self, capsys):
        code, out = run(capsys, "compute", "--a", "3", "--b", "1", "--c", "2", "--sign", "+")
        assert code == 0
        record = json.loads(out)
        assert record["knot"] == {
            "a": 3, "b": 1, "c": 2, "sign": "+", "p": 6, "q": -3, "r": 5,
        }
        assert record["classification"] == "overlap"
        assert sum(g["rank"] for g in record["generators"]) == 13
        assert all(v in ("pass", "skip") for v in record["checks"].values())

    def test_json_round_trips(self, capsys):
        _, out = run(capsys, "compute", "--a", "1", "--b", "2", "--c", "1", "--sign", "-")
        record = json.loads(out)
        assert json.loads(json.dumps(record)) == record

    def test_csv_agrees_with_json(self, capsys):
        args = ("--a", "2", "--b", "2", "--c", "3", "--sign", "-")
        _, json_out = run(capsys, "compute", *args)
        _, csv_out = run(capsys, "compute", *args, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        gens = json.loads(json_out)["generators"]
        assert len(rows) == len(gens)
        for row, g in zip(rows, gens):
            assert int(row["s"]) == g["s"]
            assert int(row["delta_times_2"]) == g["delta_times_2"]
            assert int(row["rank"]) == g["rank"]

    def test_latex_output(self, capsys):
        code, out = run(
            capsys, "compute", "--a", "1", "--b", "1", "--c", "1", "--sign", "+",
            "--format", "latex",
        )
        assert code == 0
        assert out.startswith(r"\begin{tabular}")
        assert r"\frac{1}{2}" in out

    def test_ascii_plot_mentions_the_grading_offset(self, capsys):
        code, out = run(
            capsys, "compute", "--a", "3", "--b", "1", "--c", "2", "--sign", "+",
            "--format", "ascii",
        )
        assert code == 0
        assert "mu" in out and "conventional" in out

    def test_invalid_parameters_exit_2(self, capsys):
        code = main(["compute", "--a", "0", "--b", "1", "--c", "1", "--sign", "+"])
        assert code == 2


class TestComputeOnABrokenTable:
    """A table whose Euler characteristic does not normalize gives a record
    with no Alexander polynomial and exit code 1, in every format."""

    knot = ("--a", "3", "--b", "1", "--c", "2", "--sign", "+")

    @staticmethod
    def patch_table(monkeypatch, change):
        def broken(params):
            table = compute_hfk(params)
            return HfkTable(params=params, entries=change(dict(table.entries)))

        monkeypatch.setattr(hfk, "compute_hfk", broken)

    def test_a_non_unit_euler_characteristic_exits_1_with_the_failing_checks(self, capsys, monkeypatch):
        def one_more(entries):
            entries[max(entries)] += 1
            return entries

        self.patch_table(monkeypatch, one_more)
        code, out = run(capsys, "compute", *self.knot)
        record = json.loads(out)
        assert code == 1
        assert record["alexander"] == []
        assert record["checks"]["euler_matches_alexander_oracle"] == "fail"
        assert sum(g["rank"] for g in record["generators"]) == 14

    @pytest.mark.parametrize("fmt", ["json", "csv", "latex", "ascii"])
    def test_an_empty_table_exits_1(self, capsys, monkeypatch, fmt):
        self.patch_table(monkeypatch, lambda entries: {})
        code, out = run(capsys, "compute", *self.knot, "--format", fmt)
        assert code == 1
        if fmt == "json":
            record = json.loads(out)
            assert record["generators"] == record["alexander"] == []
        elif fmt == "ascii":  # the header line alone
            assert out.startswith("P(6,-3,5)  rank per (s, mu) cell;") and out.count("\n") == 1


class TestVerifyCommand:
    def test_passes_and_prints_each_check(self, capsys):
        code, out = run(capsys, "verify", "--a", "2", "--b", "1", "--c", "2", "--sign", "-")
        assert code == 0
        assert "euler_matches_alexander_oracle: pass" in out
        assert "rank_symmetry: pass" in out


class TestSweep:
    def test_small_sweep_reports_census(self, capsys):
        code, out = run(
            capsys, "sweep", "--max-a", "2", "--max-b", "2", "--max-c", "2",
            "--sign", "both",
        )
        assert code == 0
        assert "checked 16 knots" in out
        assert "all checks passed" in out

    def test_single_sign_sweep(self, capsys):
        code, out = run(
            capsys, "sweep", "--max-a", "1", "--max-b", "1", "--max-c", "2",
            "--sign", "+",
        )
        assert code == 0
        assert "checked 2 knots" in out

    def test_bad_bounds_exit_2(self, capsys):
        code = main(["sweep", "--max-a", "0", "--max-b", "1", "--max-c", "1"])
        assert code == 2

    def test_a_failing_knot_is_listed_and_exits_1(self, capsys, monkeypatch):
        def verify_failing_on_c_2(params):
            report = hfk.verify(params)
            if params.c == 2:
                report.checks["rank_symmetry"] = "fail"
            return report

        monkeypatch.setattr(cli, "verify", verify_failing_on_c_2)
        code, out = run(capsys, "sweep", "--max-a", "1", "--max-b", "1", "--max-c", "2", "--sign", "+")
        assert code == 1
        assert out == (
            "P(2,-3,3) [thin]: pass\n"
            "P(2,-3,5) [thin]: fail\n"
            "checked 2 knots\n"
            "  thin: 2\n"
            "FAILED P(2,-3,5): rank_symmetry\n"
        )


class TestAlex:
    def test_prints_polynomial_and_determinant(self, capsys):
        code, out = run(capsys, "alex", "--p", "2", "--q", "-3", "--r", "5")
        assert code == 0
        assert "determinant 11" in out

    def test_repr_is_readable(self):
        # (a_0, a_1, a_2) = (-3, 0, 1) is t^2 - 3 + t^-2
        assert cli._poly_str((-3, 0, 1)) == "t^2 - 3 + t^-2"
        assert cli._poly_str((1, -2, 3)) == "3*t^2 - 2*t + 1 - 2*t^-1 + 3*t^-2"
        assert cli._poly_str((1,)) == "1"

    def test_link_input_exits_2(self, capsys):
        code = main(["alex", "--p", "2", "--q", "-4", "--r", "5"])
        assert code == 2

    def test_an_all_odd_knot_is_not_called_a_link(self, capsys):
        # P(-3, 5, 7) is a knot without an even band; only two or three even bands make a link
        expected = {
            (-3, 5, 7): "error: P(-3, 5, 7) has no even band: the oracle covers only knots with exactly one even band\n",
            (2, -4, 5): "error: P(2, -4, 5) is a link, not a knot\n",
            (2, -4, 6): "error: P(2, -4, 6) is a link, not a knot\n",
        }
        for (p, q, r), err in expected.items():
            assert main(["alex", "--p", str(p), "--q", str(q), "--r", str(r)]) == 2
            assert capsys.readouterr() == ("", err)

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "alex", "--p", "6", "--q", "-3", "--r", "5")
        _, second = run(capsys, "alex", "--p", "6", "--q", "-3", "--r", "5")
        assert first == second

    def test_determinant_mismatch_prints_a_witness_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "pretzel_determinant", lambda p, q, r: 4)
        code = main(["alex", "--p", "6", "--q", "-3", "--r", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert "polynomial determinant 3 != |pq+qr+rp| = 4" in err

    def test_an_oracle_error_exits_2_with_a_message(self, capsys, monkeypatch):
        def broken_chain(p, q, r):
            d = build_pretzel_diagram(p, q, r)
            c = d.crossings[1]
            swapped = c._replace(over=c.incoming, incoming=c.over)
            return d._replace(crossings=(d.crossings[0], swapped, *d.crossings[2:]))

        monkeypatch.setattr(cli, "build_pretzel_diagram", broken_chain)
        assert main(["alex", "--p", "6", "--q", "-3", "--r", "5"]) == 2
        assert "do not chain" in capsys.readouterr().err

        def inexact(diagram):
            raise AlgebraError("inexact polynomial division")

        monkeypatch.setattr(cli, "fox_alexander", inexact)
        assert main(["alex", "--p", "6", "--q", "-3", "--r", "5"]) == 2
        assert "error: inexact polynomial division" in capsys.readouterr().err

    @staticmethod
    def plain_and_optimized(p, q, r):
        src = str(Path(pretzelhfk.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["-m", "pretzelhfk.cli", "alex", "--p", str(p), "--q", str(q), "--r", str(r)]
        return (
            subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, text=True, timeout=60)
            for flags in ([], ["-O"])
        )

    def test_output_is_unchanged_under_python_O(self):
        plain, optimized = self.plain_and_optimized(6, -3, 5)
        assert optimized.returncode == plain.returncode == 0
        assert optimized.stdout == plain.stdout == (
            "t^3 - 2*t^2 + 3 - 2*t^-2 + t^-3\ndeterminant 3\n"
        )

    def test_a_large_knot_is_unchanged_under_python_O(self):
        # P(200,-41,201) is (a,b,c) = (100,20,100,+): 442 crossings
        plain, optimized = self.plain_and_optimized(200, -41, 201)
        assert optimized.returncode == plain.returncode == 0
        assert optimized.stdout == plain.stdout
        assert plain.stdout.endswith(f"determinant {pretzel_determinant(200, -41, 201)}\n")


def large_knots(seed):
    """100 knots with a, c in [20, 100] and b in [1, 100], one in ten with
    b = a - 1, both signs: one value from each of 100 equal slices of each
    range, shuffled.  Seed 0 gives the first large knots the benchmark times.
    """
    rng = random.Random(seed)

    def strata(lo, hi):
        values = [lo + int((i + rng.random()) * (hi - lo + 1) / 100) for i in range(100)]
        rng.shuffle(values)
        return values

    a, b, c = strata(20, 100), strata(1, 100), strata(20, 100)
    for i in range(0, 100, 10):
        b[i] = a[i] - 1
    signs = ["+", "-"] * 50
    rng.shuffle(signs)
    return [TangleParams(*knot) for knot in zip(a, b, c, signs)]


def record_of(params):
    """The record compute writes for one knot."""
    return cli._record(cli.verify(params), time.perf_counter())


def json_view(record):
    """The record with each row tuple turned into the object json writes for it."""
    return dict(record,
                generators=[dict(zip(("s", "delta_times_2", "rank"), row)) for row in record["generators"]],
                alexander=[dict(zip(("exp", "coeff"), row)) for row in record["alexander"]])


class TestJsonWriter:
    def test_grid_records_are_json_dumps_byte_for_byte(self):
        for params in GRID:
            record = record_of(params)
            for rec in (record, dict(record, checks={})):
                assert cli._format_json(rec) == json.dumps(json_view(rec), indent=2), params

    def test_large_knot_records_are_json_dumps_byte_for_byte(self):
        knots = large_knots(0)
        assert max(k.a for k in knots) > 90 and any(k.b == k.a - 1 for k in knots)
        for params in knots:
            record = record_of(params)
            assert cli._format_json(record) == json.dumps(json_view(record), indent=2), params

    def test_empty_rows_and_escaped_strings(self):
        record = {"knot": {"sign": "\"+\u00e9"}, "generators": [], "alexander": [],
                  "classification": "a\nb", "checks": {}, "meta": {"seconds": 1e-07}}
        assert cli._format_json(record) == json.dumps(record, indent=2)

    def test_empty_objects(self):
        record = {"knot": {}, "generators": [(-1, 0, 2)],
                  "alexander": [(0, 1)], "classification": "", "checks": {}, "meta": {}}
        assert cli._format_json(record) == json.dumps(json_view(record), indent=2)

    @pytest.mark.parametrize("text", ['"', "\\", "\n", "\x01\x1f", "\u00e9\u2603\U0001f600", 'a"b\\c\nd\te'])
    def test_escaped_keys_and_values(self, text):
        scalars = {text: text, "t": True, "f": False, "n": None, "x": -0.5, "big": 1e300, "i": -7}
        record = {"knot": scalars, "generators": [], "alexander": [], "classification": text,
                  "checks": {text: "pass", "k": text}, "meta": dict(scalars, version=text)}
        assert cli._format_json(record) == json.dumps(record, indent=2)


LATEX_ROW = re.compile(r"(-?\d+) & \$(?:\\frac\{(-?\d+)\}\{2\}|(-?\d+))\$ & (\d+) \\\\")


def cells_in(fmt, out):
    """The (s, delta_times_2, rank) cells a compute output names, read back from its format.

    The ascii plot's delta offset is conventional: its cells come back with
    delta_times_2 counted from the lowest delta line.
    """
    if fmt == "json":
        return [(g["s"], g["delta_times_2"], g["rank"]) for g in json.loads(out)["generators"]]
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["s", "delta_times_2", "rank"]
        return [tuple(map(int, row)) for row in rows]
    if fmt == "latex":
        matches = [LATEX_ROW.fullmatch(line) for line in out.splitlines()[3:-1]]
        assert all(matches), out
        return [(int(s), int(half) if half else 2 * int(whole), int(rank))
                for s, half, whole, rank in (m.groups() for m in matches)]
    *rows, _, labels = out.splitlines()[1:]
    s_labels = [int(label) for label in labels.split("=", 1)[1].split()]
    cells = []
    for row in rows:
        head, body = row.split("|")
        tokens = body.split()
        assert len(tokens) == len(s_labels), row
        mu = int(head[3:])
        cells += [(s, 2 * (s - mu), int(t)) for s, t in zip(s_labels, tokens) if t != "."]
    return sorted(cells)


class TestRowForm:
    """The record carries its rows as int tuples, and every format writes the same cells."""

    def test_rows_are_sorted_tuples_of_plain_ints(self):
        for params in (TangleParams(3, 1, 2, "+"), TangleParams(1, 1, 3, "-"), TangleParams(100, 20, 100, "+")):
            record = record_of(params)
            generators, alexander = record["generators"], record["alexander"]
            assert generators and generators == sorted(generators), params
            for rows, width in ((generators, 3), (alexander, 2)):
                assert type(rows) is list and all(type(row) is tuple and len(row) == width for row in rows)
                assert {type(x) for row in rows for x in row} == {int}, params

    # two delta lines each: (3,1,2,+)'s overlap in Alexander grading, (1,1,3,-)'s form an L-space staircase
    @pytest.mark.parametrize("knot", [(3, 1, 2, "+"), (1, 1, 3, "-")])
    def test_every_format_names_the_same_cells(self, capsys, knot):
        a, b, c, sign = knot
        argv = ["compute", "--a", str(a), "--b", str(b), "--c", str(c), "--sign", sign, "--format"]
        found = {}
        for fmt in cli.FORMATS:
            code, out = run(capsys, *argv, fmt)
            assert code == 0
            found[fmt] = cells_in(fmt, out)
        cells = found["json"]
        low = min(twice for _, twice, _ in cells)
        assert len({twice for _, twice, _ in cells}) == 2
        assert found["csv"] == found["latex"] == cells
        assert found["ascii"] == sorted((s, twice - low, rank) for s, twice, rank in cells)


def test_cli_output_bytes_are_pinned():
    # compute in all four formats and a sweep, with the "seconds" line dropped;
    # the digest was taken when json.dumps(record, indent=2) wrote the record
    # and the diagram was built crossing by crossing, retaken when the
    # ascii plot of (100,20,100,+) and (100,99,100,-) widened its cells to
    # their widest label, which changed no other output, and retaken again
    # when every ascii cell became one wider than its widest s label or rank,
    # which changed the ascii plots of (6,6,6,+), (20,3,20,+), (100,20,100,+)
    # and (100,99,100,-) and no other output
    knots = [(3, 1, 2, "+"), (1, 2, 1, "-"), (1, 1, 1, "+"), (6, 6, 6, "+"), (2, 5, 3, "-"),
             (20, 3, 20, "+"), (100, 20, 100, "+"), (100, 99, 100, "-")]
    argvs = [["compute", "--a", str(a), "--b", str(b), "--c", str(c), "--sign", sign, "--format", fmt]
             for a, b, c, sign in knots for fmt in ("json", "csv", "latex", "ascii")]
    argvs.append(["sweep", "--max-a", "3", "--max-b", "3", "--max-c", "3"])
    digest = hashlib.sha256()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        kept = "".join(line for line in buf.getvalue().splitlines(True) if '"seconds"' not in line)
        digest.update(f"{code}\n{kept}".encode())
    assert digest.hexdigest() == "0e8576ca7079647d5734185b34ddf3fdc82eee7636cafad6103fd3ce0bf2f1ec"


class TestParserReuse:
    """main builds its parser once per process and parses every call with it."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_five_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        knot = ["--a", "3", "--b", "1", "--c", "2", "--sign", "+"]
        for argv in (["compute", *knot], ["compute", *knot, "--format", "csv"], ["verify", *knot],
                     ["alex", "--p", "6", "--q", "-3", "--r", "5"],
                     ["sweep", "--max-a", "1", "--max-b", "1", "--max-c", "2"]):
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert built == [1]

    def test_a_usage_error_leaves_the_parser_unchanged(self, capsys):
        argv = ["compute", "--a", "3", "--b", "1", "--c", "2", "--sign", "+"]

        def printed():
            code, out = run(capsys, *argv)
            return code, [line for line in out.splitlines() if '"seconds"' not in line]

        first = printed()
        for bad in (["compute", "--a", "3", "--b", "1", "--c", "2", "--sign", "x"],
                    ["compute", "--a", "4", "--format", "yaml"], ["cube"]):
            with pytest.raises(SystemExit) as err:
                main(bad)
            assert err.value.code == 2
            assert "usage:" in capsys.readouterr().err
            assert printed() == first

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestCeiling:
    """Oversized input exits 2 before any computation starts."""

    @pytest.fixture(autouse=True)
    def nothing_may_run(self, monkeypatch):
        def refuse(*args):
            pytest.fail("computation started above the ceiling")

        for name in ("verify", "compute_hfk", "build_pretzel_diagram", "fox_alexander"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("command", ["compute", "verify"])
    def test_one_knot(self, capsys, command):
        b = MAX_PARAMETER_SUM - 1
        assert main([command, "--a", "1", "--b", str(b), "--c", "1", "--sign", "+"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: a + b + c = {MAX_PARAMETER_SUM + 1} exceeds the ceiling {MAX_PARAMETER_SUM}\n"

    def test_sweep(self, capsys):
        assert main(["sweep", "--max-a", "1", "--max-b", "1", "--max-c", str(MAX_PARAMETER_SUM)]) == 2
        assert "max-a + max-b + max-c" in capsys.readouterr().err

    def test_sweep_knot_count(self, capsys):
        # 10001 = 73 * 137 knots of one sign, well inside the parameter-sum ceiling
        assert MAX_SWEEP_KNOTS + 1 == 73 * 137 and 1 + 73 + 137 <= MAX_PARAMETER_SUM
        assert main(["sweep", "--max-a", "1", "--max-b", "73", "--max-c", "137", "--sign", "+"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: signs * max-a * max-b * max-c = 10001 exceeds the ceiling {MAX_SWEEP_KNOTS}\n"

    def test_alex(self, capsys):
        # the largest twist sum of an accepted knot, then two more crossings
        a, b, c = MAX_PARAMETER_SUM - 2, 1, 1
        p, q, r = TangleParams(a, b, c, "+").pretzel_triple()
        assert abs(p) + abs(q) + abs(r) == MAX_TWIST_SUM
        assert main(["alex", "--p", str(p), "--q", str(q), "--r", str(r + 2)]) == 2
        assert f"exceeds the ceiling {MAX_TWIST_SUM}" in capsys.readouterr().err


def nodes_in_the_package(forbidden):
    """file:line of every AST node of the package for which forbidden(node) holds."""
    package = Path(pretzelhfk.__file__).resolve().parent
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if forbidden(node)
    ]


def test_the_package_has_no_assert_statements():
    # python -O strips asserts, so none may guard runtime behaviour
    assert nodes_in_the_package(lambda node: isinstance(node, ast.Assert)) == []


# On CPython 3.11 EnumType defines __getattr__, so every CurveKind.X or
# Shape.X read takes the slow attribute hook: 0.11-0.21 us against 0.02 us
# for a module name (timeit), 2-4 reads per curve per pass.  These functions
# run once per curve or knot and read the members bound in curves and hfk.
PER_CURVE_FUNCTIONS = {
    "curves.py": ["GradedCurve.__new__", "pretzel_tangle_curves"],
    "pairing.py": ["pair_curve", "pair_special14", "pair_special23"],
    "hfk.py": ["compute_hfk", "classify", "classification_from_table", "verify"],
}


def enum_member_reads(tree):
    """Every CurveKind.<member> or Shape.<member> read in tree."""
    return [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("CurveKind", "Shape")
    ]


def test_the_per_curve_functions_read_no_enum_member_through_its_class():
    package = Path(pretzelhfk.__file__).resolve().parent
    reads = {}
    for filename, names in PER_CURVE_FUNCTIONS.items():
        functions = {}
        for node in ast.parse((package / filename).read_text()).body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            functions.update((f"{node.name}.{m.name}", m) for m in methods if isinstance(m, ast.FunctionDef))
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
        for name in names:
            reads[f"{filename}:{name}"] = enum_member_reads(functions[name])
    assert {name: found for name, found in reads.items() if found} == {}
    assert enum_member_reads(ast.parse("k is CurveKind.RATIONAL or s is Shape.THIN")) == [
        "CurveKind.RATIONAL", "Shape.THIN"]
    assert [curves.RATIONAL, curves.SPECIAL14, curves.SPECIAL23] == list(curves.CurveKind)
    assert [hfk.THIN, hfk.TWO_DELTA_DISJOINT, hfk.OVERLAP] == list(hfk.Shape)


def imports_module(node, module):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == module for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module


@pytest.mark.parametrize("module", ["fractions", "dataclasses"])
def test_the_package_never_imports(module):
    # every number stays an exact Python int, with no fallback to Fraction, and
    # every record is a tuple: dataclasses would bring inspect into each CLI run
    assert nodes_in_the_package(lambda node: imports_module(node, module)) == []
    assert imports_module(ast.parse(f"from {module} import name").body[0], module)
    assert imports_module(ast.parse(f"import {module} as f").body[0], module)
    assert not imports_module(ast.parse("from .algebra import HalfInteger").body[0], module)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a one-shot `compute` pays for every module the CLI imports; the modules
    # loaded before the import (by site, say) are not counted
    src = str(Path(pretzelhfk.__file__).resolve().parent.parent)
    code = ("import sys; before = set(sys.modules); import pretzelhfk.cli; "
            "print(*sorted(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    added = run.stdout.split()
    assert run.returncode == 0 and "pretzelhfk.cli" in added, run.stderr
    assert {"dataclasses", "inspect"} & set(added) == set()


def imports_outside_the_stdlib(node):
    """An absolute import naming a module that is not in the standard library."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] not in sys.stdlib_module_names for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and (
        node.module.split(".")[0] not in sys.stdlib_module_names
    )


def test_the_package_imports_only_the_stdlib():
    # the library is pure stdlib: sympy and hypothesis are for derivations and tests only
    assert nodes_in_the_package(imports_outside_the_stdlib) == []
    assert imports_outside_the_stdlib(ast.parse("import sympy").body[0])
    assert imports_outside_the_stdlib(ast.parse("from hypothesis import given").body[0])
    assert imports_outside_the_stdlib(ast.parse("import os, sympy.matrices").body[0])
    assert not imports_outside_the_stdlib(ast.parse("from .algebra import HalfInteger").body[0])
    assert not imports_outside_the_stdlib(ast.parse("from itertools import accumulate").body[0])


def unused_imports(source):
    """The names a module imports and never reads; `__future__` imports are directives."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_module_reads_every_name_it_imports():
    # an import outlives the code that read it unless a test looks; `__init__`
    # imports to re-export, and cli imports compute_hfk for benchmarks/tracing.py to bind
    package = Path(pretzelhfk.__file__).resolve().parent
    unused = {path.stem: unused_imports(path.read_text()) for path in sorted(package.glob("*.py"))}
    del unused["__init__"]
    assert unused == {**dict.fromkeys(unused, []), "cli": ["compute_hfk"]}
    assert unused_imports("from itertools import accumulate, product\nlist(accumulate([1]))\n") == ["product"]
    assert unused_imports("from typing import Dict\nx: Dict[int, int] = {}\n") == []


def test_the_package_exports_only_the_public_api():
    # the entry points, the Fox oracle, the result types and the errors; the
    # helpers stay in their modules and take values TangleParams has checked
    assert set(pretzelhfk.__all__) == {
        "TangleParams", "compute_hfk", "verify", "classify",
        "build_pretzel_diagram", "fox_alexander", "pretzel_determinant",
        "HfkTable", "HalfInteger", "VerificationReport", "Classification", "Shape",
        "AlgebraError", "CurveError", "DiagramError", "PairingError",
    }
    assert len(pretzelhfk.__all__) == 16
    for name in pretzelhfk.__all__:
        assert getattr(pretzelhfk, name, None) is not None, name


def test_every_benchmark_tracer_binding_resolves():
    # benchmarks/tracing.py replaces these attributes by name, so a dropped
    # import (such as cli's unused compute_hfk) would break only the benchmark;
    # the file is executed from its text, so nothing is written beside it
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    bindings = [(module, attr) for module, attr, _, _ in namespace["BINDINGS"]]
    assert ("cli", "compute_hfk") in bindings and ("cli", "normalize_alexander") in bindings
    for module, attr in bindings:
        assert callable(getattr(importlib.import_module(f"pretzelhfk.{module}"), attr, None)), (module, attr)


def test_the_benchmarks_other_reach_ins_resolve():
    # beyond the tracer names, benchmarks/ counts a diagram's crossings, digests
    # tables by the twice-delta of their keys, and rebuilds tables and pairings
    # from their parts in its fault-injection tests
    params = TangleParams(3, 1, 2, "+")
    assert len(build_pretzel_diagram(*params.pretzel_triple()).crossings) == 14
    table = compute_hfk(params)
    unreduced = enumerate_geometric_pairing(closure_curve(2, "-"), GradedCurve.rational(-1, 4, -4, 4))
    for entries in (table.entries, unreduced.entries):
        assert entries and all(isinstance(d.twice, int) for _, d in entries)
    rebuilt = HfkTable(params=params, entries=dict(table.entries))
    assert (rebuilt.params, rebuilt.total_rank) == (params, table.total_rank)
    cell = (0, HalfInteger(2))
    gens = GeneratorMultiset({cell: 1}).add(GeneratorMultiset({cell: 2}))
    assert ReducedPairing(gens).generators.entries == {cell: 3}
    # workloads.py labels each knot by curves.case_of, which src/ never calls,
    # and harness checks a table's symmetry through HfkTable.rank
    assert {curves.case_of(a, b).value for a, b in [(1, 1), (2, 1), (3, 1)]} == {"I", "II", "III"}
    assert all(table.rank(-s, d) == rk for (s, d), rk in table.entries.items())
    assert table.rank(10**6, HalfInteger(1)) == 0

    # each tracer count function, applied to a real result of the function it
    # is bound to, so that a record losing .total_rank or .crossings fails here
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    curve = GradedCurve.rational(-1, 4, -4, 4)
    args = {
        "compute_hfk": (params,),
        "pretzel_tangle_curves": (params.a, params.b),
        "pair_curve": (params.sign, params.c, curve),
        "build_pretzel_diagram": params.pretzel_triple(),
        "enumerate_geometric_pairing": (closure_curve(2, "-"), curve),
    }
    expected = {
        "compute_hfk": (len(table.entries), table.total_rank),
        "pretzel_tangle_curves": len(pretzel_tangle_curves(params.a, params.b)),
        "pair_curve": pair_curve(params.sign, params.c, curve).generators.total_rank,
        "build_pretzel_diagram": 14,
        "enumerate_geometric_pairing": unreduced.total_rank,
    }
    counted = [(module, attr, count) for module, attr, _, count in namespace["BINDINGS"] if count]
    assert {count.__name__ for _, _, count in counted} == {"_rank", "_table", "_crossings", "len"}
    for module, attr, count in counted:
        fn = getattr(importlib.import_module(f"pretzelhfk.{module}"), attr)
        assert count(fn(*args[attr])) == expected[attr], (module, attr)


def test_a_closed_pipe_exits_141_without_a_traceback():
    # the ascii plot of this knot is about 490 kB in one print, more than a
    # pipe holds, so the write is still pending when the reader goes away
    src = str(Path(pretzelhfk.__file__).resolve().parent.parent)
    argv = ["compute", "--a", "100", "--b", "99", "--c", "100", "--sign", "-", "--format", "ascii"]
    with subprocess.Popen([sys.executable, "-m", "pretzelhfk.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"P(200,-199,-201)")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: flushing raises BrokenPipeError."""

    def flush(self):
        raise BrokenPipeError

    def fileno(self):
        return 1


def test_the_closed_pipe_handler_closes_its_devnull_descriptor(monkeypatch):
    # os.dup2 is recorded, not run, so the real stdout is never touched
    opened, duplicated = [], []
    real_open = os.open

    def recording_open(path, flags, *args):
        fd = real_open(path, flags, *args)
        opened.append((path, fd))
        return fd

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "dup2", lambda fd, fd2: duplicated.append((fd, fd2)))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["alex", "--p", "2", "--q", "-3", "--r", "5"]) == 141
    monkeypatch.undo()
    [(path, fd)] = opened
    assert path == os.devnull and duplicated == [(fd, 1)]
    with pytest.raises(OSError):
        os.fstat(fd)  # closed after dup2


def test_ascii_plot_rejects_a_generator_off_the_mu_grid():
    record = {
        "knot": {"p": 2, "q": -3, "r": 5},
        "generators": [(0, 1, 1), (0, 2, 1)],
    }
    # both parities of delta_times_2: the even one lies half a mu row off the odd lowest
    with pytest.raises(ValueError) as raised:
        cli._format_ascii(record)
    assert str(raised.value) == "generator at s=0 is off the integer mu grid"


def test_ascii_plot_columns_line_up_past_three_characters(capsys):
    # mu runs down to -100, so the mu column is 4 characters wide; s runs
    # from -121, so the cells are 5: the widest label and a space
    code, out = run(capsys, "compute", "--a", "60", "--b", "50", "--c", "70", "--sign", "-", "--format", "ascii")
    assert code == 0
    *rows, axis, labels = out.splitlines()[1:]
    assert any(row.startswith("mu=-100 |") for row in rows)
    assert len({len(row) for row in rows} | {len(axis), len(labels)}) == 1
    bar = rows[0].index("|")
    assert {row.index("|") for row in rows} == {axis.index("+")} == {labels.index("=")} == {bar}
    cells = labels[bar + 1 :]
    width = 5
    columns = [cells[i : i + width] for i in range(0, len(cells), width)]
    # each s label ends at its column, and so does every rank or dot above it
    assert [int(column) for column in columns] == list(range(int(columns[0]), int(columns[0]) + len(columns)))
    for line in [labels, *rows]:
        assert all(line[bar + width * (j + 1)] != " " for j in range(len(columns))), line[:12]


def test_ascii_plot_s_labels_never_touch(capsys):
    # the s labels of this plot reach 3 characters, as wide as the narrowest cell
    code, out = run(capsys, "compute", "--a", "6", "--b", "6", "--c", "6", "--sign", "+", "--format", "ascii")
    assert code == 0
    cells = out.splitlines()[-1].split("=", 1)[1]
    assert [int(label) for label in cells.split()] == list(range(-12, 13))
    width = len(cells) // 25
    assert all(cells[i] == " " for i in range(0, len(cells), width))  # each label's own space


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
