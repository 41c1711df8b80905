"""End-to-end tests of the command-line interface."""

import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pretzelhfk
from pretzelhfk import cli
from pretzelhfk.alexander import build_pretzel_diagram, pretzel_determinant
from pretzelhfk.algebra import AlgebraError
from pretzelhfk.cli import MAX_PARAMETER_SUM, MAX_SWEEP_KNOTS, MAX_TWIST_SUM, main
from pretzelhfk.curves import TangleParams


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


class TestAlex:
    def test_prints_polynomial_and_determinant(self, capsys):
        code, out = run(capsys, "alex", "--p", "2", "--q", "-3", "--r", "5")
        assert code == 0
        assert "determinant 11" in out

    def test_link_input_exits_2(self, capsys):
        code = main(["alex", "--p", "2", "--q", "-4", "--r", "5"])
        assert code == 2

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
            swapped = replace(c, over=c.incoming, incoming=c.over)
            return replace(d, crossings=(d.crossings[0], swapped, *d.crossings[2:]))

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


def grid_knots():
    return [TangleParams(a, b, c, sign) for sign in "+-"
            for a in range(1, 7) for b in range(1, 7) for c in range(1, 7)]


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


class TestJsonWriter:
    def test_grid_records_are_json_dumps_byte_for_byte(self):
        for params in grid_knots():
            record = cli._record(params)
            for rec in (record, dict(record, checks={})):
                assert cli._format_json(rec) == json.dumps(rec, indent=2), params

    def test_large_knot_records_are_json_dumps_byte_for_byte(self):
        knots = large_knots(0)
        assert max(k.a for k in knots) > 90 and any(k.b == k.a - 1 for k in knots)
        for params in knots:
            record = cli._record(params)
            assert cli._format_json(record) == json.dumps(record, indent=2), params

    def test_empty_rows_and_escaped_strings(self):
        record = {"knot": {"sign": "\"+\u00e9"}, "generators": [], "alexander": [],
                  "classification": "a\nb", "checks": {}, "meta": {"seconds": 1e-07}}
        assert cli._format_json(record) == json.dumps(record, indent=2)


def test_cli_output_bytes_are_pinned():
    # compute in all four formats and a sweep, with the "seconds" line dropped;
    # the digest was taken when json.dumps(record, indent=2) wrote the record
    # and the diagram was built crossing by crossing
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
    assert digest.hexdigest() == "50a3cad36f8e8680de47c3ee432558011593fbfd95303150e1a1a59f8361fb22"


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


def imports_fractions(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "fractions" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions"


def test_the_package_never_imports_fractions():
    # every number stays an exact Python int; no step may fall back to Fraction
    assert nodes_in_the_package(imports_fractions) == []
    assert imports_fractions(ast.parse("from fractions import Fraction").body[0])
    assert imports_fractions(ast.parse("import fractions as f").body[0])


def test_a_closed_pipe_exits_141_without_a_traceback():
    # the ascii plot of this knot is about 490 kB in one print, more than a
    # pipe holds, so the write is still pending when the reader goes away
    src = str(Path(pretzelhfk.__file__).resolve().parent.parent)
    argv = ["compute", "--a", "100", "--b", "99", "--c", "100", "--sign", "-", "--format", "ascii"]
    proc = subprocess.Popen([sys.executable, "-m", "pretzelhfk.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"P(200,-199,-201)")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_ascii_plot_rejects_a_generator_off_the_mu_grid():
    record = {
        "knot": {"p": 2, "q": -3, "r": 5},
        "generators": [
            {"s": 0, "delta_times_2": 1, "rank": 1},
            {"s": 0, "delta_times_2": 2, "rank": 1},
        ],
    }
    with pytest.raises(ValueError):
        cli._format_ascii(record)


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
