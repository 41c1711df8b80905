"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pretzelhfk
from pretzelhfk import cli
from pretzelhfk.cli import main


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

    def test_output_is_unchanged_under_python_O(self):
        src = str(Path(pretzelhfk.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["-m", "pretzelhfk.cli", "alex", "--p", "6", "--q", "-3", "--r", "5"]
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, text=True, timeout=60)
            for flags in ([], ["-O"])
        )
        assert optimized.returncode == plain.returncode == 0
        assert optimized.stdout == plain.stdout == (
            "t^3 - 2*t^2 + 3 - 2*t^-2 + t^-3\ndeterminant 3\n"
        )


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
