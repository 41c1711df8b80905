"""Tests of the benchmark itself: metrics emitted, correctness gate not vacuous.

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402
from pretzelhfk import cli, hfk, pairing  # noqa: E402
from pretzelhfk.algebra import GeneratorMultiset, HfkTable  # noqa: E402
from pretzelhfk.hfk import Shape, classify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    """The default seed's first two operations: one of each kind the workload has."""
    return workloads.generate(workload, workloads.DEFAULT_SEED)[:2]


def two_delta_knot_units():
    """The table and CLI units of the first default-seed large knot with two delta lines."""
    units = workloads.generate("large-knots", workloads.DEFAULT_SEED)
    i = next(i for i, u in enumerate(units) if classify(u.params).shape is not Shape.THIN)
    return units[i:i + 2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, info = harness.run(workload, workloads.DEFAULT_SEED, 0, False, tiny(workload))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["problems"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, _ = harness.run(workload, workloads.DEFAULT_SEED, 1, True, tiny(workload))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["correct"]
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) and v >= -1 for v in layers.values())
    assert 0.8 < layers["trace.accounted_frac"] <= 1.0
    if workload == "geo-oracle":
        assert layers["geometry.points"] > 0 and layers["pairing.reduce.ms"] > 0
    else:
        assert layers["pairing.calls_per_curve"] == 2.0  # verify pairs every curve twice
        assert layers["alexander.crossings"] > 0
    if workload == "large-knots":
        assert layers["algebra.euler.calls_per_knot"] == 2.0  # cli._record recomputes it


def test_workload_description_matches_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]


def test_inputs_depend_only_on_the_seed():
    for workload in ("large-knots", "geo-oracle"):
        first = workloads.generate(workload, 7)
        assert first == workloads.generate(workload, 7)
        assert first != workloads.generate(workload, 8)
        mix = workloads.mix(first)
        for prop in ("case", "sign", "shape"):
            assert abs(sum(mix[prop].values()) - 1) < 1e-9
    assert workloads.generate("grid-sweep", 1) == workloads.generate("grid-sweep", 2)
    knots = workloads.large_knot_params(3)
    assert {p.sign for p in knots} == {"+", "-"}
    assert {workloads.case_of(p.a, p.b).value for p in knots} == {"I", "II", "III"}


def _faulty_compute(fault):
    original = hfk.compute_hfk

    def compute(params):
        table = original(params)
        return HfkTable(params=params, entries=fault(dict(table.entries)))

    return compute


def _perturb_rank(entries):
    key = max(entries)
    entries[key] += 1
    return entries


def _swap_delta_lines(entries):
    low, high = sorted({d for _, d in entries}, key=lambda d: d.twice)
    swap = {low: high, high: low}
    return {(s, swap[d]): rk for (s, d), rk in entries.items()}


@pytest.mark.parametrize("fault", [_perturb_rank, _swap_delta_lines])
def test_a_wrong_table_is_a_failed_operation(monkeypatch, fault):
    compute = _faulty_compute(fault)
    monkeypatch.setattr(hfk, "compute_hfk", compute)
    monkeypatch.setattr(cli, "compute_hfk", compute)
    result, info = harness.run("large-knots", workloads.DEFAULT_SEED, 0, False,
                               two_delta_knot_units())
    assert result["failed"] == 2 and not result["correct"]
    assert any("digest" in problem for problem in info["problems"])


def test_a_wrong_pairing_fails_the_sweep_and_the_geometric_check(monkeypatch):
    original = pairing.reduce_generator_pairs

    def reduce(unreduced):
        reduced = original(unreduced)
        return pairing.ReducedPairing(reduced.generators.add(
            GeneratorMultiset({next(iter(reduced.generators.entries)): 1})))

    monkeypatch.setattr(pairing, "reduce_generator_pairs", reduce)
    result, _ = harness.run("geo-oracle", workloads.DEFAULT_SEED, 0, False, tiny("geo-oracle"))
    assert result["failed"] == 1

    special14 = pairing.pair_special14

    def doubled_at_c6(closure, c, curve):
        gens = special14(closure, c, curve).generators
        return pairing.ReducedPairing(gens.add(gens) if c == 6 else gens)

    monkeypatch.setattr(pairing, "pair_special14", doubled_at_c6)
    result, _ = harness.run("grid-sweep", workloads.DEFAULT_SEED, 0, False, tiny("grid-sweep"))
    assert 0 < result["failed"] < harness.GRID_KNOTS


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "grid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
