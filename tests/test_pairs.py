"""Tests for the summary maths and run loop of tools/pairs.py (no benchmark is run)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_quartiles_are_inclusive():
    assert pairs.quartiles([10, 11, 12, 13, 14]) == (11, 12, 13)
    assert pairs.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_a_lower_is_better_metric():
    s = pairs.summarize([10, 11, 12, 13, 14], [9, 10, 11, 12, 15], "lower")
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (11, 12, 13)
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (10, 11, 12)
    assert s["relative"] == pytest.approx(-1 / 12)
    assert s["wins"] == 4
    # the medians are 1 apart, inside the parent's IQR of 2
    assert s["resolved"] is False


def test_a_higher_is_better_metric_and_ties():
    parent = [100, 100, 101, 102, 100, 99, 100, 101, 100, 100]
    change = [110, 100, 112, 111, 109, 113, 110, 99, 111, 110]
    s = pairs.summarize(parent, change, "higher")
    assert s["wins"] == 8  # one tie, one loss
    assert s["parent_median"] == 100 and s["change_median"] == 110
    assert (s["parent_q1"], s["parent_q3"]) == (100, 100.75) and s["resolved"] is True
    assert s["relative"] == pytest.approx(0.1)
    assert pairs.summarize(parent, change, "lower")["wins"] == 1


def test_a_claim_holds_on_nine_wins_in_ten_and_a_resolved_median():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    change = [90, 91, 92, 93, 94, 95, 96, 97, 98, 110]  # one loss
    s = pairs.summarize(parent, change, "lower")
    assert (s["wins"], s["resolved"], s["holds"]) == (9, True, True)
    tied = pairs.summarize(parent, change[:8] + [108, 110], "lower")
    assert (tied["wins"], tied["resolved"], tied["holds"]) == (8, True, False)  # a tie is no win
    # every pair won, but the medians lie inside the parent's IQR of 4.5
    close = pairs.summarize(parent, [p - 1 for p in parent], "lower")
    assert (close["wins"], close["resolved"], close["holds"]) == (10, False, False)
    assert pairs.summarize([5], [4], "lower")["holds"] is True


def test_the_table_prints_whether_a_claim_holds(monkeypatch, capsys):
    def run_once(checkout, args):  # the change, run in its copy of this work tree, takes half the time
        return {"failed": 0, "metrics": {"op_ms_p50": {"value": 1.0 if checkout.name == "change" else 2.0}}}

    monkeypatch.setattr(pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(pairs, "copy_worktree", lambda into: None)
    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["--workload", "grid-sweep", "--seed", "1", "--pairs", "5"]) == 0
    header, row = capsys.readouterr().out.splitlines()[1:3]
    assert header.split()[-3:] == ["wins", "resolved", "holds"]
    assert row.split()[-3:] == ["5/5", "yes", "yes"]


def test_worse_is_a_median_past_the_bound_in_the_better_direction():
    parent = [10, 10, 10, 10, 10]
    assert pairs.summarize(parent, [12.6] * 5, "lower", 0.25)["worse"] is True
    assert pairs.summarize(parent, [12.4] * 5, "lower", 0.25)["worse"] is False
    assert pairs.summarize(parent, [7.9] * 5, "higher", 0.2)["worse"] is True
    assert pairs.summarize(parent, [8.1] * 5, "higher", 0.2)["worse"] is False
    # a large change in the better direction is never worse
    assert pairs.summarize(parent, [1] * 5, "lower", 0.25)["worse"] is False
    assert pairs.summarize(parent, [100] * 5, "higher", 0.2)["worse"] is False
    # the median decides, not a single run
    assert pairs.summarize(parent, [10, 10, 10, 30, 30], "lower", 0.25)["worse"] is False
    assert pairs.summarize(parent, [13] * 5, "lower")["worse"] is None


def test_the_table_prints_worse_from_the_bounds_in_benchmark_json(monkeypatch, capsys):
    # bounds: op_ms_p50 0.25 and items_per_s 0.2 (higher is better); pairing.ms has none
    values = {"op_ms_p50": (1.0, 1.3), "table_ms_p50": (1.0, 1.2), "items_per_s": (100.0, 70.0),
              "pairing.ms": (1.0, 5.0)}

    def run_once(checkout, args):
        side = 1 if checkout.name == "change" else 0
        return {"failed": 0, "metrics": {name: {"value": v[side]} for name, v in values.items()}}

    monkeypatch.setattr(pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(pairs, "copy_worktree", lambda into: None)
    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["--workload", "large-knots", "--seed", "1", "--pairs", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[1:]
    assert header.split()[-5:] == ["rel", "worse", "wins", "resolved", "holds"]
    worse = {row.split()[0]: row.split()[-4] for row in rows}
    assert worse == {"op_ms_p50": "yes", "table_ms_p50": "no", "items_per_s": "yes", "pairing.ms": "-"}


def test_the_change_runs_from_a_copy_with_its_edits_and_without_bytecode(tmp_path):
    repo, into = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    (repo / ".gitignore").write_text("__pycache__/\n*.log\n")
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.py").write_text("")
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    (repo / "pkg" / "mod.py").write_text("X = 2\n")  # uncommitted
    (repo / "pkg" / "new.py").write_text("Y = 3\n")  # untracked
    (repo / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
    (repo / "run.log").write_text("ignored")
    (repo / "gone.py").unlink()
    pairs.copy_worktree(into, root=repo)
    assert (into / "pkg" / "mod.py").read_text() == "X = 2\n"
    assert (into / "pkg" / "new.py").read_text() == "Y = 3\n"
    assert sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file()) == [
        ".gitignore", "pkg/mod.py", "pkg/new.py"]


def test_both_sides_run_from_fresh_directories(monkeypatch, capsys):
    made, ran = {}, set()
    monkeypatch.setattr(pairs, "export", lambda rev, into: made.setdefault("parent", into))
    monkeypatch.setattr(pairs, "copy_worktree", lambda into: made.setdefault("change", into))

    def run_once(checkout, args):
        ran.add(checkout)
        return {"failed": 0, "metrics": {"op_ms_p50": {"value": 1.0}}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["--workload", "grid-sweep", "--seed", "1", "--pairs", "2"]) == 0
    assert ran == set(made.values()) and pairs.ROOT not in ran and len(ran) == 2


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        pairs.summarize([1, 2], [1], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([], [], "lower")


def test_a_failed_run_keeps_the_finished_runs(monkeypatch, tmp_path, capsys):
    # no export, no copy and no benchmark: the third run (pair 2, change first) exits 3
    calls = []

    def run_once(checkout, args):
        calls.append(checkout)
        if len(calls) == 3:
            raise subprocess.CalledProcessError(3, ["benchmarks/run.py"])
        return {"failed": 0, "run": len(calls)}

    monkeypatch.setattr(pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(pairs, "copy_worktree", lambda into: None)
    monkeypatch.setattr(pairs, "run_once", run_once)
    out = tmp_path / "runs.json"
    code = pairs.main(["--workload", "grid-sweep", "--seed", "1", "--pairs", "10", "--out", str(out)])
    assert code == 1 and len(calls) == 3
    assert json.loads(out.read_text()) == {"parent": [{"failed": 0, "run": 1}], "change": [{"failed": 0, "run": 2}]}
    assert "pair 2/10 change: exit code 3" in capsys.readouterr().err
