"""Interleaved parent/change benchmark pairs; run from the repository root.

    python3 tools/pairs.py --rev HEAD --workload grid-sweep --seed 101 --pairs 10 --seconds 30

Exports the parent revision with `git archive` into one temporary directory,
copies this work tree into another (the files `git ls-files -co
--exclude-standard` lists, as they are on disk, so an uncommitted edit goes
with them and no `__pycache__` does), and runs `benchmarks/run.py` in each,
one process at a time: pair i runs the parent first when i is even and the
change first when i is odd.  Both sides run from fresh copies with
PYTHONDONTWRITEBYTECODE=1, so each compiles its source on every run and
neither reads bytecode an earlier run or test left behind.  For every
metric it prints each side's median and quartiles, the median's relative
change, the pairs the change wins (by the metric's `better` in
BENCHMARK.json), whether the medians lie further apart than the parent's
interquartile range, whether a claimed gain holds
(at least 9 in 10 pairs won and the medians that far apart), and whether the
change is worse: its median worse than the parent's by more than the metric's
`bound` (a fraction of the parent's median; `-` for per-layer metrics, which
have none).  `--out FILE` also writes every run's result line as JSON.  If a
run exits nonzero, the runs finished so far are still written to `--out`, the
pair, side and exit code go to stderr, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), inclusive method: a single value is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: Sequence[float], change: Sequence[float], better: str,
              bound: float | None = None) -> Dict[str, float]:
    """One metric over paired runs: parent[i] and change[i] come from pair i.

    `wins` counts the pairs where the change is strictly better; `resolved`
    is whether the medians differ by more than the parent's IQR.  `holds` is
    the claim rule: the change wins at least 9 in 10 of the pairs (a tie
    counts for neither side) and the result is resolved.  `worse` is the
    no-regression rule: the change's median is worse than the parent's by
    more than `bound` times the parent's median; None when there is no bound.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    resolved = abs(cm - pm) > p3 - p1
    return {
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "relative": (cm - pm) / pm if pm else float("nan"),
        "wins": wins,
        "resolved": resolved,
        "holds": 10 * wins >= 9 * len(parent) and resolved,
        "worse": None if bound is None else sign * (cm - pm) > bound * abs(pm),
    }


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def copy_worktree(into: Path, root: Path = ROOT) -> None:
    """Copy the work tree's tracked and untracked, not ignored, files as they are on disk."""
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=root, check=True,
                           stdout=subprocess.PIPE).stdout.split(b"\0")
    for name in filter(None, map(os.fsdecode, names)):
        if (root / name).is_file():  # a tracked file deleted from the work tree is still listed
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name)


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the parent revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's result line here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}  # per-layer metrics have none

    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.rev, sides["parent"])
        copy_worktree(sides["change"])
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                try:
                    runs[side].append(run_once(sides[side], args))
                except subprocess.CalledProcessError as exc:
                    # keep the finished runs: one crash must not discard the others
                    if args.out:
                        args.out.write_text(json.dumps(runs, indent=1))
                    print(f"pair {i + 1}/{args.pairs} {side}: exit code {exc.returncode}", file=sys.stderr)
                    return 1
                print(f"pair {i + 1}/{args.pairs} {side}: failed {runs[side][-1]['failed']}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))

    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          f"trace {args.trace}; failed: parent {failed['parent']}, change {failed['change']}")
    print(f"{'metric':32} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'rel':>8} worse "
          "wins  resolved holds")
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        s = summarize(values["parent"], values["change"], better[name], bound.get(name))
        worse = "-" if s["worse"] is None else "yes" if s["worse"] else "no"
        print(f"{name:32} {s['parent_median']:>14.6g} [{s['parent_q1']:.6g}, {s['parent_q3']:.6g}]"
              f" {s['change_median']:>14.6g} [{s['change_q1']:.6g}, {s['change_q3']:.6g}]"
              f" {s['relative']:>+8.1%} {worse:5} {s['wins']:>2}/{args.pairs}  {'yes' if s['resolved'] else 'no':8} "
              f"{'yes' if s['holds'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
