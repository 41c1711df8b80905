"""Rewrite golden.json: digests of every output of the default seed's pass.

    python3 benchmarks/golden.py

The benchmark fails any operation whose output digest differs from the one
stored here for the same input.  Rewrite only when outputs are meant to
change, and say why in the change that does it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    runner = harness.Runner(golden={})
    for workload in workloads.WORKLOADS:
        for unit in workloads.generate(workload, workloads.DEFAULT_SEED):
            if runner.run(unit).failed:
                print(f"error: {runner.problems[-1]}", file=sys.stderr)
                return 1
    lines = [f"{json.dumps(key)}: {json.dumps(runner.digests[key])}" for key in sorted(runner.digests)]
    harness.GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(runner.digests)} digests to {harness.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
