"""Benchmark entry point; run from the repository root.

    python3 benchmarks/run.py --workload large-knots --seed 3 --seconds 30 --trace 0

Imports pretzelhfk from this checkout's ``src/`` and nowhere else; without
those sources it exits with code 2 and prints no result.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "pretzelhfk" / "__init__.py").is_file():
        print(f"error: no pretzelhfk sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
