"""Record the stdout digests of every workload at the default seed.

Usage: python3 bench/golden.py

Run it only when a change is meant to alter output bytes; the benchmark
then counts every request whose output differs from the recorded digest
as failed.  It refuses to record a pass in which any check failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from client import DEFAULT_SEED, GOLDEN, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        result = run_pass(workload, DEFAULT_SEED, None, None)
        if result["failed"]:
            print("\n".join(result["problems"]), file=sys.stderr)
            return 1
        golden[workload] = result["digests"]
    GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
