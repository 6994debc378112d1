"""Run the benchmark over several seeds and report each metric's median and spread.

Usage: python3 bench/spread.py --workload W [--workload W ...] [--seeds 1-10]
           [--seconds 20] [--traced] [--out bench/BENCH_<label>.json]

The spread of a metric is the distance between the first and third
quartiles of its values, as ``statistics.quantiles(values, n=4)`` gives
them, divided by their median.  ``--traced`` adds one traced run per
workload at the first seed.  ``--out`` records everything, with the
Python version, the CPU count and the git SHA, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d failed its checks:\n%s" % (workload, seed, proc.stdout))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {"environment": environment(), "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or list(WORKLOADS):
        runs = [bench(workload, seed, args.seconds, 0) for seed in args.seeds]
        metrics = {}
        for name, metric in runs[0]["metrics"].items():
            metrics[name] = dict(summarize([r["metrics"][name]["value"] for r in runs]), unit=metric["unit"])
            print("%-10s %-16s median %12.4f %-4s spread %6.2f%%  values %s" % (
                workload, name, metrics[name]["median"], metric["unit"], 100 * metrics[name]["spread"],
                " ".join("%.4g" % v for v in metrics[name]["values"])), flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                 "metrics": metrics}
        if args.traced:
            traced = bench(workload, args.seeds[0], args.seconds, 1)
            entry["traced"] = {"seed": args.seeds[0],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
