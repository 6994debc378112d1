"""The nilorbits benchmark: three workloads, measured end to end and traced per module.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {query-mix,paving,verify} --seed N \
        --seconds S --trace {0,1}

A run first measures set-up: it spawns a cold interpreter that imports
``nilorbits.cli`` several times and keeps the median.  It then makes
passes until ``--seconds`` are used up.  A pass is one fresh interpreter
(``bench/client.py``) that sends the workload's request list to
``nilorbits.cli.main`` in process, closed loop, one client, and checks
every answer.  Passes start fresh so that a cache shared across requests
is paid for inside the pass and memory shows per pass.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  Human-readable lines with
sample counts come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLIENT = HERE / "client.py"
SPANS_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from spans import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in small batches before every pass, so that its samples
# and the passes see the same share of the machine's fast and slow spells.
SETUP_SPAWNS_PER_PASS = 2
PASS_TIMEOUT_S = 90
MIN_TAIL_SAMPLES = 10
UNITS = {"setup_s": "s", "requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "peak_rss_mb": "MB", "cli.stdout_bytes": "bytes", "trace.overhead_ratio": "ratio"}


def child_env() -> dict[str, str]:
    """The parent's environment with the source tree on the path and no worker knob."""
    env = dict(os.environ)
    env.pop("NILORBITS_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def time_setup(env, spawns: int) -> list[float]:
    """Wall times of cold interpreters that import nilorbits.cli."""
    cmd = [sys.executable, "-c", "import nilorbits.cli"]
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def run_pass(workload: str, seed: int, traced: bool, env) -> dict:
    cmd = [sys.executable, str(CLIENT), workload, str(seed), "1" if traced else "0"]
    if traced:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd.append(str(SPANS_DIR / ("spans-%s-seed%d.jsonl" % (workload, seed))))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("pass of %s exited %d:\n%s" % (workload, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def tail(passes: list[list[float]]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile of a pass with ten samples beyond it.

    The value is read from the pooled samples of all passes.  A pass of
    fewer than 2 * 10 requests has no such percentile above its median, so
    the median of the passes' slowest requests is reported as p100.
    """
    n = len(passes[0])
    if n < 2 * MIN_TAIL_SAMPLES:
        return 100.0, statistics.median(max(p) for p in passes)
    pooled = sorted(v for p in passes for v in p)
    return 100.0 * (n - MIN_TAIL_SAMPLES) / n, pooled[-MIN_TAIL_SAMPLES * len(passes) - 1]


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    """Metric values and the report lines that state their sample counts."""
    k = len(passes)
    n = passes[0]["attempted"]
    pooled = [v for p in passes for v in p["latencies_ms"]]
    level, tail_ms = tail([p["latencies_ms"] for p in passes])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "requests_per_s": attempted / sum(p["wall_s"] for p in passes),
        "latency_p50_ms": statistics.median(pooled),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    lines = [
        "setup_s %.4f s (median of %d cold imports of nilorbits.cli)" % (values["setup_s"], len(setup)),
        "requests_per_s %.3f 1/s (%d passes of %d requests)" % (values["requests_per_s"], k, n),
        "latency_p50_ms %.4f ms (median of %d requests)" % (values["latency_p50_ms"], len(pooled)),
        "latency_tail_ms %.4f ms (p%.1f of %d passes of %d requests)" % (tail_ms, level, k, n),
        "failed_ratio %.4f (%d failed of %d attempted)" % (failed / attempted, failed, attempted),
        "peak_rss_mb %.2f MB (median of %d passes)" % (values["peak_rss_mb"], k),
    ]
    return values, lines


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Self times as medians over traced passes; counts, which must repeat exactly, from the first."""
    first = traced[0]["layers"]
    values = {}
    for name in metric_names()[:-1]:
        if name.endswith("_ms"):
            values[name] = statistics.median(p["layers"][name] for p in traced)
        else:
            values[name] = first[name]
    ratio = statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain)
    values["trace.overhead_ratio"] = ratio
    unstable = [name for name in first if any(p["layers"][name] != first[name] for p in traced)
                and not name.endswith("_ms")]
    lines = ["%s %s" % (name, round(v, 4) if isinstance(v, float) else v) for name, v in values.items()]
    lines.append("traced passes %d, untraced passes %d; counts repeat exactly: %s"
                 % (len(traced), len(plain), "yes" if not unstable else "NO " + ", ".join(unstable)))
    return values, lines


def unit(name: str) -> str:
    return UNITS.get(name, "ms" if name.endswith(".self_ms") else "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nilorbits" / "cli.py").is_file():
        print("error: no nilorbits source tree at %s" % SRC, file=sys.stderr)
        return 2

    env = child_env()
    time_setup(env, 1)  # writes the bytecode cache before anything is timed
    setup, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(plain)
        began = time.perf_counter()
        setup += time_setup(env, SETUP_SPAWNS_PER_PASS)
        (traced if trace_this else plain).append(run_pass(args.workload, args.seed, trace_this, env))
        used = time.perf_counter() - start
        done = not args.trace or traced
        if done and used + (time.perf_counter() - began) > args.seconds:
            break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env_info = environment()
    print("# workload %s seed %d trace %d; python %s, nproc %d, git %s"
          % (args.workload, args.seed, args.trace, env_info["python"], env_info["nproc"], env_info["git_sha"]))
    values, lines = end_to_end(plain, setup)
    if args.trace:
        values, layer_lines = per_layer(plain, traced)
        lines += layer_lines
    for line in lines:
        print(line)
    for problem in sorted({q for p in passes for q in p["problems"]})[:20]:
        print("FAILED " + problem)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
