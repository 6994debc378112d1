"""One pass of a workload in a fresh interpreter.

Usage: python3 bench/client.py WORKLOAD SEED TRACE [SPANS_PATH]

Sends every request of the workload, one after another, to
``nilorbits.cli.main`` in this process (a closed loop with one client),
checks each answer, and prints one JSON object with the latencies, the
failures, the peak resident memory and, when TRACE is 1, the per-layer
metrics.  ``bench/run.py`` starts this script once per pass with
``PYTHONPATH`` pointing at the source tree.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import expect
import spans
from workloads import requests

DEFAULT_SEED = 0
GOLDEN = Path(__file__).with_name("golden.json")


def digest(code, out: str) -> str:
    """Short digest of one response: exit code and stdout bytes."""
    return hashlib.sha256(b"%r\n" % (code,) + out.encode("utf-8")).hexdigest()[:16]


def run_pass(workload: str, seed: int, tracer: spans.Tracer | None, golden: list[str] | None) -> dict:
    """Send, time and check every request; ``golden`` holds the expected digests, if any."""
    from nilorbits import cli

    reqs = requests(workload, seed)
    latencies, digests, problems = [], [], []
    failed = stdout_bytes = 0
    for i, req in enumerate(reqs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = i
        crash = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(req.argv))
        except SystemExit as exc:  # argparse refuses malformed argument vectors
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a harness error
            code, crash = None, repr(exc)
        latencies.append((time.perf_counter() - start) * 1e3)
        text = out.getvalue()
        stdout_bytes += len(text.encode("utf-8"))
        digests.append(digest(code, text))
        found = [crash] if crash else expect.problems(req, code, text)
        if golden is not None and digests[-1] != golden[i]:
            found.append("stdout digest differs from the recorded default-seed output")
        if found:
            failed += 1
            problems.append("%s: %s" % (" ".join(req.argv), "; ".join(found)))
    result = {
        "attempted": len(reqs),
        "failed": failed,
        "problems": problems[:20],
        "latencies_ms": latencies,
        "wall_s": sum(latencies) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": digests,
    }
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] = stdout_bytes
        result["layers"] = tracer.metrics()
    return result


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    golden = json.loads(GOLDEN.read_text())[workload] if seed == DEFAULT_SEED else None
    result = run_pass(workload, seed, tracer, golden)
    if tracer is not None and len(argv) > 3:
        tracer.write(argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
