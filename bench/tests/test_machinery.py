"""Tests of the benchmark's own machinery: tracing, request lists, checks and metadata.

Run with: python3 -m pytest -q bench/tests
"""

import importlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import expect
import spans
from run import tail
from workloads import WORKLOADS, Request, requests

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_on_a_nested_trace():
    # a[0,100] holds b[10,40] and c[50,90]; c holds d[60,70]; e[200,205] is a second root.
    trace = [
        ("a", -1, 0, 0, 100),
        ("b", 0, 0, 10, 40),
        ("c", 0, 0, 50, 90),
        ("d", 2, 0, 60, 70),
        ("e", -1, 1, 200, 205),
    ]
    assert spans.self_times(trace) == {"a": 30, "b": 30, "c": 30, "d": 10, "e": 5}


def test_self_times_of_recursion_add_up_per_name():
    trace = [("f", -1, 0, 0, 10), ("f", 0, 0, 2, 8), ("f", 1, 0, 3, 4)]
    assert spans.self_times(trace) == {"f": 10}


def test_tracer_records_parent_and_request():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    tracer.request = 7
    assert outer(1) == 4
    assert tracer.spans == [("outer", -1, 7, 0, 3), ("inner", 0, 7, 1, 2)]
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 1}


@pytest.fixture
def restore():
    """A function that undoes the tracer's rebinding; it also runs after the test."""
    package = importlib.import_module("nilorbits")
    owners = [package, package.IntMatrix, package.Partition, package.TableauPermutation]
    owners += [importlib.import_module("nilorbits." + name) for name in spans.MODULES]
    saved = [(owner, dict(vars(owner))) for owner in owners]

    def undo():
        for owner, namespace in saved:
            for key, value in namespace.items():
                if vars(owner).get(key) is not value:
                    setattr(owner, key, value)

    yield undo
    undo()


def _traced_request(argv):
    tracer = spans.Tracer()
    spans.install(tracer)
    cli = importlib.import_module("nilorbits.cli")
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_ms")}


def test_rebinding_reaches_the_cli_binding(restore):
    first = _traced_request(["paving", "--partition", "2,2,1"])
    assert first["cli.main.calls"] == 1
    assert first["paving.enumerate_cells.calls"] == 1
    assert first["paving.labeled_diagrams.calls"] > 0
    restore()
    assert _traced_request(["paving", "--partition", "2,2,1"]) == first


def test_rebinding_reaches_the_checks_binding_and_the_matmul_alias(restore):
    tracer = spans.Tracer()
    spans.install(tracer)
    checks = importlib.import_module("nilorbits.checks")
    jordan = importlib.import_module("nilorbits.jordan")
    assert checks.check_paving_identities(max_total=3).ok
    m = jordan.IntMatrix([[0, 1], [0, 0]])
    m @ m
    m.matmul(m)
    metrics = tracer.metrics()
    assert metrics["paving.enumerate_cells.calls"] == 6  # the partitions of 1, 2 and 3
    assert metrics["checks.paving_identities.checked"] == 6
    assert metrics["paving.cells_returned"] == 1 + 2 + 1 + 1 + 3 + 6
    assert metrics["jordan.IntMatrix.matmul.calls"] == 2
    assert metrics["jordan.matmul.dim3"] == 2 * 2**3


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_requests(workload):
    assert requests(workload, 3) == requests(workload, 3)
    groups = lambda reqs: sorted((r.group, r.argv[0], r.expect_code) for r in reqs)  # noqa: E731
    assert groups(requests(workload, 3)) == groups(requests(workload, 4))


def test_seed_changes_query_inputs():
    assert requests("query-mix", 1) != requests("query-mix", 2)
    assert 550 <= len(requests("query-mix", 1)) <= 650


def _respond(argv):
    cli = importlib.import_module("nilorbits.cli")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_checker_accepts_every_answer_of_a_query_mix():
    for req in requests("query-mix", 5)[:150]:
        code, out = _respond(req.argv)
        assert expect.problems(req, code, out) == [], req


@pytest.mark.parametrize(
    "group, argv, tamper",
    [
        ("paving", ("paving", "--partition", "2,2,1", "--cells"), lambda p: p["cells"].pop()),
        ("paving", ("paving", "--partition", "3,2"), lambda p: p.update(cell_count=p["cell_count"] + 1)),
        ("paving", ("paving", "--partition", "3,1,1"), lambda p: p.update(top_cell_count=1)),
        ("paving", ("paving", "--partition", "2,2"), lambda p: p.update(d_x=p["d_x"] - 1)),
        ("orbit-partition", ("orbit", "--type", "A", "--rank", "5", "--partition", "3,2,1"),
         lambda p: p.update(orbit_dimension=0)),
        ("decompose", ("decompose", "--rank", "5"), lambda p: p[0].update(characters=[0])),
        ("decompose", ("decompose", "--rank", "5"), lambda p: p.pop()),
        ("tables-validate", ("tables", "--type", "E6", "--validate"), lambda p: p.update(ok=False)),
    ],
)
def test_checker_rejects_a_tampered_payload(group, argv, tamper):
    req = Request(group, argv)
    code, out = _respond(argv)
    assert expect.problems(req, code, out) == []
    payload = json.loads(out)
    tamper(payload)
    assert expect.problems(req, code, json.dumps(payload)) != []


def test_checker_rejects_a_wrong_exit_code():
    req = Request("invalid", ("decompose", "--rank", "21"), 3)
    assert expect.problems(req, 3, "") == []
    assert expect.problems(req, 2, "") != []
    assert expect.problems(req._replace(expect_code=0, group="decompose"), 3, "") != []


def test_independent_formulas():
    assert expect.partition_count(10) == 42
    assert expect.cell_count((3, 3, 3)) == 1680
    assert expect.hook_count((3, 2)) == 5
    assert expect.top_dimension((1, 1, 1)) == 3
    assert expect.orbit_dimension((3,)) == 6


def test_tail_has_ten_samples_beyond_it_per_pass():
    one = [float(v) for v in range(100)]
    assert tail([one]) == (90.0, 89.0)
    assert tail([one, [v + 100 for v in one]]) == (90.0, 179.0)  # 20 of 200 pooled samples beyond
    assert tail([[3.0, 1.0, 2.0], [5.0, 4.0, 0.0], [6.0, 0.0, 0.0]]) == (100.0, 5.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    interactions = json.loads((ROOT / "bench" / "interactions.json").read_text())
    mapped = [m for row in interactions["per_layer"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(spans.metric_names())
    assert set(interactions["workloads"]) == set(WORKLOADS)
