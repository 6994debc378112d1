"""Output checks that do not trust the program.

Every expected value is computed here from the request alone, with the
standard library: multinomials, hook lengths, column heights, partition
counts and power sets.  ``problems`` returns an empty list for a correct
answer and one message per mismatch otherwise.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache, reduce

from workloads import EXCEPTIONAL, Request

TABLE_RANKS = {"E6": 6, "E7": 7}


def heights(parts) -> list[int]:
    """Column heights of the Young diagram of ``parts``."""
    return [sum(1 for v in parts if v > c) for c in range(max(parts, default=0))]


def cell_count(parts) -> int:
    """m! / prod(parts_i!): the number of cells of the paving."""
    out = math.factorial(sum(parts))
    for v in parts:
        out //= math.factorial(v)
    return out


def hook_count(parts) -> int:
    """Standard Young tableaux of the shape, by the hook-length formula."""
    h = heights(parts)
    product = 1
    for r, row_len in enumerate(parts):
        for c in range(row_len):
            product *= (row_len - c - 1) + (h[c] - r - 1) + 1
    return math.factorial(sum(parts)) // product


def top_dimension(parts) -> int:
    """d_x = sum over columns of C(h, 2)."""
    return sum(h * (h - 1) // 2 for h in heights(parts))


def orbit_dimension(parts) -> int:
    """(n+1)^2 - sum h^2 for the type-A orbit of ``parts``."""
    return sum(parts) ** 2 - sum(h * h for h in heights(parts))


@lru_cache(maxsize=None)
def partition_count(total: int, cap: int | None = None) -> int:
    """p(total), counted with parts at most ``cap``."""
    cap = total if cap is None else cap
    if total == 0:
        return 1
    return sum(partition_count(total - first, first) for first in range(1, min(cap, total) + 1))


def center_order(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family in ("B", "C"):
        return 2
    if family == "D":
        return 4
    return {"E6": 3, "E7": 2}.get(family, 1)


def _opt(argv, name: str) -> str | None:
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _fmt(argv) -> str:
    return _opt(argv, "--format") or "json"


def _text_field(out: str, label: str) -> str | None:
    m = re.search(r"^%s: (.*)$" % re.escape(label), out, re.M)
    return m.group(1) if m else None


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append("%s: got %r, expected %r" % (what, got, want))


def problems(req: Request, code, out: str) -> list[str]:
    """Mismatches between one response and the independently computed answer."""
    if code != req.expect_code:
        return ["exit code %r, expected %d" % (code, req.expect_code)]
    if req.expect_code != 0:
        return ["refused request wrote to stdout"] if out else []
    try:
        return CHECKS[req.group](req.argv, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return ["unreadable output: %r" % (exc,)]


def _orbit_j(argv, out: str) -> list[str]:
    family, rank = _opt(argv, "--type"), int(_opt(argv, "--rank"))
    j = list(_ints(_opt(argv, "--j")))
    dim = {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}[family]
    bad: list[str] = []
    if _fmt(argv) == "text":
        _expect(bad, "type", _text_field(out, "type"), "%s%d" % (family, rank))
        _expect(bad, "kernel identity", _text_field(out, "kernel identity holds"), "True")
        _expect(bad, "partition total", sum(_ints(_text_field(out, "partition").strip("[]"))), dim)
        return bad
    payload = json.loads(out)
    _expect(bad, "type", (payload["type"], payload["rank"]), (family, rank))
    _expect(bad, "j_set", payload["j_set"], j)
    _expect(bad, "partition total", sum(payload["partition"]), dim)
    _expect(bad, "kernel identity", payload["kernel_identity_holds"], True)
    _expect(bad, "|Z(J)| divides |Z|", center_order(family, rank) % payload["z_j"]["order"], 0)
    return bad


def _orbit_partition(argv, out: str) -> list[str]:
    parts = _ints(_opt(argv, "--partition"))
    bad: list[str] = []
    if _fmt(argv) == "text":
        _expect(bad, "orbit dimension", int(_text_field(out, "orbit dimension")), orbit_dimension(parts))
        _expect(bad, "d_x", int(_text_field(out, "d_x")), top_dimension(parts))
        return bad
    payload = json.loads(out)
    _expect(bad, "partition", tuple(payload["partition"]), parts)
    _expect(bad, "orbit_dimension", payload["orbit_dimension"], orbit_dimension(parts))
    _expect(bad, "d_x", payload["d_x"], top_dimension(parts))
    return bad


def _orbit_exceptional(argv, out: str) -> list[str]:
    family = _opt(argv, "--type")
    j = list(_ints(_opt(argv, "--j")))
    bad: list[str] = []
    if _fmt(argv) == "text":
        _expect(bad, "j_set", _text_field(out, "j_set"), str(j))
        if family in TABLE_RANKS:
            _expect(bad, "kernel identity", _text_field(out, "kernel_identity_holds"), "True")
        return bad
    payload = json.loads(out)
    _expect(bad, "type", (payload["type"], payload["rank"]), (family, EXCEPTIONAL[family]))
    _expect(bad, "j_set", payload["j_set"], j)
    _expect(bad, "|Z(J)| divides |Z|", center_order(family, EXCEPTIONAL[family]) % payload["z_j"]["order"], 0)
    if family in TABLE_RANKS:
        _expect(bad, "kernel identity", payload["kernel_identity_holds"], True)
    return bad


def _decompose(argv, out: str) -> list[str]:
    n = int(_opt(argv, "--rank"))
    bad: list[str] = []
    if _fmt(argv) == "text":
        lines = out.splitlines()
        _expect(bad, "record count", len(lines), partition_count(n + 1))
        for line in lines:
            parts = _ints(re.match(r"partition \[(.*?)\]", line).group(1))
            want = list(range(reduce(math.gcd, parts)))
            _expect(bad, "characters of %s" % (parts,), line.rsplit("characters ", 1)[1], str(want))
        return bad
    records = json.loads(out)
    _expect(bad, "record count", len(records), partition_count(n + 1))
    _expect(bad, "distinct partitions", len({tuple(r["partition"]) for r in records}), len(records))
    for r in records:
        parts = tuple(r["partition"])
        _expect(bad, "total of %s" % (parts,), sum(parts), n + 1)
        _expect(bad, "characters of %s" % (parts,), r["characters"], list(range(reduce(math.gcd, parts))))
        _expect(bad, "orbit dimension of %s" % (parts,), r["orbit_dimension"], orbit_dimension(parts))
        _expect(bad, "fiber dimension of %s" % (parts,), r["fiber_dimension"], top_dimension(parts))
    return bad


def _tables_dump(argv, out: str) -> list[str]:
    family = _opt(argv, "--type")
    if _fmt(argv) == "text":
        j_sets = []
        for line in out.splitlines():
            j_sets.extend(() if j == "-" else _ints(j) for j in line.split("\t")[1].split(";"))
    else:
        j_sets = [tuple(j) for record in json.loads(out) for j in record["j_sets"]]
    # The J sets of all records must partition the power set of 1..rank.
    rank = TABLE_RANKS[family]
    bad: list[str] = []
    _expect(bad, "J-set count", len(j_sets), 2**rank)
    _expect(bad, "distinct J sets", len(set(j_sets)), 2**rank)
    _expect(bad, "J sets in range", all(set(j) <= set(range(1, rank + 1)) for j in j_sets), True)
    return bad


def _tables_validate(argv, out: str) -> list[str]:
    bad: list[str] = []
    if _fmt(argv) == "text":
        lines = out.splitlines()
        _expect(bad, "all checks pass", bool(lines) and all(line.startswith("PASS ") for line in lines), True)
        return bad
    payload = json.loads(out)
    _expect(bad, "family", payload["family"], _opt(argv, "--type"))
    _expect(bad, "ok", payload["ok"], True)
    _expect(bad, "failures", [c["failures"] for c in payload["checks"] if c["failures"]], [])
    return bad


def _paving(argv, out: str) -> list[str]:
    parts = _ints(_opt(argv, "--partition"))
    count, top, d_x = cell_count(parts), hook_count(parts), top_dimension(parts)
    with_cells = "--cells" in argv
    bad: list[str] = []
    if _fmt(argv) == "text":
        poincare = json.loads(_text_field(out, "poincare"))
        _expect(bad, "cell count", int(_text_field(out, "cell count")), count)
        _expect(bad, "top cells", int(_text_field(out, "top cells")), top)
        _expect(bad, "d_x", int(_text_field(out, "d_x")), d_x)
        _expect(bad, "sum(poincare)", sum(poincare), count)
        if with_cells:
            _expect(bad, "cell lines", len(re.findall(r"^cell: ", out, re.M)), count)
        return bad
    payload = json.loads(out)
    _expect(bad, "partition", tuple(payload["partition"]), parts)
    _expect(bad, "cell_count", payload["cell_count"], count)
    _expect(bad, "sum(poincare)", sum(payload["poincare"]), count)
    _expect(bad, "degree of poincare", len(payload["poincare"]) - 1, d_x)
    _expect(bad, "top_cell_count", payload["top_cell_count"], top)
    _expect(bad, "syt_count", payload["syt_count"], top)
    _expect(bad, "d_x", payload["d_x"], d_x)
    if with_cells:
        cells = payload["cells"]
        m = sum(parts)
        _expect(bad, "len(cells)", len(cells), count)
        keys = [(c["dimension"], c["w"]) for c in cells]
        _expect(bad, "cells sorted by (dimension, w)", keys == sorted(keys), True)
        _expect(bad, "distinct cells", len({tuple(c["w"]) for c in cells}), len(cells))
        _expect(bad, "cells are permutations", all(sorted(c["w"]) == list(range(1, m + 1)) for c in cells), True)
        histogram = [0] * (d_x + 1)
        for c in cells:
            histogram[c["dimension"]] += 1
        _expect(bad, "cell dimensions", histogram, payload["poincare"])
    return bad


def _verify(argv, out: str) -> list[str]:
    lines = out.splitlines()
    bad: list[str] = []
    _expect(bad, "summary", bool(re.fullmatch(r"total: \d+ checks across 15 suites, 0 suites failed", lines[-1])), True)
    suites = [line for line in lines[:-1] if not line.startswith(" ")]
    _expect(bad, "suite lines", len(suites), 15)
    _expect(bad, "all suites pass", all(line.startswith("PASS ") for line in suites), True)
    return bad


CHECKS = {
    "orbit-j": _orbit_j,
    "orbit-partition": _orbit_partition,
    "orbit-exceptional": _orbit_exceptional,
    "decompose": _decompose,
    "tables-dump": _tables_dump,
    "tables-validate": _tables_validate,
    "paving": _paving,
    "verify": _verify,
}
