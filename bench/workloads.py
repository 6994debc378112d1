"""Request lists for the three benchmark workloads.

A request is one argument vector for ``nilorbits.cli.main`` together with
the exit code it must return.  The seed picks the concrete inputs and
their order; the number of requests in each size class is fixed, so every
seed costs about the same.  Nothing here imports nilorbits: the inputs
are generated by the benchmark alone.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Request(NamedTuple):
    group: str
    argv: tuple[str, ...]
    expect_code: int = 0


# family -> rank of the exceptional types; classical families -> lowest rank.
EXCEPTIONAL = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
CLASSICAL_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

QUERY_MAX_RANK = 14
QUERY_MAX_PARTITION = 21
QUERY_MAX_PAVING = 6
DECOMPOSE_MAX_RANK = 20
PAVING_TOTAL = 8
# Partitions of 9 whose pavings are small; [1^9] with --cells alone would
# take about ten seconds and write 56 MB, so it is left out.
PAVING_EXTRA = ((3, 3, 3), (4, 3, 2), (5, 4))
# Ranks of the verify requests: the Jordan oracle weighs most at rank 6,
# the cell enumerations of paving-identities start at rank 7, and rank 10
# adds the kernel sweeps over 8174 subsets.  Each request runs long enough
# to average out the host's short speed swings.
VERIFY_RANKS = (6, 7, 10)


def partitions(total: int) -> list[tuple[int, ...]]:
    """All partitions of ``total``, descending lexicographic."""
    out = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(min(cap, remaining), 0, -1):
            rec(remaining - first, first, prefix + (first,))

    rec(total, total, ())
    return out


def random_partition(rng: random.Random, total: int) -> tuple[int, ...]:
    parts = []
    remaining = total
    while remaining:
        part = rng.randint(1, remaining)
        parts.append(part)
        remaining -= part
    return tuple(sorted(parts, reverse=True))


def random_subset(rng: random.Random, rank: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, rank + 1) if rng.random() < 0.5)


def _csv(values) -> str:
    return ",".join(map(str, values))


def _fmt(i: int) -> tuple[str, ...]:
    return ("--format", "json" if i % 2 == 0 else "text")


def query_mix(rng: random.Random) -> list[Request]:
    reqs = []
    i = 0
    for _ in range(5):
        for family, lo in CLASSICAL_MIN_RANK.items():
            for rank in range(lo, QUERY_MAX_RANK + 1):
                j = _csv(random_subset(rng, rank))
                reqs.append(Request("orbit-j", ("orbit", "--type", family, "--rank", str(rank), "--j", j) + _fmt(i)))
                i += 1
    for _ in range(7):
        for m in range(2, QUERY_MAX_PARTITION + 1):
            p = _csv(random_partition(rng, m))
            reqs.append(Request("orbit-partition", ("orbit", "--type", "A", "--rank", str(m - 1), "--partition", p) + _fmt(i)))
            i += 1
    for _ in range(12):
        for family, rank in EXCEPTIONAL.items():
            j = _csv(random_subset(rng, rank))
            reqs.append(Request("orbit-exceptional", ("orbit", "--type", family, "--j", j) + _fmt(i)))
            i += 1
    for rank in range(1, DECOMPOSE_MAX_RANK + 1):
        reqs.append(Request("decompose", ("decompose", "--rank", str(rank)) + _fmt(i)))
        i += 1
    for _ in range(3):
        for family in ("E6", "E7"):
            for fmt in ("json", "text"):
                reqs.append(Request("tables-dump", ("tables", "--type", family, "--format", fmt)))
                reqs.append(Request("tables-validate", ("tables", "--type", family, "--validate", "--format", fmt)))
    for _ in range(4):
        for m in range(1, QUERY_MAX_PAVING + 1):
            p = _csv(random_partition(rng, m))
            reqs.append(Request("paving", ("paving", "--partition", p) + _fmt(i)))
            reqs.append(Request("paving", ("paving", "--partition", p, "--cells") + _fmt(i + 1)))
            i += 2
    for _ in range(3):
        reqs.extend(_invalid(rng))
    rng.shuffle(reqs)
    return reqs


def _invalid(rng: random.Random) -> list[Request]:
    """Ten requests that must be refused: exit 2 for bad input, 3 for a bound."""
    rank = rng.randint(2, QUERY_MAX_RANK)
    big = random_partition(rng, rng.randint(10, 12))
    small = random_partition(rng, rng.randint(2, 6))
    while len(set(small)) == 1:  # reversed, it must not read as descending
        small = random_partition(rng, rng.randint(2, 6))
    return [
        Request("invalid", ("paving", "--partition", _csv(big)), 3),
        Request("invalid", ("decompose", "--rank", str(rng.randint(21, 40))), 3),
        Request("invalid", ("decompose", "--rank", str(rng.randint(-5, 0))), 2),
        Request("invalid", ("paving", "--partition", _csv(sorted(small))), 2),
        Request("invalid", ("orbit", "--type", "A", "--rank", str(rank), "--partition", _csv(random_partition(rng, rank))), 2),
        Request("invalid", ("orbit", "--type", rng.choice("BCD"), "--rank", str(rank), "--j", str(rank + rng.randint(1, 5))), 2),
        Request("invalid", ("orbit", "--type", rng.choice(tuple(EXCEPTIONAL)), "--partition", _csv(small)), 2),
        Request("invalid", ("orbit", "--type", rng.choice("ABCD"), "--rank", str(rank)), 2),
        Request("invalid", ("tables", "--type", rng.choice(("E8", "F4", "G2"))), 2),
        Request("invalid", ("orbit", "--type", "A", "--rank", str(rank), "--j", "x"), 2),
    ]


def paving(rng: random.Random) -> list[Request]:
    reqs = []
    for p in partitions(PAVING_TOTAL):
        reqs.append(Request("paving", ("paving", "--partition", _csv(p))))
        reqs.append(Request("paving", ("paving", "--partition", _csv(p), "--cells")))
    for p in PAVING_EXTRA:
        reqs.append(Request("paving", ("paving", "--partition", _csv(p))))
    rng.shuffle(reqs)
    return reqs


def verify(rng: random.Random) -> list[Request]:
    reqs = [Request("verify", ("verify", "--max-rank", str(r))) for r in VERIFY_RANKS]
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"query-mix": query_mix, "paving": paving, "verify": verify}


def requests(workload: str, seed: int) -> list[Request]:
    """The request list of ``workload`` for ``seed``; equal seeds give equal lists."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))
