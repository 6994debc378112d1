"""Foundational value types and pure combinatorics.

Partitions, Young-diagram column heights, hook-length counts, gcds over
index sets, and classification of induced sub-diagrams of simply laced
Dynkin diagrams.  Everything is exact integer arithmetic on immutable
values; nothing here touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator


class InputError(ValueError):
    """A caller supplied values outside an operation's domain."""


class UnsupportedFamilyError(InputError):
    """The requested Lie family is not covered by this operation."""


class ResourceBoundError(RuntimeError):
    """A request exceeded a configured enumeration bound."""


class DataIntegrityError(RuntimeError):
    """Embedded or derived data failed an internal consistency check."""


CLASSICAL_FAMILIES = ("A", "B", "C", "D")
EXCEPTIONAL_RANKS = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
FAMILIES = CLASSICAL_FAMILIES + tuple(EXCEPTIONAL_RANKS)

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one sweep: how many checks it ran and what failed."""

    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class LieType:
    """A simple Lie type: classical family with a free rank, or a fixed exceptional type."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError("unknown Lie family %r" % (self.family,))
        if self.family in EXCEPTIONAL_RANKS:
            fixed = EXCEPTIONAL_RANKS[self.family]
            if self.rank != fixed:
                raise InputError("%s has rank %d, got %d" % (self.family, fixed, self.rank))
        elif self.rank < _MIN_RANK[self.family]:
            raise InputError(
                "family %s requires rank >= %d, got %d"
                % (self.family, _MIN_RANK[self.family], self.rank)
            )

    @classmethod
    def of(cls, family: str, rank: int | None = None) -> "LieType":
        family = family.upper()
        if family in EXCEPTIONAL_RANKS:
            fixed = EXCEPTIONAL_RANKS[family]
            if rank is not None and rank != fixed:
                raise InputError("%s has fixed rank %d, got %d" % (family, fixed, rank))
            return cls(family, fixed)
        if rank is None:
            raise InputError("family %s requires an explicit rank" % family)
        return cls(family, rank)

    @property
    def is_classical(self) -> bool:
        return self.family in CLASSICAL_FAMILIES

    @property
    def matrix_dimension(self) -> int:
        """Size of the defining matrix model (A: n+1, B: 2n+1, C and D: 2n)."""
        n = self.rank
        if self.family == "A":
            return n + 1
        if self.family == "B":
            return 2 * n + 1
        if self.family in ("C", "D"):
            return 2 * n
        raise UnsupportedFamilyError("no matrix model for family %s" % self.family)

    @property
    def center_order(self) -> int:
        """Order of the center of the simply connected group of this type."""
        if self.family == "A":
            return self.rank + 1
        return {"B": 2, "C": 2, "D": 4, "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1}[
            self.family
        ]

    def __str__(self) -> str:
        if self.family in EXCEPTIONAL_RANKS:
            return self.family
        return "%s%d" % (self.family, self.rank)


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing sequence of positive integers.

    Input parts are normalized on construction: sorted descending, with
    like parts merged into multiplicities implicitly.  The empty partition
    (total 0) is admitted as a degenerate value.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(sorted((int(v) for v in self.parts), reverse=True))
        for v in parts:
            if v <= 0:
                raise InputError("partition parts must be positive, got %d" % v)
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def multiplicity(self, value: int) -> int:
        return self.parts.count(value)

    @property
    def very_even(self) -> bool:
        """Only even parts, each occurring an even number of times."""
        if not self.parts:
            return False
        if any(v % 2 for v in self.parts):
            return False
        return all(self.parts.count(v) % 2 == 0 for v in set(self.parts))

    @property
    def rather_odd(self) -> bool:
        """Every odd part occurs exactly once."""
        return all(self.parts.count(v) == 1 for v in set(self.parts) if v % 2)

    def conjugate(self) -> "Partition":
        return Partition(tuple(conjugate_heights(self)))

    def gcd(self) -> int:
        return reduce(math.gcd, self.parts, 0)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.parts)) + "]"


@dataclass(frozen=True)
class SubsetJ:
    """A strictly increasing subset of simple-root indices; may be empty."""

    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        elems = tuple(sorted(int(v) for v in self.elements))
        if len(set(elems)) != len(elems):
            raise InputError("subset elements must be distinct: %r" % (self.elements,))
        if elems and elems[0] < 1:
            raise InputError("subset elements must be >= 1, got %d" % elems[0])
        object.__setattr__(self, "elements", elems)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.elements)) + "}"


def all_subsets(rank: int) -> Iterator[SubsetJ]:
    """Every subset of 1..rank, in bitmask order."""
    for mask in range(1 << rank):
        yield SubsetJ(tuple(i + 1 for i in range(rank) if mask >> i & 1))


def check_subset_range(t: LieType, j: SubsetJ) -> None:
    """Reject subsets with indices outside [1, rank]."""
    for v in j:
        if not 1 <= v <= t.rank:
            raise InputError("subset element %d out of range [1, %d]" % (v, t.rank))


def gcd_of_set(values: Iterable[int], extra: int) -> int:
    """gcd of ``values`` together with ``extra``; equals ``extra`` on an empty set."""
    if extra < 1:
        raise InputError("extra must be >= 1, got %d" % extra)
    return reduce(math.gcd, values, extra)


def conjugate_heights(p: Partition) -> list[int]:
    """Column heights of the Young diagram: entry j counts parts >= j+1."""
    if not p.parts:
        return []
    return [sum(1 for v in p.parts if v >= j) for j in range(1, p.parts[0] + 1)]


def syt_count(p: Partition) -> int:
    """Number of standard fillings of the diagram, by the hook-length product."""
    heights = conjugate_heights(p)
    product = 1
    for r, row_len in enumerate(p.parts):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = heights[c] - r - 1
            product *= arm + leg + 1
    return math.factorial(p.total) // product


def partitions_of(total: int) -> Iterator[Partition]:
    """All partitions of ``total`` in descending lexicographic order."""
    if total < 0:
        raise InputError("cannot partition a negative total")
    if total == 0:
        yield Partition(())
        return

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for parts in rec(total, total):
        yield Partition(parts)


@dataclass(frozen=True)
class DynkinDiagram:
    """A tree on integer nodes with degrees at most 3 (simply laced adjacency)."""

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        nodes = tuple(sorted(self.nodes))
        edges = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        node_set = set(nodes)
        for a, b in edges:
            if a not in node_set or b not in node_set or a == b:
                raise InputError("edge (%d, %d) not between distinct nodes" % (a, b))
        if len(edges) != len(nodes) - 1:
            raise InputError("diagram must be a tree")
        adj = self.adjacency()
        if any(len(nbrs) > 3 for nbrs in adj.values()):
            raise InputError("diagram node degree exceeds 3")
        # connectivity: a tree on len(nodes) vertices with n-1 edges is
        # connected iff a walk from any node reaches all of them
        if nodes:
            seen = {nodes[0]}
            stack = [nodes[0]]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) != len(nodes):
                raise InputError("diagram must be connected")

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def dynkin_diagram(t: LieType) -> DynkinDiagram:
    """The diagram of a simply laced type, with standard node numbering.

    A_n is the path 1..n.  D_n attaches node n to node n-2 at the end of
    the path 1..n-1.  E_n hangs node 2 off node 4 of the path formed by
    1-3-4-5-...-n.
    """
    n = t.rank
    if t.family == "A":
        edges = {(i, i + 1) for i in range(1, n)}
    elif t.family == "D":
        edges = {(i, i + 1) for i in range(1, n - 1)}
        edges.add((n - 2, n))
    elif t.family in ("E6", "E7", "E8"):
        edges = {(1, 3), (2, 4)}
        edges.update((i, i + 1) for i in range(3, n))
    else:
        raise UnsupportedFamilyError(
            "family %s is not simply laced; no diagram model here" % t.family
        )
    return DynkinDiagram(tuple(range(1, n + 1)), frozenset(edges))


@dataclass(frozen=True)
class ComponentLabel:
    """A multiset of simple ADE summands, e.g. 2A_2 or A_3 + A_2 + A_1.

    Summands are stored sorted by rank descending, then family, so equal
    multisets compare equal and render identically.
    """

    summands: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.summands, key=lambda s: (-s[1], s[0])))
        for fam, rank in canon:
            if fam not in ("A", "D", "E") or rank < 1:
                raise InputError("bad summand (%r, %r)" % (fam, rank))
        object.__setattr__(self, "summands", canon)

    def render(self) -> str:
        if not self.summands:
            return "Triv."
        pieces = []
        i = 0
        while i < len(self.summands):
            fam, rank = self.summands[i]
            j = i
            while j < len(self.summands) and self.summands[j] == (fam, rank):
                j += 1
            count = j - i
            prefix = str(count) if count > 1 else ""
            pieces.append("%s%s_%d" % (prefix, fam, rank))
            i = j
        return " + ".join(pieces)

    def __str__(self) -> str:
        return self.render()


def _arm_length(adj: dict[int, list[int]], center: int, first: int) -> int:
    """Edge length of the arm starting at center and entering via first."""
    length = 1
    prev, cur = center, first
    while len(adj[cur]) == 2:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        prev, cur = cur, nxt
        length += 1
    return length


def _classify_component(comp: list[int], adj: dict[int, list[int]]) -> tuple[str, int]:
    branch = [v for v in comp if len(adj[v]) >= 3]
    if not branch:
        # induced subgraphs of a tree are forests, so degree <= 2 means a path
        return ("A", len(comp))
    if len(branch) > 1 or len(adj[branch[0]]) > 3:
        raise DataIntegrityError(
            "component %r fits no ADE pattern (corrupted adjacency data)" % (sorted(comp),)
        )
    center = branch[0]
    arms = sorted(_arm_length(adj, center, nb) for nb in adj[center])
    if arms[0] == 1 and arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms == [1, 2, 2]:
        return ("E", 6)
    if arms == [1, 2, 3]:
        return ("E", 7)
    if arms == [1, 2, 4]:
        return ("E", 8)
    raise DataIntegrityError(
        "component %r with arm lengths %r fits no ADE pattern" % (sorted(comp), arms)
    )


def classify_subdiagram(diagram: DynkinDiagram, kept_nodes: Iterable[int]) -> ComponentLabel:
    """Decompose the induced subgraph on ``kept_nodes`` into ADE summands.

    Each connected component of the induced forest is classified: a path
    with k nodes gives A_k; a tree with one degree-3 node gives D or E
    according to its sorted arm lengths.
    """
    kept = set(kept_nodes)
    unknown = kept - set(diagram.nodes)
    if unknown:
        raise InputError("kept nodes %r are not diagram nodes" % (sorted(unknown),))
    full_adj = diagram.adjacency()
    adj = {v: sorted(u for u in full_adj[v] if u in kept) for v in kept}
    seen: set[int] = set()
    summands = []
    for start in sorted(kept):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        summands.append(_classify_component(comp, adj))
    return ComponentLabel(tuple(summands))
