"""Foundational value types and pure combinatorics.

Partitions, Young-diagram column heights, hook-length counts, and
classification of induced sub-diagrams of simply laced Dynkin diagrams.
Everything is exact integer arithmetic on immutable values; nothing here
touches floating point.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import attrgetter


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

# An error message quotes at most this many characters of a bad argument.
ECHO_LIMIT = 60


def echo_value(value) -> str:
    """``str(value)`` for an error message, cut after ECHO_LIMIT characters and its length named.

    Error messages show ints, tuples and partitions through this, whether
    they come from the command line or from a library caller.  An int too
    long for CPython to convert to str at all is named by its bit length
    instead.
    """
    try:
        text = str(value)
    except ValueError:
        return "<%d-bit integer>" % value.bit_length()
    if len(text) <= ECHO_LIMIT:
        return text
    return "%s... (%d characters)" % (text[:ECHO_LIMIT], len(text))


def echo_text(text: str) -> str:
    """``text`` quoted for an error message, cut like ``echo_value``: the text of a bad argument."""
    if len(text) <= ECHO_LIMIT:
        return repr(text)
    return "%r... (%d characters)" % (text[:ECHO_LIMIT], len(text))


def require_int(value, what: str) -> int:
    """``value`` if its type is int; anything else, a float or a bool too, raises InputError."""
    if type(value) is not int:
        raise InputError(
            "%s must be an int, got %s %s" % (what, type(value).__name__, echo_value(value))
        )
    return value


def require_instance(value, kind: type, what: str):
    """``value`` if it is an instance of ``kind``; anything else raises InputError."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InputError(
            "%s must be %s %s, got %s %s"
            % (what, article, kind.__name__, type(value).__name__, echo_value(value))
        )
    return value


def require_iterable(values, what: str):
    """An iterator over ``values``; a value that cannot be iterated raises InputError."""
    try:
        return iter(values)
    except TypeError:
        raise InputError(
            "%s must be iterable, got %s %s" % (what, type(values).__name__, echo_value(values))
        ) from None


class Value:
    """Base of the immutable value types: fields in ``__slots__``, compared by value.

    ``Value.__init__`` takes the fields positionally, in ``__slots__`` order;
    a validating subclass checks its arguments, then calls it.  Assigning or
    deleting an attribute afterwards raises AttributeError.  Values are equal
    when they have the same class and equal fields, and equal values hash alike.
    A one-field type gets its own ``_trusted``, one ``object.__new__`` and
    one slot set, since inner loops build those by the thousand.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._field_values = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        if len(cls._setters) == 1:
            [set_field], new = cls._setters, object.__new__

            def trusted(cls, field):
                value = new(cls)
                set_field(value, field)
                return value

            cls._trusted = classmethod(trusted)

    def __init__(self, *values) -> None:
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError("%s has %d fields, got %d" % (type(self).__name__, len(setters), len(values)))
        for set_field, field in zip(setters, values):
            set_field(self, field)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError("cannot change %r of immutable %s" % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == other._field_values(other)

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    @classmethod
    def _trusted(cls, *values):
        """The value with ``values`` as its fields in ``__slots__`` order, unchecked."""
        value = object.__new__(cls)
        for set_field, field in zip(cls._setters, values):
            set_field(value, field)
        return value

    def __reduce__(self):
        # The default restore would assign each slot and be refused, so copies
        # and pickles rebuild through __init__, whose positional parameters
        # are the fields in __slots__ order.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)


class CheckResult(Value):
    """Outcome of one sweep: how many checks it ran and what failed.

    A sweep that ran no check is not ok: it would otherwise pass vacuously.
    """

    __slots__ = ("name", "checked", "failures")

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.failures


class LieType(Value):
    """A simple Lie type: classical family with a free rank, or a fixed exceptional type."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        if require_instance(family, str, "Lie family") not in FAMILIES:
            raise InputError("unknown Lie family %s" % echo_text(family))
        require_int(rank, "rank")
        if family in EXCEPTIONAL_RANKS:
            fixed = EXCEPTIONAL_RANKS[family]
            if rank != fixed:
                raise InputError("%s has fixed rank %d, got %s" % (family, fixed, echo_value(rank)))
        elif rank < _MIN_RANK[family]:
            raise InputError(
                "family %s requires rank >= %d, got %s"
                % (family, _MIN_RANK[family], echo_value(rank))
            )
        Value.__init__(self, family, rank)

    @classmethod
    def of(cls, family: str, rank: int | None = None) -> "LieType":
        """The type named ``family``, in any case; an exceptional family may leave out its rank."""
        family = require_instance(family, str, "Lie family").upper()
        if rank is None:
            if family in CLASSICAL_FAMILIES:
                raise InputError("family %s requires an explicit rank" % family)
            rank = EXCEPTIONAL_RANKS.get(family)
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


class Partition(Value):
    """A weakly decreasing sequence of positive integers.

    Input parts are normalized on construction: sorted descending, with
    like parts merged into multiplicities implicitly.  The empty partition
    (total 0) is admitted as a degenerate value.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        self.__post_init__(parts)

    def __post_init__(self, parts) -> None:
        parts = sorted(
            (require_int(v, "partition part") for v in require_iterable(parts, "partition")),
            reverse=True,
        )
        for v in parts:
            if v <= 0:
                raise InputError("partition parts must be positive, got %s" % echo_value(v))
        Value.__init__(self, tuple(parts))

    @property
    def total(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Each distinct part mapped to how often it occurs, largest part first.

        One pass over the sorted parts; the parity rules behind rather odd,
        the so/sp conditions and pi1(O), A(O) all read this count.
        """
        return {part: len(list(run)) for part, run in groupby(self.parts)}

    @property
    def very_even(self) -> bool:
        """Only even parts, each occurring an even number of times.

        The parts are sorted, so each value occurs an even number of times
        exactly when they pair off as equal neighbors: parts[0] == parts[1],
        parts[2] == parts[3], and so on.  No count is built, so a classical
        `orbit` answer counts its parts once, in ``fundamental_groups``.
        """
        firsts, seconds = self.parts[::2], self.parts[1::2]
        return bool(firsts) and firsts == seconds and all(v % 2 == 0 for v in firsts)

    def conjugate(self) -> "Partition":
        """The column heights as a partition; they are positive and descending, so built trusted."""
        return Partition._trusted(tuple(conjugate_heights(self)))

    def gcd(self) -> int:
        return math.gcd(*self.parts)

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.parts)) + "]"


class SubsetJ(Value):
    """A strictly increasing subset of simple-root indices; may be empty."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[int, ...] = ()) -> None:
        elems = tuple(
            sorted(require_int(v, "subset element") for v in require_iterable(elements, "subset"))
        )
        if len(set(elems)) != len(elems):
            raise InputError("subset elements must be distinct: %s" % echo_value(elems))
        if elems and elems[0] < 1:
            raise InputError("subset elements must be >= 1, got %s" % echo_value(elems[0]))
        Value.__init__(self, elems)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.elements)) + "}"


def subset_of_mask(mask: int) -> SubsetJ:
    """The subset holding i + 1 for each set bit i of ``mask``; a negative or non-int mask raises."""
    if require_int(mask, "subset mask") < 0:
        raise InputError("subset mask must be >= 0, got %s" % echo_value(mask))
    return SubsetJ._trusted(tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1))


def all_subsets(rank: int):
    """Every subset of 1..rank, in bitmask order: the k-th is ``subset_of_mask(k)``.

    Built by doubling: the subsets of 1..r-1, then each of them with r
    appended, whose masks are the same with bit r-1 set.  Each tuple is
    strictly increasing and its elements lie in 1..rank by construction,
    so it is wrapped by ``SubsetJ._trusted``.  All 2^rank tuples are held
    at once.  A non-int ``rank`` (a bool too) raises InputError.
    """
    require_int(rank, "rank")
    if rank < 0:
        raise InputError("rank must be >= 0, got %s" % echo_value(rank))
    subsets = [()]
    for r in range(1, rank + 1):
        subsets += [s + (r,) for s in subsets]
    return map(SubsetJ._trusted, subsets)


def check_subset_range(t: LieType, j: SubsetJ) -> None:
    """Reject subsets with indices outside [1, rank], naming the first offender.

    A SubsetJ holds its elements strictly increasing, so its first and
    last elements bound all of them: the check is O(1), and the elements
    are walked only to name the first one out of range.
    """
    elems = j.elements
    if elems and (elems[0] < 1 or elems[-1] > t.rank):
        for v in elems:
            if not 1 <= v <= t.rank:
                raise InputError(
                    "subset element %s out of range [1, %d]" % (echo_value(v), t.rank)
                )


def conjugate_heights(p: Partition) -> list[int]:
    """Column heights of the Young diagram: entry j counts parts >= j+1.

    One pass up from the shortest row, in O(lambda_1 + #parts): the
    columns that row r (from 0) reaches and no row below it does have
    height r + 1.
    """
    parts = require_instance(p, Partition, "partition").parts
    heights: list[int] = []
    for r in range(len(parts) - 1, -1, -1):
        heights.extend([r + 1] * (parts[r] - len(heights)))
    return heights


def syt_count(p: Partition) -> int:
    """Number of standard fillings of the diagram, by the hook-length product.

    A ``p`` that is not a Partition raises InputError in ``conjugate_heights``.
    """
    heights = conjugate_heights(p)
    product = 1
    for r, row_len in enumerate(p.parts):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = heights[c] - r - 1
            product *= arm + leg + 1
    return math.factorial(p.total) // product


def partitions_of(total: int):
    """All partitions of ``total`` in descending lexicographic order.

    A non-int ``total`` (a bool too) or a negative one raises InputError
    at the call, before any partition is built.  The walk is iterative,
    the descending-order algorithm of Zoghbi and Stojmenovic ("Fast
    algorithms for generating integer partitions", 1998): it keeps the
    parts above 1 and a count of trailing ones, and each step lowers the
    last part above 1 by one and refills greedily with the new part, so a
    step does O(1) amortized work besides building the yielded tuple.  The
    parts are positive ints in descending order by construction and are
    wrapped by ``Partition._trusted``.  ``total`` 0 yields one empty
    partition.
    """
    require_int(total, "partition total")
    if total < 0:
        raise InputError("cannot partition a negative total")
    return _descending_partitions(total)


def _descending_partitions(total: int):
    big, ones = ([total], 0) if total > 1 else ([], total)
    trusted = Partition._trusted
    while True:
        yield trusted(tuple(big) + (1,) * ones)
        if not big:
            return
        part = big.pop()
        if part == 2:
            ones += 2
            continue
        # Refill part + ones with parts part - 1 >= 2: as many as fit, then
        # the remainder as one part, or as a trailing one.
        lower = part - 1
        count, rest = divmod(part + ones, lower)
        big += (lower,) * count
        if rest > 1:
            big.append(rest)
            ones = 0
        else:
            ones = rest


class DynkinDiagram(Value):
    """A tree on integer nodes whose shape is a simply laced Dynkin diagram: A_n, D_n or E_6,7,8."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes: tuple[int, ...], edges: frozenset[tuple[int, int]]) -> None:
        nodes = tuple(sorted(require_int(v, "node") for v in require_iterable(nodes, "nodes")))
        if len(set(nodes)) != len(nodes):
            raise InputError("diagram nodes must be distinct: %s" % echo_value(nodes))
        edges = frozenset(
            tuple(sorted(require_int(v, "edge end") for v in require_iterable(e, "edge")))
            for e in require_iterable(edges, "edges")
        )
        node_set = set(nodes)
        for e in edges:
            if len(e) != 2 or e[0] not in node_set or e[1] not in node_set or e[0] == e[1]:
                raise InputError("edge %s not between distinct nodes" % echo_value(e))
        if len(edges) != len(nodes) - 1:
            raise InputError("diagram must be a tree")
        Value.__init__(self, nodes, edges)
        # With n - 1 edges the graph is a tree exactly when it is one
        # component; the classifier refuses a component outside A, D and E.
        try:
            components = classify_subdiagram(self, nodes).summands
        except DataIntegrityError:
            raise InputError("diagram is not of type A, D or E") from None
        if len(components) != 1:
            raise InputError("diagram must be connected")


def dynkin_diagram(t: LieType) -> DynkinDiagram:
    """The diagram of a simply laced type, with standard node numbering.

    A_n is the path 1..n.  D_n attaches node n to node n-2 at the end of
    the path 1..n-1.  E_n hangs node 2 off node 4 of the path formed by
    1-3-4-5-...-n.  Each is a tree with its edges written (low, high), built trusted.
    """
    n = require_instance(t, LieType, "Lie type").rank
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
    return DynkinDiagram._trusted(tuple(range(1, n + 1)), frozenset(edges))


def _summand_order(summand: tuple[str, int]) -> tuple[int, str]:
    """The canonical order of the summands of a ComponentLabel: rank descending, then family."""
    return -summand[1], summand[0]


class ComponentLabel(Value):
    """A multiset of simple ADE summands, e.g. 2A_2 or A_3 + A_2 + A_1.

    Summands are stored sorted by rank descending, then family, so equal
    multisets compare equal and render identically.
    """

    __slots__ = ("summands",)

    def __init__(self, summands: tuple[tuple[str, int], ...] = ()) -> None:
        pairs = []
        for summand in require_iterable(summands, "component label"):
            pair = tuple(require_iterable(summand, "summand"))
            if len(pair) != 2:
                raise InputError("bad summand %s" % echo_value(pair))
            fam, rank = pair
            if fam not in ("A", "D", "E") or require_int(rank, "summand rank") < 1:
                raise InputError("bad summand %s" % echo_value(pair))
            pairs.append(pair)
        Value.__init__(self, tuple(sorted(pairs, key=_summand_order)))

    def render(self) -> str:
        if not self.summands:
            return "Triv."
        # Equal summands are adjacent in canonical order, so each run is one term.
        runs = ((summand, len(list(run))) for summand, run in groupby(self.summands))
        return " + ".join(
            "%s%s_%d" % (count if count > 1 else "", fam, rank) for (fam, rank), count in runs
        )


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


def classify_subdiagram(diagram: DynkinDiagram, kept_nodes) -> ComponentLabel:
    """Decompose the induced subgraph on ``kept_nodes`` into ADE summands.

    Each connected component of the induced forest is classified: a path
    with k nodes gives A_k; a tree with one degree-3 node gives D or E
    according to its sorted arm lengths.  Each summand is ("A", "D" or
    "E", rank >= 1) by construction, so the label is built by
    ``ComponentLabel._trusted`` from the summands in its canonical order.
    """
    require_instance(diagram, DynkinDiagram, "diagram")
    try:
        kept = set(require_iterable(kept_nodes, "kept nodes"))
    except TypeError:
        raise InputError(
            "kept nodes must be hashable, got %s %s"
            % (type(kept_nodes).__name__, echo_value(kept_nodes))
        ) from None
    unknown = kept.difference(diagram.nodes)
    if unknown:
        raise InputError("kept nodes %s are not diagram nodes" % echo_value(unknown))
    adj: dict[int, list[int]] = {v: [] for v in kept}
    for a, b in diagram.edges:
        if a in kept and b in kept:
            adj[a].append(b)
            adj[b].append(a)
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
    return ComponentLabel._trusted(tuple(sorted(summands, key=_summand_order)))
