"""Affine-paving combinatorics of type-A Springer fibers.

Two bijective labelings of a Young diagram drive everything here.  The
"Tym" labeling fills columns left to right, each column bottom to top;
the "Std" labeling reads rows top to bottom.  The permutation carrying
Std labels to Tym labels box by box singles out a distinguished cell of
maximal dimension, and the full cell enumeration builds exactly the
nonempty cells as the shuffles of the Tym rows.  Each placed label adds to
the cell dimension the popcount of a bitmask of the labels placed before
it, and that mask depends only on how many labels each row has given out.
So the enumeration meets in the middle: half-length prefixes are joined to
per-state tables of suffixes, each already bucketed by the dimension it
adds, and the cells come out in order with no sort.

Root sets are sets of pairs (i, j) with i < j, standing for the positive
root that is the sum of the consecutive simple roots i .. j-1.  For a
permutation w, phi_w collects the pairs inverted by w^-1; phi_x collects
the horizontally adjacent label pairs of the Tym labeling; phi_w_x is
the subset of phi_w splitting as (root in phi_w) + (root in phi_x).  A
nonempty cell at w has dimension |phi_w| - |phi_w_x|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    InputError,
    Partition,
    ResourceBoundError,
    conjugate_heights,
)
from .jordan import IntMatrix

DEFAULT_CELL_BOUND = 9

SCHEME_TYM = "Tym"
SCHEME_STD = "Std"

RootPair = tuple[int, int]


@dataclass(frozen=True)
class LabeledDiagram:
    """A Young diagram whose boxes carry a bijective labeling 1..total.

    Rows are stored top to bottom with weakly decreasing lengths.  A
    *pair* (i|j) is a horizontally adjacent box pair, left label i and
    right label j.
    """

    shape: Partition
    rows: tuple[tuple[int, ...], ...]
    scheme: str

    def __post_init__(self) -> None:
        if self.scheme not in (SCHEME_TYM, SCHEME_STD):
            raise InputError("unknown labeling scheme %r" % (self.scheme,))
        if tuple(len(r) for r in self.rows) != self.shape.parts:
            raise InputError("row lengths do not match the shape")
        labels = sorted(v for row in self.rows for v in row)
        if labels != list(range(1, self.shape.total + 1)):
            raise InputError("labels must be a bijection onto 1..%d" % self.shape.total)

    def pairs(self) -> tuple[RootPair, ...]:
        return tuple(
            (row[c], row[c + 1]) for row in self.rows for c in range(len(row) - 1)
        )

    def render_rows(self) -> str:
        return " ".join("[" + ",".join(map(str, row)) + "]" for row in self.rows)


@dataclass(frozen=True)
class TableauPermutation:
    """A permutation of 1..m in one-line notation: one_line[k-1] = w(k)."""

    one_line: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.one_line)
        if sorted(values) != list(range(1, len(values) + 1)):
            raise InputError("not a permutation of 1..%d: %r" % (len(values), values))
        object.__setattr__(self, "one_line", values)

    @classmethod
    def identity(cls, m: int) -> "TableauPermutation":
        return cls(tuple(range(1, m + 1)))

    @property
    def size(self) -> int:
        return len(self.one_line)

    def __call__(self, k: int) -> int:
        return self.one_line[k - 1]

    def inverse(self) -> "TableauPermutation":
        inv = [0] * self.size
        for pos, val in enumerate(self.one_line, start=1):
            inv[val - 1] = pos
        return TableauPermutation(tuple(inv))

    def cycle_notation(self) -> str:
        """Disjoint cycles, fixed points omitted; identity renders as ()."""
        seen: set[int] = set()
        cycles = []
        for start in range(1, self.size + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                cycles.append(cyc)
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.one_line)) + "]"


def _known_permutation(one_line: tuple[int, ...]) -> TableauPermutation:
    """A TableauPermutation of a tuple of ints already known to permute 1..m.

    Skips the validation in ``__post_init__``; only for values the caller
    constructed as permutations.
    """
    w = object.__new__(TableauPermutation)
    object.__setattr__(w, "one_line", one_line)
    return w


@dataclass(frozen=True)
class PavingCell:
    w: TableauPermutation
    dimension: int


class CellPaving(NamedTuple):
    cells: tuple[PavingCell, ...]
    poincare: tuple[int, ...]


def labeled_diagrams(
    p: Partition,
) -> tuple[LabeledDiagram, LabeledDiagram, TableauPermutation]:
    """Both labelings of shape ``p`` and the permutation linking them.

    The returned permutation sigma sends each Std label to the Tym label
    occupying the same box.
    """
    if p.total == 0:
        raise InputError("labelings need a nonempty partition")
    heights = conjugate_heights(p)
    tym_rows = [[0] * row_len for row_len in p.parts]
    label = 1
    for c, h in enumerate(heights):
        for r in range(h - 1, -1, -1):
            tym_rows[r][c] = label
            label += 1
    std_rows = []
    label = 1
    for row_len in p.parts:
        std_rows.append(list(range(label, label + row_len)))
        label += row_len
    sigma = [0] * p.total
    for tym_row, std_row in zip(tym_rows, std_rows):
        for tym_label, std_label in zip(tym_row, std_row):
            sigma[std_label - 1] = tym_label
    return (
        LabeledDiagram(p, tuple(tuple(r) for r in tym_rows), SCHEME_TYM),
        LabeledDiagram(p, tuple(tuple(r) for r in std_rows), SCHEME_STD),
        TableauPermutation(tuple(sigma)),
    )


def pair_matrix(d: LabeledDiagram) -> IntMatrix:
    """0/1 matrix with a one at (i, j) for every pair (i|j) of the labeling."""
    return IntMatrix.from_entries(d.shape.total, {pair: 1 for pair in d.pairs()})


def phi_x(p: Partition) -> frozenset[RootPair]:
    """Roots contributed by the horizontally adjacent pairs of the Tym labeling."""
    tym, _, _ = labeled_diagrams(p)
    return frozenset(tym.pairs())


def phi_w(w: TableauPermutation) -> frozenset[RootPair]:
    """Positive roots inverted by w: pairs (i, j), i < j, with w^-1(i) > w^-1(j)."""
    inv = w.inverse()
    m = w.size
    return frozenset(
        (i, j) for i in range(1, m) for j in range(i + 1, m + 1) if inv(i) > inv(j)
    )


def phi_w_x(w: TableauPermutation, p: Partition) -> frozenset[RootPair]:
    """Roots of phi_w splitting as a phi_w root plus a phi_x root (either order)."""
    if w.size != p.total:
        raise InputError("permutation size %d does not match |p| = %d" % (w.size, p.total))
    return _split_roots(phi_w(w), phi_x(p))


def _split_roots(in_w: frozenset[RootPair], in_x: frozenset[RootPair]) -> frozenset[RootPair]:
    """phi_w_x from phi_w and phi_x, for callers that already hold both root sets."""
    out = set()
    for i, j in in_w:
        for k in range(i + 1, j):
            left, right = (i, k), (k, j)
            if (left in in_w and right in in_x) or (left in in_x and right in in_w):
                out.add((i, j))
                break
    return frozenset(out)


def max_cell_dimension(p: Partition) -> int:
    """Dimension of the distinguished top cell: sum of (i - 1) * lambda_i over rows.

    Row i (from 1, longest first) holds lambda_i boxes, each with i - 1
    boxes above it, so this equals the sum of C(height, 2) over columns in
    O(#parts) work.  It also equals |phi_sigma| - |phi_sigma_x| and half
    the codimension of the orbit; ``checks.check_dimension_identity``
    compares all three.
    """
    return sum(i * part for i, part in enumerate(p.parts))


def enumerate_cells(p: Partition, bound: int = DEFAULT_CELL_BOUND) -> CellPaving:
    """All nonempty cells of the paving, with the coefficient list by dimension.

    A permutation w gives a nonempty cell exactly when u = w^-1 keeps every
    pair of the Tym labeling in increasing order, so the cells are the
    shuffles of the Tym rows: value v takes the next unused label, left to
    right, of some row.  On a cell a root (i, j) of phi_w lies in phi_w_x
    exactly when the left neighbor of j or the right neighbor of i lies
    strictly between i and j; in the Tym labeling the second forces the
    first.  So the dimension counts the inversions of u on the pairs (i, j)
    where j's left neighbor, if any, is at most i.

    Placing label i after the labels in the bitmask ``placed`` adds the
    popcount of ``placed & later[i]`` to the dimension, where ``later[i]``
    holds the labels j > i whose left neighbor is at most i.  ``placed`` is
    fixed by the state of a prefix, the number of labels each row has given
    out, so the suffixes that complete a prefix, and the dimension each of
    them adds, depend on that state alone.  The walk therefore meets in the
    middle: the prefixes of length m // 2 are built breadth first in
    lexicographic order, and per state of that depth a table of suffixes,
    bucketed by added dimension and lexicographic in each bucket, is built
    level by level back from the full state, two levels alive at a time.
    Each cell is a prefix followed by a suffix of its state; appending them
    prefix by prefix leaves every dimension bucket sorted, so cells come
    back ordered by (dimension, one-line form of w) with no sort.  Nothing
    recurses, so long rows cannot exhaust the recursion limit.
    """
    m = p.total
    if m == 0:
        raise InputError("cell enumeration needs a nonempty partition")
    if m > bound:
        raise ResourceBoundError(
            "partition size %d exceeds the enumeration bound %d" % (m, bound)
        )
    tym, _, _ = labeled_diagrams(p)
    rows = tym.rows
    prev_of = {j: i for i, j in tym.pairs()}
    later = [0] * (m + 1)
    for i in range(1, m + 1):
        later[i] = sum(1 << j for j in range(i + 1, m + 1) if prev_of.get(j, 0) <= i)

    def moves(state: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """(label, next state) for every row with a label left, in label order."""
        return sorted(
            (row[k], state[:r] + (k + 1,) + state[r + 1 :])
            for r, (row, k) in enumerate(zip(rows, state))
            if k < len(row)
        )

    # row_placed[r][k]: the mask of the first k labels of row r.
    row_placed = []
    for row in rows:
        masks = [0]
        for label in row:
            masks.append(masks[-1] | 1 << label)
        row_placed.append(masks)

    half = m // 2
    # Prefixes of length half, in lexicographic order: (labels, state, placed, dimension).
    front = [((), (0,) * len(rows), 0, 0)]
    for _ in range(half):
        front = [
            (
                prefix + (label,),
                after,
                placed | 1 << label,
                dim + (placed & later[label]).bit_count(),
            )
            for prefix, state, placed, dim in front
            for label, after in moves(state)
        ]
    # Suffix tables of one depth: state -> lists of suffixes by added dimension.
    tables: dict[tuple[int, ...], list[list[tuple[int, ...]]]] = {tuple(map(len, rows)): [[()]]}
    for _ in range(m - half):
        level: dict[tuple[int, ...], list[list[tuple[int, ...]]]] = {}
        for after in tables:
            for r, k in enumerate(after):
                if k:
                    level[after[:r] + (k - 1,) + after[r + 1 :]] = []
        for state, buckets in level.items():
            placed = sum(masks[k] for masks, k in zip(row_placed, state))
            for label, after in moves(state):
                added = (placed & later[label]).bit_count()
                sub = tables[after]
                buckets.extend([] for _ in range(added + len(sub) - len(buckets)))
                head = (label,)
                for d, suffixes in enumerate(sub, added):
                    buckets[d].extend(map(head.__add__, suffixes))
        tables = level
    # One list of one-line forms per dimension, up to the number of counted pairs.
    by_dim: list[list[tuple[int, ...]]] = [
        [] for _ in range(sum(mask.bit_count() for mask in later) + 1)
    ]
    for prefix, state, _, dim in front:
        for d, suffixes in enumerate(tables[state], dim):
            by_dim[d].extend(map(prefix.__add__, suffixes))
    while not by_dim[-1]:
        by_dim.pop()
    cells = []
    for dim, one_lines in enumerate(by_dim):
        cells.extend(PavingCell(_known_permutation(one_line), dim) for one_line in one_lines)
    return CellPaving(cells=tuple(cells), poincare=tuple(map(len, by_dim)))


def render_root(root: RootPair) -> str:
    return "α_{%d,%d}" % root


def render_root_set(roots: frozenset[RootPair]) -> str:
    if not roots:
        return "{}"
    return "{" + ", ".join(render_root(r) for r in sorted(roots)) + "}"
