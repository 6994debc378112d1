"""Affine-paving combinatorics of type-A Springer fibers.

Two bijective labelings of a Young diagram drive everything here.  The
"Tym" labeling fills columns left to right, each column bottom to top;
the "Std" labeling reads rows top to bottom.  The permutation carrying
Std labels to Tym labels box by box singles out a distinguished cell of
maximal dimension, and the full cell enumeration walks the symmetric
group testing each permutation's cell for nonemptiness.

Root sets are sets of pairs (i, j) with i < j, standing for the positive
root that is the sum of the consecutive simple roots i .. j-1.  For a
permutation w, phi_w collects the pairs inverted by w^-1; phi_x collects
the horizontally adjacent label pairs of the Tym labeling; phi_w_x is
the subset of phi_w splitting as (root in phi_w) + (root in phi_x).  A
nonempty cell at w has dimension |phi_w| - |phi_w_x|.
"""

from __future__ import annotations

import itertools
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
    in_w = phi_w(w)
    in_x = phi_x(p)
    out = set()
    for i, j in in_w:
        for k in range(i + 1, j):
            left, right = (i, k), (k, j)
            if (left in in_w and right in in_x) or (left in in_x and right in in_w):
                out.add((i, j))
                break
    return frozenset(out)


def max_cell_dimension(p: Partition) -> int:
    """Dimension of the distinguished top cell: sum of C(height, 2) over columns.

    This closed form equals |phi_sigma| - |phi_sigma_x| and half the
    codimension of the orbit; ``checks.check_dimension_identity`` compares
    all three.
    """
    return sum(h * (h - 1) // 2 for h in conjugate_heights(p))


def _adjacency_maps(p: Partition) -> tuple[tuple[RootPair, ...], dict[int, int], dict[int, int]]:
    tym, _, _ = labeled_diagrams(p)
    pairs = tym.pairs()
    next_of = {i: j for i, j in pairs}
    prev_of = {j: i for i, j in pairs}
    return pairs, next_of, prev_of


def _cell_dimension_fast(
    u: tuple[int, ...], m: int, next_of: dict[int, int], prev_of: dict[int, int]
) -> int:
    """|phi_w| - |phi_w_x| for w = u^-1, using the pair matching directly.

    Each label has at most one pair neighbor on each side, so the
    existence of a splitting through phi_x reduces to two O(1) probes.
    """
    dim = 0
    for i in range(1, m):
        ui = u[i - 1]
        ni = next_of.get(i)
        for j in range(i + 1, m + 1):
            uj = u[j - 1]
            if ui < uj:
                continue
            k = prev_of.get(j)
            if k is not None and i < k and ui > u[k - 1]:
                continue
            if ni is not None and ni < j and u[ni - 1] > uj:
                continue
            dim += 1
    return dim


def enumerate_cells(p: Partition, bound: int = DEFAULT_CELL_BOUND) -> CellPaving:
    """All nonempty cells of the paving, with the coefficient list by dimension.

    A permutation w gives a nonempty cell exactly when w^-1 keeps every
    pair of the Tym labeling in increasing order.  Cells come back sorted
    by (dimension, one-line form of w), so output is byte-stable across
    runs.
    """
    m = p.total
    if m == 0:
        raise InputError("cell enumeration needs a nonempty partition")
    if m > bound:
        raise ResourceBoundError(
            "partition size %d exceeds the enumeration bound %d" % (m, bound)
        )
    pairs, next_of, prev_of = _adjacency_maps(p)
    pairs0 = tuple((a - 1, b - 1) for a, b in pairs)
    raw = []
    for u in itertools.permutations(range(1, m + 1)):
        for a, b in pairs0:
            if u[a] > u[b]:
                break
        else:
            dim = _cell_dimension_fast(u, m, next_of, prev_of)
            w = [0] * m
            for pos, val in enumerate(u, start=1):
                w[val - 1] = pos
            raw.append((dim, tuple(w)))
    raw.sort()
    max_dim = raw[-1][0] if raw else 0
    counts = [0] * (max_dim + 1)
    for dim, _ in raw:
        counts[dim] += 1
    cells = tuple(PavingCell(TableauPermutation(w), dim) for dim, w in raw)
    return CellPaving(cells=cells, poincare=tuple(counts))


def render_root(root: RootPair) -> str:
    return "α_{%d,%d}" % root


def render_root_set(roots: frozenset[RootPair]) -> str:
    if not roots:
        return "{}"
    return "{" + ", ".join(render_root(r) for r in sorted(roots)) + "}"
