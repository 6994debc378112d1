"""Affine-paving combinatorics of type-A Springer fibers.

Two bijective labelings of a Young diagram drive everything here.  The
"Tym" labeling fills columns left to right, each column bottom to top;
the "Std" labeling reads rows top to bottom.  The permutation carrying
Std labels to Tym labels box by box singles out a distinguished cell of
maximal dimension.  The nonempty cells are the shuffles of the Tym rows;
each placed label adds to the cell dimension the popcount of a bitmask
that depends only on how many labels each row has given out.  Those row
states are numbered in mixed radix, so taking a row's next label adds
the row's stride.  One walk over the states counts the cells by
dimension without building any, packing a state's counts into the bit
fields of one int so that a move costs one shift and one add.  To list
the cells, the same walk gathers each state's moves, in label order, and
stops there: ``CellBlocks.blocks`` later meets in the middle after
(m - 1) // 2 labels, joining the prefixes of that length, grown from the
move lists, to per-state suffix tables, built from them too as flat
lists and bucketed by the dimension they add only at the meeting depth.
The listing keeps that factored form, one (prefix, suffixes) block per
prefix and added dimension, and it is generic over the piece a label
adds: 1-tuples give the labels of w, and the CLI passes each label's
rendered text, so its blocks arrive as ready text.

Root sets are sets of pairs (i, j) with i < j, standing for the positive
root that is the sum of the consecutive simple roots i .. j-1.  For a
permutation w, phi_w collects the pairs inverted by w^-1; phi_x collects
the horizontally adjacent label pairs of the Tym labeling; phi_w_x is
the subset of phi_w splitting as (root in phi_w) + (root in phi_x).  A
nonempty cell at w has dimension |phi_w| - |phi_w_x|.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul, or_
from typing import NamedTuple

from .core import (
    InputError,
    Partition,
    ResourceBoundError,
    Value,
    conjugate_heights,
    echo_value,
    require_instance,
    require_int,
    require_iterable,
)

# The only bounds on the work, checked before any.  A listing holds at most
# 9! cells, those of [1^9]; a walk visits at most this many row states,
# prod(row + 1), which admits the staircase [6,5,4,3,2,1] (5040 states) and
# stops [1^14] (16384).
MAX_LISTED_CELLS = math.factorial(9)
MAX_WALKED_STATES = 10_000

RootPair = tuple[int, int]
# A prefix of one-line forms and the suffixes that complete it, in order.
Block = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


class LabeledDiagram(Value):
    """A Young diagram whose boxes carry a bijective labeling 1..total.

    Rows are stored top to bottom with weakly decreasing lengths.  A
    *pair* (i|j) is a horizontally adjacent box pair, left label i and
    right label j.
    """

    __slots__ = ("shape", "rows")

    def __init__(self, shape: Partition, rows: tuple[tuple[int, ...], ...]) -> None:
        require_instance(shape, Partition, "diagram shape")
        rows = tuple(
            tuple(require_int(v, "diagram label") for v in require_iterable(row, "diagram row"))
            for row in require_iterable(rows, "diagram rows")
        )
        if tuple(len(r) for r in rows) != shape.parts:
            raise InputError("row lengths do not match the shape")
        labels = sorted(v for row in rows for v in row)
        if labels != list(range(1, shape.total + 1)):
            raise InputError("labels must be a bijection onto 1..%d" % shape.total)
        Value.__init__(self, shape, rows)

    def pairs(self) -> tuple[RootPair, ...]:
        return tuple(
            (row[c], row[c + 1]) for row in self.rows for c in range(len(row) - 1)
        )

    def render_rows(self) -> str:
        return " ".join("[" + ",".join(map(str, row)) + "]" for row in self.rows)

    def render_matrix(self) -> str:
        """The pair matrix, a one at (i, j) for each pair (i|j), as E_{i,j} terms in (i, j) order."""
        return " + ".join("E_{%d,%d}" % pair for pair in sorted(self.pairs())) or "0"


class TableauPermutation(Value):
    """A permutation of 1..m in one-line notation: one_line[k-1] = w(k)."""

    __slots__ = ("one_line",)

    def __init__(self, one_line: tuple[int, ...]) -> None:
        self.__post_init__(one_line)

    def __post_init__(self, one_line) -> None:
        values = tuple(
            require_int(v, "permutation entry") for v in require_iterable(one_line, "permutation")
        )
        if sorted(values) != list(range(1, len(values) + 1)):
            raise InputError("not a permutation of 1..%d: %s" % (len(values), echo_value(values)))
        Value.__init__(self, values)

    @property
    def size(self) -> int:
        return len(self.one_line)

    def __call__(self, k: int) -> int:
        return self.one_line[k - 1]

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


class CellBlocks:
    """The listing of a paving as its counting walk left it: each depth's moves.

    ``moves[depth]`` maps each row state reached after ``depth`` labels to
    its moves (label, next state, added dimension), sorted into label
    order, and ``len`` is the cell count, known before the walk.  ``blocks`` builds
    the listing as (prefix, suffixes) blocks per dimension from the pieces
    each label adds, and ``by_dim`` is that listing with 1-tuple pieces, so
    its prefixes and suffixes are tuples of labels; it is built on each
    access.  A summary holds no moves and lists no cell.
    """

    __slots__ = ("moves", "count")

    def __init__(
        self, moves: tuple[dict[int, list[tuple[int, int, int]]], ...] = (), count: int = 0
    ) -> None:
        self.moves = moves
        self.count = count

    def __len__(self) -> int:
        return self.count

    @property
    def by_dim(self) -> tuple[tuple[Block, ...], ...]:
        """``by_dim[d]``: the blocks of dimension d, as (prefix tuple, suffix tuples)."""
        unit = [()] + [(label,) for label in range(1, len(self.moves) + 1)]
        return self.blocks(unit, unit)

    def blocks(self, unit, last) -> tuple[tuple[tuple, ...], ...]:
        """The cells as (prefix, suffixes) blocks, one tuple of blocks per dimension.

        A cell's text is the piece of each of its labels joined with ``+``:
        ``unit[label]`` for every label but its last, ``last[label]`` for
        that one.  ``unit[0]``, which no label uses, is the empty piece that
        starts each prefix.  The blocks of dimension d come in prefix order,
        and the cells of dimension d are prefix + s for each block and each
        s in its suffixes, which is (dimension, w) order.

        Prefixes meet suffixes after (m - 1) // 2 labels, which gives an
        even m fewer, longer blocks than a half-length prefix would, so the
        renderers do less work per cell.  Past that split each state keeps its suffixes as two parallel flat
        lists in lexicographic order, the dimension each adds and the
        suffix itself; a move extends both with one ``map`` over its next
        state's lists.  At the split one stable pass buckets each state's
        suffixes by added dimension, and each bucket becomes one tuple
        shared by every prefix that reaches the state.  The prefixes, grown
        breadth first in lexicographic order from the shallower move lists,
        join the buckets with no sort and no cell built.
        """
        moves = self.moves
        if not moves:
            return ()
        split = (len(moves) - 1) // 2
        # The deepest moves end each cell; then each shallower state's suffixes.
        tables = {
            state: ([added for _, _, added in out], [last[label] for label, _, _ in out])
            for state, out in moves[-1].items()
        }
        for depth in range(len(moves) - 2, split - 1, -1):
            level_tables = {}
            for state, out in moves[depth].items():
                dims: list[int] = []
                suffixes: list = []
                for label, after, added in out:
                    sub_dims, sub_suffixes = tables[after]
                    dims.extend(map(added.__add__, sub_dims))
                    suffixes.extend(map(unit[label].__add__, sub_suffixes))
                level_tables[state] = (dims, suffixes)
            tables = level_tables
        # Prefixes of length ``split``, in lexicographic order: (pieces, state, dimension).
        front = [(unit[0], 0, 0)]
        for step in moves[:split]:
            front = [
                (prefix + unit[label], after, dim + added)
                for prefix, state, dim in front
                for label, after, added in step[state]
            ]
        buckets = {}
        for state, (dims, suffixes) in tables.items():
            sub = [[] for _ in range(max(dims) + 1)]
            for d, suffix in zip(dims, suffixes):
                sub[d].append(suffix)
            buckets[state] = list(map(tuple, sub))
        by_dim = [[] for _ in range(max(dim + len(buckets[state]) for _, state, dim in front))]
        for prefix, state, dim in front:
            for d, suffixes in enumerate(buckets[state], dim):
                if suffixes:
                    by_dim[d].append((prefix, suffixes))
        return tuple(map(tuple, by_dim))


class CellPaving(NamedTuple):
    """The listed cells, as CellBlocks, and the Poincare vector: poincare[d] counts dimension d.

    The listing is read block by block, through ``cells.by_dim`` or
    ``cells.blocks``; the cells of dimension d are those of ``by_dim[d]``.
    """

    cells: CellBlocks
    poincare: tuple[int, ...]


def labeled_diagrams(
    p: Partition,
) -> tuple[LabeledDiagram, LabeledDiagram, TableauPermutation]:
    """Both labelings of shape ``p`` and the permutation linking them.

    The returned permutation sigma sends each Std label to the Tym label
    occupying the same box.  Each labeling writes 1..|p| once into rows of
    the lengths of ``p``, and sigma pairs the two labels of every box, so
    all three are correct by construction and are built through the
    ``_trusted`` constructor of ``core.Value``.
    """
    if require_instance(p, Partition, "partition").total == 0:
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
        LabeledDiagram._trusted(p, tuple(map(tuple, tym_rows))),
        LabeledDiagram._trusted(p, tuple(map(tuple, std_rows))),
        TableauPermutation._trusted(tuple(sigma)),
    )


def phi_w(w: TableauPermutation) -> frozenset[RootPair]:
    """Positive roots inverted by w: pairs (i, j), i < j, with w^-1(i) > w^-1(j)."""
    return _inversions(require_instance(w, TableauPermutation, "permutation").one_line)


def _inversions(one_line: tuple[int, ...]) -> frozenset[RootPair]:
    """phi_w for a tuple permuting 1..m: (y, x) for each x written before a smaller y."""
    return frozenset((y, x) for p, x in enumerate(one_line) for y in one_line[p + 1 :] if y < x)


def phi_w_x(w: TableauPermutation, p: Partition) -> frozenset[RootPair]:
    """Roots of phi_w splitting as a phi_w root plus a phi_x root (either order)."""
    require_instance(w, TableauPermutation, "permutation")
    if w.size != require_instance(p, Partition, "partition").total:
        raise InputError("permutation size %d does not match |p| = %d" % (w.size, p.total))
    return _split_roots(_inversions(w.one_line), frozenset(labeled_diagrams(p)[0].pairs()))


def _split_roots(in_w: frozenset[RootPair], in_x: frozenset[RootPair]) -> frozenset[RootPair]:
    """phi_w_x from phi_w and phi_x, for callers that already hold both root sets.

    A join on the shared endpoint: phi_x, indexed by both ends of each
    root (a, b), meets every phi_w root once.  A sum (i, b) of (i, a) in
    phi_w and (a, b), or (a, j) of (a, b) and (b, j) in phi_w, that lies
    in phi_w splits.
    """
    after: dict[int, list[int]] = {}
    before: dict[int, list[int]] = {}
    for a, b in in_x:
        after.setdefault(a, []).append(b)
        before.setdefault(b, []).append(a)
    sums = {(i, b) for i, a in in_w if a in after for b in after[a]}
    sums.update((a, j) for b, j in in_w if b in before for a in before[b])
    return in_w.intersection(sums)


def max_cell_dimension(p: Partition) -> int:
    """Dimension of the distinguished top cell: sum of (i - 1) * lambda_i over rows.

    Row i (from 1, longest first) holds lambda_i boxes, each with i - 1
    boxes above it, so this equals the sum of C(height, 2) over columns in
    O(#parts) work.  It also equals |phi_sigma| - |phi_sigma_x| and half
    the codimension of the orbit; ``checks.check_dimension_identity``
    compares all three.
    """
    require_instance(p, Partition, "partition")
    return sum(map(mul, range(len(p.parts)), p.parts))


def _later_masks(tym: LabeledDiagram) -> list[int]:
    """later[i]: the labels j > i whose left neighbor, if any, is at most i, as a bitmask."""
    # The labels whose left neighbor is absent or placed gain i's right neighbor at i.
    right_of = dict(tym.pairs())
    ready = sum(1 << row[0] for row in tym.rows)
    later = [0] * (tym.shape.total + 1)
    for i in range(1, len(later)):
        if i in right_of:
            ready |= 1 << right_of[i]
        later[i] = ready >> (i + 1) << (i + 1)
    return later


def _check_work(parts: tuple[int, ...], cells: bool) -> int:
    """The cell count m!/prod(row!), after checking the work against the fixed caps.

    Raise unless the walk stays within MAX_WALKED_STATES and, with
    ``cells``, the listing within MAX_LISTED_CELLS.  The state count stops
    at the first part that passes its cap, so a huge partition costs
    nothing; within it the rows are few and short, and the exact cell
    count, a product of binomials, is cheap.
    """
    states = 1
    for part in parts:
        states *= part + 1
        if states > MAX_WALKED_STATES:
            raise ResourceBoundError(
                "partition walks more than %d row states, the fixed state bound" % MAX_WALKED_STATES
            )
    total = math.prod(map(math.comb, accumulate(parts), parts))
    if cells and total > MAX_LISTED_CELLS:
        raise ResourceBoundError(
            "partition has more than %d cells, the fixed bound for a listing" % MAX_LISTED_CELLS
        )
    return total


def enumerate_cells(p: Partition, *, cells: bool = True) -> CellPaving:
    """The Poincare vector of the paving and, if ``cells``, its nonempty cells.

    A permutation w gives a nonempty cell exactly when u = w^-1 keeps every
    pair of the Tym labeling in increasing order, so the cells are the
    shuffles of the Tym rows: value v takes the next unused label, left to
    right, of some row.  On a cell a root (i, j) of phi_w lies in phi_w_x
    exactly when the left neighbor of j or the right neighbor of i lies
    strictly between i and j; in the Tym labeling the second forces the
    first.  So the dimension counts the inversions of u on the pairs (i, j)
    where j's left neighbor, if any, is at most i.

    Placing label i after the labels in the bitmask ``placed`` adds the
    popcount of ``placed & later[i]`` to the dimension.  ``placed`` is
    fixed by the state of a prefix, the number k_r of labels each row r has
    given out, so the suffixes that complete a prefix, and the dimension
    each of them adds, depend on that state alone.  A state is one index in
    mixed radix, the sum of k_r * stride[r] where stride[r] is the product
    of len(row) + 1 over the earlier rows; taking the next label of row r
    adds stride[r], so every move leads to a larger index.

    One walk over the prod(row + 1) states, back from the full state with
    two depths alive, counts per state the completing suffixes by added
    dimension.  Those counts are packed into one int, a field of ``width``
    bits per dimension, where 2^width exceeds the cell count m!/prod(row!),
    which bounds every field of every state; so each move passes its next
    state's int back to its state shifted by the added dimension's fields,
    one shift and one add with no carry between fields.  The fields of the
    empty state, decoded once, are the Poincare vector, and without
    ``cells`` the call ends there.

    To list cells, the walk also gathers each state's moves, (label, next
    state, added dimension), sorts them into label order once, and returns
    them per depth as CellBlocks, whose ``len`` is the cell count above;
    no prefix, suffix or cell is built here.  ``CellBlocks.blocks`` builds
    the listing from the pieces its caller gives each label, in
    (prefix, suffixes) blocks that meet after (m - 1) // 2 labels.  Nothing
    recurses, so long rows cannot exhaust the recursion limit.

    Before any work, the states must be at most MAX_WALKED_STATES and,
    with ``cells``, the cells at most MAX_LISTED_CELLS.
    """
    m = require_instance(p, Partition, "partition").total
    if m == 0:
        raise InputError("cell enumeration needs a nonempty partition")
    total = _check_work(p.parts, cells)
    width = total.bit_length()
    tym, _, _ = labeled_diagrams(p)
    later = _later_masks(tym)
    radices = [len(row) + 1 for row in tym.rows]
    strides = list(accumulate(radices, mul, initial=1))
    # Per row: its labels, its stride, its radix and the masks of its first k labels.
    row_data = [
        (row, stride, radix, list(accumulate((1 << label for label in row), or_, initial=0)))
        for row, stride, radix in zip(tym.rows, strides, radices)
    ]

    # One depth: state -> the packed counts of the suffixes that complete it.
    counts = {strides[-1] - 1: 1}
    # When listing, per depth: state -> its moves (label, next state, added).
    listing: list[dict[int, list[tuple[int, int, int]]]] = []
    for _ in range(m):
        # Each state of the deeper level passes its count back along every
        # move into it.  The move that took label i adds the popcount of
        # placed & later[i]; here ``placed`` is the deeper state's mask,
        # which holds i too, but later[i] holds only larger labels.  When
        # listing, the same pass gathers each state's moves (label, after,
        # added).
        earlier: dict[int, int] = {}
        moves: dict[int, list[tuple[int, int, int]]] = {}
        for after, count in counts.items():
            placed = 0
            taken = []
            for row, stride, radix, masks in row_data:
                k = after // stride % radix
                if k:
                    placed |= masks[k]
                    taken.append((row[k - 1], after - stride))
            for label, state in taken:
                added = (placed & later[label]).bit_count()
                earlier[state] = earlier.get(state, 0) + (count << added * width)
                if cells:
                    moves.setdefault(state, []).append((label, after, added))
        counts = earlier
        if cells:
            for out in moves.values():
                out.sort()
            listing.append(moves)
    # The empty state's fields, lowest first; the top one, the top cells, is nonzero.
    packed = counts[0]
    field = (1 << width) - 1
    coefficients = []
    while packed:
        coefficients.append(packed & field)
        packed >>= width
    poincare = tuple(coefficients)
    if not cells:
        return CellPaving(cells=CellBlocks(), poincare=poincare)
    listing.reverse()
    return CellPaving(cells=CellBlocks(tuple(listing), total), poincare=poincare)


def render_root_set(roots: frozenset[RootPair]) -> str:
    return "{" + ", ".join("α_{%d,%d}" % r for r in sorted(roots)) + "}"
