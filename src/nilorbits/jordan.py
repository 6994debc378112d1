"""Brute-force verification of the orbit-partition formulas.

Builds the simple-root-vector representative of a subset J as sparse
integer rows and reads its Jordan type off the ranks of its powers;
``representative_matrix`` is the dense view of those rows.

The rank chain never forms a power.  The rows of N^k are the rows of
N^(k-1) times N, so it carries an echelon basis of each row space down a
chain: the basis rows of row(N^(k-1)) times the sparse rows of N span
row(N^k), and fraction-free reduction turns them into an echelon basis
whose size is rank(N^k).  Basis rows are sparse integer rows with
distinct first columns, each divided by the gcd of its entries.  The
chain is exact: every step is integer arithmetic, each division is by a
common divisor of what it divides, and each reduction keeps the span, so
the basis sizes are the ranks over the rationals.

``IntMatrix.matmul`` (a dense product) and ``IntMatrix.rank`` (textbook
Bareiss) are plain references for the tests: no product path calls them,
and the tests build and rank explicit powers with them as a second route.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .core import (
    DataIntegrityError,
    InputError,
    LieType,
    Partition,
    SubsetJ,
    UnsupportedFamilyError,
    Value,
    check_subset_range,
    require_instance,
    require_int,
    require_iterable,
)


class IntMatrix(Value):
    """Square matrix of arbitrary-precision integers: a read-only value, compared by its rows."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        rows = tuple(
            tuple(require_int(v, "matrix entry") for v in require_iterable(row, "matrix row"))
            for row in require_iterable(rows, "matrix")
        )
        if any(len(row) != len(rows) for row in rows):
            raise InputError("matrix must be square")
        Value.__init__(self, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise InputError("dimension mismatch in matrix product")
        cols = tuple(zip(*other.rows))
        return IntMatrix._trusted(
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows)
        )

    __matmul__ = matmul

    def rank(self) -> int:
        """Exact rank by textbook fraction-free (Bareiss) elimination.

        A plain reference for the tests; the rank chain does not call it.
        Every update divides by the previous pivot, checked: a nonzero
        remainder would mean lost exactness and raises instead of truncating.
        """
        m = [list(row) for row in self.rows]
        n = self.dim
        rank = 0
        prev = 1
        for col in range(n):
            pivot = next((r for r in range(rank, n) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            lead = m[rank][col]
            # Only columns right of col are read again, so col is not cleared.
            for r in range(rank + 1, n):
                factor = m[r][col]
                for c in range(col + 1, n):
                    q, rem = divmod(lead * m[r][c] - factor * m[rank][c], prev)
                    if rem:
                        raise DataIntegrityError("fraction-free elimination lost exactness")
                    m[r][c] = q
            prev = lead
            rank += 1
        return rank


def _simple_root_entries(family: str, n: int, i: int) -> dict[tuple[int, int], int]:
    """Matrix entries of the i-th simple root vector in the defining model."""
    if family == "A":
        return {(i, i + 1): 1}
    if family == "B":
        if i <= n - 1:
            return {(i + 1, i + 2): 1, (n + i + 2, n + i + 1): -1}
        return {(1, 2 * n + 1): 1, (n + 1, 1): -1}
    if family == "C":
        if i <= n - 1:
            return {(i, i + 1): 1, (n + i + 1, n + i): -1}
        return {(n, 2 * n): 1}
    if family == "D":
        if i <= n - 1:
            return {(i, i + 1): 1, (n + i + 1, n + i): -1}
        return {(n - 1, 2 * n): 1, (n, 2 * n - 1): -1}
    raise UnsupportedFamilyError("no root-vector model for family %s" % family)


def _root_vectors(t: LieType) -> list[list[tuple[int, int, int]]]:
    """Entry i - 1: the i-th simple root vector of t as 0-indexed (row, column, value) triples."""
    n = t.rank
    return [
        [(r - 1, c - 1, v) for (r, c), v in _simple_root_entries(t.family, n, i).items()]
        for i in range(1, n + 1)
    ]


def _root_sum_rows(t: LieType, j: SubsetJ, roots) -> list[list[tuple[int, int]]]:
    """The sum of the ``roots`` of t whose indices are *not* in J, as sparse rows.

    Row k lists its 0-indexed (column, value) pairs in column order; no two
    simple root vectors share a position.  ``roots`` is ``_root_vectors(t)``,
    built once per type by a caller that sums it for many J.
    """
    skip = j.elements
    rows: list[list[tuple[int, int]]] = [[] for _ in range(t.matrix_dimension)]
    for i, entries in enumerate(roots, 1):
        if i not in skip:
            for r, c, v in entries:
                rows[r].append((c, v))
    return rows


def representative_matrix(t: LieType, j: SubsetJ) -> IntMatrix:
    """The representative's sparse rows as a dense matrix, wrapped by ``IntMatrix._trusted``."""
    require_instance(t, LieType, "Lie type")
    require_instance(j, SubsetJ, "subset")
    if not t.is_classical:
        raise UnsupportedFamilyError(
            "representative matrices exist only for classical families, not %s" % t.family
        )
    check_subset_range(t, j)
    rows = _root_sum_rows(t, j, _root_vectors(t))
    cols, zeros = range(len(rows)), [0] * len(rows)
    return IntMatrix._trusted(tuple(tuple(map(dict(row).get, cols, zeros)) for row in rows))


def _rank_chain(rows: list[list[tuple[int, int]]]) -> list[int]:
    """Ranks of the powers of m, whose row k holds the nonzero (column, value) pairs rows[k].

    The ranks run from rank(m^0) = dim down to 0, and the 0x0 matrix has
    ranks [0]; a non-nilpotent m raises.  This is the chain of the module
    docstring, from the unit rows of m^0.  When no row of m has two
    entries, e_c * m is empty or a multiple of the unit row at its one
    column, so the basis stays unit rows and one set step maps their
    columns to the next ones.  Otherwise (in the classical models, only
    type D with n-1 and n not in J) the echelon loop runs.
    """
    ranks = [len(rows)]
    if all(len(row) < 2 for row in rows):
        column = [row[0][0] if row else None for row in rows]
        basis = set(range(len(rows)))
        while basis and len(ranks) <= len(rows):
            basis = {column[c] for c in basis}
            basis.discard(None)
            ranks.append(len(basis))
    else:
        basis = [{i: 1} for i in range(len(rows))]
        while basis and len(ranks) <= len(rows):
            echelon: dict[int, dict[int, int]] = {}
            for b in basis:
                product: dict[int, int] = {}
                for k, x in b.items():
                    for col, y in rows[k]:
                        product[col] = product.get(col, 0) + x * y
                if product:
                    _reduce_into(echelon, product)
            basis = list(echelon.values())
            ranks.append(len(basis))
    if basis:
        raise InputError(
            "matrix is not nilpotent: rank of the %d-th power is %d" % (len(rows), ranks[-1])
        )
    return ranks


def _reduce_into(echelon: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Add the sparse ``row`` to the span of ``echelon``, its rows keyed by their first column.

    While the row's first column p is the first column of a basis row b,
    the row becomes (b[p] * row - row[p] * b) / g with g = gcd(b[p], row[p])
    taken out of the two factors: column p clears, the first column moves
    right, and the basis plus the row span the same space.  A row whose
    first column is new joins the basis divided by the gcd of its entries.
    Both divisions are by a common divisor, so they are exact.
    """
    row = {j: x for j, x in row.items() if x}
    while row:
        p = min(row)
        b = echelon.get(p)
        if b is None:
            g = gcd(*row.values())
            echelon[p] = {j: x // g for j, x in row.items()} if g > 1 else row
            return
        g = gcd(b[p], row[p])
        scale, factor = b[p] // g, row[p] // g
        if scale != 1:
            row = {j: scale * x for j, x in row.items()}
        for j, y in b.items():
            x = row.get(j, 0) - factor * y
            if x:
                row[j] = x
            else:
                del row[j]


def partition_from_ranks(ranks: list[int]) -> Partition:
    """The Jordan type whose powers have the ranks ``ranks``, as ``_rank_chain`` returns them.

    With r_k = rank(m^k), the count of Jordan blocks of size >= k is
    r_{k-1} - r_k.  The block sizes are taken from ``range(len(counts), 0, -1)``,
    so the parts are positive ints in descending order by construction and
    are wrapped by ``Partition._trusted``.
    """
    counts = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    parts = []
    for size in range(len(counts), 0, -1):
        larger = counts[size] if size < len(counts) else 0
        parts.extend([size] * (counts[size - 1] - larger))
    return Partition._trusted(tuple(parts))
