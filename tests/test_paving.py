import inspect
import math
import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits import checks, paving
from nilorbits.core import (
    InputError,
    Partition,
    ResourceBoundError,
    conjugate_heights,
    partitions_of,
    syt_count,
)
from nilorbits.paving import (
    CellBlocks,
    CellPaving,
    LabeledDiagram,
    TableauPermutation,
    _inversions,
    _later_masks,
    _split_roots,
    enumerate_cells,
    labeled_diagrams,
    max_cell_dimension,
    phi_w,
    phi_w_x,
)


# A mutant pooled walk: its name, the source text replaced and its
# replacement, which partitions it gets wrong, and one of its
# paving-structure failures.
POOL_MUTANTS = [
    (
        "no-q-factorial",
        "sum(packed << j * width for j in range(k))",
        "packed",
        lambda parts: parts.count(1) >= 2,
        "[1, 1, 1]: summary poincare [1] != listed cells by dimension [1, 2, 2, 1]",
    ),
    (
        "pooled-moves-add-0",
        "later[0] = sum(1 << row[0] for row in rows)",
        "later[0] = 0",
        lambda parts: 1 in parts and parts[0] > 1,
        "[2, 1]: summary poincare [3] != listed cells by dimension [1, 2]",
    ),
]


def mutant_enumerate_cells(old, new):
    """enumerate_cells compiled from the paving source with ``old`` replaced by ``new``."""
    source = inspect.getsource(paving)
    assert source.count(old) == 1
    namespace = {"__name__": "nilorbits.paving_mutant", "__package__": "nilorbits"}
    exec(compile(source.replace(old, new), paving.__file__, "exec"), namespace)
    return namespace["enumerate_cells"]


def summary_shapes():
    """The 271 partitions of m <= 12 and the staircase [6, 5, 4, 3, 2, 1]."""
    return [p for m in range(1, 13) for p in partitions_of(m)] + [Partition((6, 5, 4, 3, 2, 1))]


def row_removal_mismatches(walk):
    """The summary shapes whose summary from ``walk`` differs from the row-removal recursion."""
    memo = {}
    mismatches = []
    for p in summary_shapes():
        summary = walk(p, cells=False)
        assert summary.cells.by_dim == ()
        if summary.poincare != checks.poincare_by_row_removal(p.parts, memo):
            mismatches.append(p)
    return mismatches


def tym_pairs(p):
    """Phi_x: the horizontally adjacent label pairs of the Tym labeling of ``p``."""
    return frozenset(labeled_diagrams(p)[0].pairs())


def dimensioned(paving):
    """[(dimension, w)] for every cell, read off the blocks of each dimension."""
    return [
        (d, prefix + s)
        for d, blocks in enumerate(paving.cells.by_dim)
        for prefix, suffixes in blocks
        for s in suffixes
    ]


def inverse(w):
    """w^-1, read off by listing the positions of w in the order of their values."""
    return TableauPermutation(tuple(sorted(range(1, w.size + 1), key=w)))


def indexed_inversions(one_line):
    """w^-1 as a list indexed by value (entry 0 unused) and phi_w, read off w^-1 pair by pair."""
    m = len(one_line)
    inv = [0] * (m + 1)
    for pos, val in enumerate(one_line, 1):
        inv[val] = pos
    return inv, frozenset(
        (i, j) for i in range(1, m) for j in range(i + 1, m + 1) if inv[i] > inv[j]
    )


def span_scan(in_w, in_x):
    """phi_w_x by the definition: each root of phi_w tried at every split point of its span."""
    out = set()
    for i, j in in_w:
        for k in range(i + 1, j):
            left, right = (i, k), (k, j)
            if (left in in_w and right in in_x) or (left in in_x and right in in_w):
                out.add((i, j))
                break
    return frozenset(out)


def mahonian(m):
    """Coefficients of prod_{i<=m} (1 + q + ... + q^(i-1)): permutations by inversions."""
    poly = [1]
    for i in range(2, m + 1):
        out = [0] * (len(poly) + i - 1)
        for d, coeff in enumerate(poly):
            for shift in range(i):
                out[d + shift] += coeff
        poly = out
    return poly


class TestLabeledDiagrams:
    def test_staircase(self):
        tym, std, sigma = labeled_diagrams(Partition((2, 2, 1)))
        assert tym.rows == ((3, 5), (2, 4), (1,))
        assert std.rows == ((1, 2), (3, 4), (5,))
        assert sigma.one_line == (3, 5, 2, 4, 1)
        assert sigma.cycle_notation() == "(1 3 2 5)"

    def test_single_row(self):
        tym, std, sigma = labeled_diagrams(Partition((4,)))
        assert tym.rows == std.rows == ((1, 2, 3, 4),)
        assert sigma == TableauPermutation(tuple(range(1, 5)))
        assert sigma.cycle_notation() == "()"

    def test_single_column(self):
        _, _, sigma = labeled_diagrams(Partition((1, 1, 1)))
        assert sigma.one_line == (3, 2, 1)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            labeled_diagrams(Partition(()))

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            LabeledDiagram(Partition((2, 1)), ((1, 2), (2,)))
        with pytest.raises(InputError, match="row lengths"):
            LabeledDiagram(Partition((2, 1)), ((1,), (2, 3)))

    def test_tym_pairs_increase(self):
        for total in range(1, 9):
            for p in partitions_of(total):
                tym, _, _ = labeled_diagrams(p)
                assert all(a < b for a, b in tym.pairs())


def dense_terms(d):
    """The 0/1 pair matrix of ``d`` built densely, read back as sorted (row, col, value) triples."""
    size = d.shape.total
    grid = [[0] * size for _ in range(size)]
    for i, j in d.pairs():
        grid[i - 1][j - 1] = 1
    return [(i + 1, j + 1, v) for i, row in enumerate(grid) for j, v in enumerate(row) if v]


class TestPairMatrix:
    # The pair matrix M of a labeling has a one at (i, j) for each pair (i|j) and
    # zeros elsewhere, so the labeling's pairs describe it.
    def test_std_staircase(self):
        _, std, _ = labeled_diagrams(Partition((2, 2, 1)))
        assert dense_terms(std) == [(1, 2, 1), (3, 4, 1)]

    def test_tym_staircase(self):
        tym, _, _ = labeled_diagrams(Partition((2, 2, 1)))
        assert dense_terms(tym) == [(2, 4, 1), (3, 5, 1)]

    def test_single_column_is_zero(self):
        tym, _, _ = labeled_diagrams(Partition((1, 1, 1, 1)))
        assert tym.pairs() == () and dense_terms(tym) == []

    def test_conjugation_identity(self):
        # M^Tym[sigma(k), sigma(l)] == M^Std[k, l] for every k, l, read entry by entry.
        for total in range(1, 9):
            for p in partitions_of(total):
                tym, std, sigma = labeled_diagrams(p)
                ones_tym, ones_std = set(tym.pairs()), set(std.pairs())
                for k in range(1, total + 1):
                    for l in range(1, total + 1):
                        assert ((sigma(k), sigma(l)) in ones_tym) == ((k, l) in ones_std)

    def test_render_matrix(self):
        d = LabeledDiagram(Partition((3, 2)), ((2, 4, 5), (1, 3)))
        assert d.pairs() == ((2, 4), (4, 5), (1, 3))
        assert d.render_matrix() == "E_{1,3} + E_{2,4} + E_{4,5}"
        assert LabeledDiagram(Partition((1, 1, 1)), ((3,), (1,), (2,))).render_matrix() == "0"
        # The text lists the terms of the dense pair matrix in row-major order.
        for total in range(1, 9):
            for p in partitions_of(total):
                for d in labeled_diagrams(p)[:2]:
                    expected = " + ".join("E_{%d,%d}" % (i, j) for i, j, _ in dense_terms(d))
                    assert d.render_matrix() == (expected or "0")

    def test_a_wrong_sigma_fails_the_conjugation_identity(self, monkeypatch):
        # sigma composed with the transposition (1 2) sends the Std pair (1|2)
        # of a first row of length >= 2 to (sigma(2), sigma(1)), which falls
        # while every Tym pair rises; a single column has no pair to move.
        def swapped(p):
            tym, std, sigma = labeled_diagrams(p)
            w = sigma.one_line
            return tym, std, TableauPermutation(w[1::-1] + w[2:])

        monkeypatch.setattr(checks, "labeled_diagrams", swapped)
        result = checks.check_paving_structure(5, 0)
        assert result.checked == 18
        assert list(result.failures) == [
            "%s: conjugation identity fails" % p
            for total in range(1, 6)
            for p in partitions_of(total)
            if p.parts[0] > 1
        ]


class TestRootSets:
    def test_phi_x_for_331(self):
        assert tym_pairs(Partition((3, 3, 1))) == frozenset({(2, 4), (3, 5), (4, 6), (5, 7)})

    def test_phi_x_single_row(self):
        assert tym_pairs(Partition((5,))) == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})

    def test_phi_x_single_column_empty(self):
        assert tym_pairs(Partition((1, 1, 1, 1))) == frozenset()

    def test_phi_sigma_for_331(self):
        _, _, sigma = labeled_diagrams(Partition((3, 3, 1)))
        expected = frozenset(
            {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5), (2, 7), (4, 5), (4, 7), (6, 7)}
        )
        assert phi_w(sigma) == expected

    def test_phi_w_identity(self):
        assert phi_w(TableauPermutation(tuple(range(1, 6)))) == frozenset()

    def test_phi_w_reversal(self):
        w = TableauPermutation((5, 4, 3, 2, 1))
        assert len(phi_w(w)) == 10

    def test_phi_w_x_for_331(self):
        p = Partition((3, 3, 1))
        _, _, sigma = labeled_diagrams(p)
        expected = frozenset({(1, 4), (1, 5), (1, 6), (1, 7), (2, 5), (2, 7), (4, 7)})
        assert phi_w_x(sigma, p) == expected

    def test_phi_w_x_identity_empty(self):
        assert phi_w_x(TableauPermutation(tuple(range(1, 6))), Partition((3, 2))) == frozenset()

    def test_phi_w_x_trivial_pairs(self):
        w = TableauPermutation((4, 3, 2, 1))
        assert phi_w_x(w, Partition((1, 1, 1, 1))) == frozenset()

    def test_root_sets_equal_the_definitions_on_every_cell(self):
        cells = 0
        for m in range(1, 8):
            for p in partitions_of(m):
                in_x = tym_pairs(p)
                for _, w in dimensioned(enumerate_cells(p)):
                    in_w = indexed_inversions(w)[1]
                    assert _inversions(w) == in_w, w
                    assert _split_roots(in_w, in_x) == span_scan(in_w, in_x), (p, w)
                    cells += 1
        assert cells == 1909 + 11481  # m <= 6, then m = 7

    def test_disjoint_root_sets_mean_the_tym_pairs_keep_their_order(self):
        # paving-structure reads "w^-1 keeps every Tym pair (a|b) in order" as
        # phi_x and phi_w being disjoint; the two agree on every permutation.
        kept = 0
        for m in range(1, 7):
            perms = list(permutations(range(1, m + 1)))
            for p in partitions_of(m):
                in_x = tym_pairs(p)
                for w in perms:
                    u, in_w = indexed_inversions(w)
                    ordered = all(u[a] < u[b] for a, b in in_x)
                    assert in_x.isdisjoint(_inversions(w)) is ordered, (p, w)
                    kept += ordered
        assert kept == 1909

    def test_split_roots_equals_the_span_scan_on_random_root_sets(self):
        rng = random.Random(32)
        split = 0
        for _ in range(3000):
            m = rng.randint(1, 9)
            roots = [(i, j) for i in range(1, m) for j in range(i + 1, m + 1)]
            in_w, in_x = (frozenset(r for r in roots if rng.random() < 0.4) for _ in "wx")
            got = _split_roots(in_w, in_x)
            assert got == span_scan(in_w, in_x), (in_w, in_x)
            split += bool(got)
        assert split > 1000

    def test_phi_w_x_subset_of_phi_w(self):
        for total in range(1, 7):
            for p in partitions_of(total):
                for perm in permutations(range(1, total + 1)):
                    w = TableauPermutation(perm)
                    assert phi_w_x(w, p) <= phi_w(w)

    def test_phi_x_non_overlapping(self):
        for total in range(1, 11):
            for p in partitions_of(total):
                roots = tym_pairs(p)
                for (i, j) in roots:
                    for (k, l) in roots:
                        if (i, j) != (k, l):
                            assert not (i <= k < l <= j)


class TestMaxCellDimension:
    def test_frozen_values(self):
        assert max_cell_dimension(Partition((3, 3, 1))) == 5
        assert max_cell_dimension(Partition((6,))) == 0
        # heights 3, 2 give C(3,2) + C(2,2) = 4; cross-check (20 - 12) / 2
        assert max_cell_dimension(Partition((2, 2, 1))) == 4

    def test_empty(self):
        assert max_cell_dimension(Partition(())) == 0

    def test_closed_form_matches_column_heights(self):
        for total in range(1, 13):
            for p in partitions_of(total):
                heights = conjugate_heights(p)
                assert max_cell_dimension(p) == sum(h * (h - 1) // 2 for h in heights)

    def test_identity_suite_can_fail(self, monkeypatch):
        assert checks.check_dimension_identity(max_total=5).ok
        monkeypatch.setattr(checks, "max_cell_dimension", lambda p: max_cell_dimension(p) + 1)
        result = checks.check_dimension_identity(max_total=5)
        assert result.checked == sum(1 for m in range(1, 6) for _ in partitions_of(m))
        assert len(result.failures) == 2 * result.checked


class TestEnumerateCells:
    def test_staircase_counts(self):
        paving = enumerate_cells(Partition((2, 2, 1)))
        assert len(paving.cells) == 30
        assert paving.poincare[4] == 5
        assert sum(paving.poincare) == 30

    def test_331_counts(self):
        paving = enumerate_cells(Partition((3, 3, 1)))
        assert len(paving.cells) == 140
        assert paving.poincare[5] == 21

    def test_single_row(self):
        # (2500,) walks half its depth, 1250 levels, past the recursion limit.
        for parts in ((5,), (1000,), (2500,)):
            paving = enumerate_cells(Partition(parts))
            assert len(paving.cells) == 1
            assert dimensioned(paving)[0][0] == 0
            assert paving.poincare == (1,)

    def test_full_flag_poincare_is_mahonian(self):
        for m in (2, 3, 4, 5):
            assert list(enumerate_cells(Partition((1,) * m)).poincare) == mahonian(m)
        # [1^13] is the widest column under the state cap; its middle
        # coefficients fill the most bits of the packed count fields.
        for m in range(1, 14):
            paving = enumerate_cells(Partition((1,) * m), cells=False)
            assert list(paving.poincare) == mahonian(m)

    def test_summary_at_the_state_cap_stays_small(self):
        # Packed counts, two depths alive: the staircase summary (5040
        # states) peaked at 585,232 bytes under tracemalloc when each
        # state's counts were a list of ints, and 237,300 packed.
        staircase = Partition((6, 5, 4, 3, 2, 1))
        enumerate_cells(staircase, cells=False)  # warm-up
        tracemalloc.start()
        try:
            enumerate_cells(staircase, cells=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 585_232

    def test_pavings_compare_by_value(self):
        # Listings compare by their moves and summaries by their vectors, and
        # no repr shows an object address.  A listing's moves are dicts, so
        # only a summary hashes.
        summary = enumerate_cells(Partition((2, 1)), cells=False)
        assert summary == enumerate_cells(Partition((2, 1)), cells=False)
        assert summary.cells is enumerate_cells(Partition((3,)), cells=False).cells
        assert hash(summary) == hash(enumerate_cells(Partition((2, 1)), cells=False))
        listing = enumerate_cells(Partition((2, 1)))
        assert listing == enumerate_cells(Partition((2, 1))) and listing.cells != summary.cells
        assert listing != enumerate_cells(Partition((3,)))
        assert summary != enumerate_cells(Partition((3,)), cells=False)
        with pytest.raises(TypeError):
            hash(listing)
        for value in (summary, listing):
            assert " at 0x" not in repr(value)
            assert repr(value).startswith("CellPaving(cells=CellBlocks(moves=")

    def test_subregular_sl3(self):
        # two lines meeting in a point: Betti numbers 1, 2
        assert list(enumerate_cells(Partition((2, 1))).poincare) == [1, 2]
        # [12, 1]: a chain of 12 lines, each meeting the next in a point
        paving = enumerate_cells(Partition((12, 1)))
        assert len(paving.cells) == 13
        assert paving.poincare == (1, 12)

    def test_size_alone_is_no_bound(self):
        # Past the CLI's default --bound of 9: [10] walks 11 row states and
        # [5, 5] 36, so both answer; [1^10] walks 1024 but lists 10! > 9! cells.
        assert enumerate_cells(Partition((10,)), cells=False).poincare == (1,)
        expected = checks.poincare_by_row_removal((5, 5), {})
        assert enumerate_cells(Partition((5, 5)), cells=False).poincare == expected
        assert sum(expected) == math.comb(10, 5)
        with pytest.raises(ResourceBoundError, match="cells, the fixed bound for a listing"):
            enumerate_cells(Partition((1,) * 10))

    def test_fixed_caps_hold_for_any_bound(self):
        huge = 10**20
        for parts, cells, reason in (
            ((huge,), False, "row states"),
            ((huge, huge), True, "row states"),
            ((3,) * 5 + (1,) * 3, True, "cells"),
            ((1,) * 14, False, "row states"),
        ):
            with pytest.raises(ResourceBoundError, match=reason):
                enumerate_cells(Partition(parts), cells=cells)
        # [1^13], 8192 states, is the widest column under the state cap.
        assert enumerate_cells(Partition((1,) * 13), cells=False).poincare[-1] == 1

    def test_deterministic_order(self):
        first = enumerate_cells(Partition((3, 2)))
        second = enumerate_cells(Partition((3, 2)))
        assert dimensioned(first) == dimensioned(second)
        assert first.poincare == second.poincare
        cells = dimensioned(first)
        dims = [d for d, _ in cells]
        assert dims == sorted(dims)
        for (da, wa), (db, wb) in zip(cells, cells[1:]):
            if da == db:
                assert wa < wb

    def test_sigma_cell_maximal(self):
        for total in range(1, 8):
            for p in partitions_of(total):
                cells = dimensioned(enumerate_cells(p))
                _, _, sigma = labeled_diagrams(p)
                matches = [(d, w) for d, w in cells if w == sigma.one_line]
                assert len(matches) == 1
                assert matches[0][0] == max_cell_dimension(p)

    def test_cell_count_multinomial(self):
        for total in range(1, 8):
            for p in partitions_of(total):
                cells = enumerate_cells(p).cells
                expected = math.factorial(total)
                for row in p.parts:
                    expected //= math.factorial(row)
                assert len(cells) == expected

    def test_top_cells_are_syt_count(self):
        for total in range(1, 8):
            for p in partitions_of(total):
                assert enumerate_cells(p).poincare[-1] == syt_count(p)

    def test_dimensions_match_definitional_form(self):
        for total in range(1, 8):
            for p in partitions_of(total):
                for d, w in dimensioned(enumerate_cells(p)):
                    w = TableauPermutation(w)
                    expected = len(phi_w(w)) - len(phi_w_x(w, p))
                    assert d == expected

    def test_cells_hold_valid_permutations(self):
        # Cells are bare one-line tuples; they must equal validated values.
        for total in range(1, 8):
            for p in partitions_of(total):
                for _, w in dimensioned(enumerate_cells(p)):
                    validated = TableauPermutation(w)
                    assert w == validated.one_line
                    assert hash(w) == hash(validated.one_line)
                    assert type(w) is tuple
                    assert all(type(v) is int for v in w)

    def test_poincare_matches_row_removal(self):
        memo = {}
        for total in range(1, 10):
            for p in partitions_of(total):
                expected = checks.poincare_by_row_removal(p.parts, memo)
                assert enumerate_cells(p).poincare == expected

    def test_row_removal_oracle_can_fail(self, monkeypatch):
        def shift_first_cell(p):
            # One cell of mass moves from dimension 0 to dimension 1; the
            # listed blocks stay as they are.
            paving = enumerate_cells(p)
            counts = list(paving.poincare) + [0] * (2 - len(paving.poincare))
            counts[0] -= 1
            counts[1] += 1
            return CellPaving(paving.cells, tuple(counts))

        assert checks.check_paving_identities(max_total=5).ok
        monkeypatch.setattr(checks, "enumerate_cells", shift_first_cell)
        result = checks.check_paving_identities(max_total=5)
        assert result.checked == sum(1 for m in range(1, 6) for _ in partitions_of(m))
        oracle = [f for f in result.failures if "row-removal" in f]
        assert len(oracle) == result.checked
        # [2, 2, 1] has top dimension 4: the count, top-cell and maximum checks
        # all still pass, so only the recursion sees the shifted cell.
        assert [f for f in result.failures if f.startswith("[2, 2, 1]:")] == [
            "[2, 2, 1]: poincare [0, 5, 9, 11, 5] != row-removal recursion [1, 4, 9, 11, 5]"
        ]

    def test_listing_cross_check_can_fail(self, monkeypatch):
        class DroppedSuffix:
            # The listing with one suffix fewer in the first block of
            # dimension 0, whose len still reports the walk's count.
            def __init__(self, cells):
                (prefix, suffixes), *rest = cells.by_dim[0]
                self.by_dim = (((prefix, suffixes[1:]), *rest),) + cells.by_dim[1:]
                self.count = len(cells)

            def __len__(self):
                return self.count

        def drop_one_suffix(p):
            paving = enumerate_cells(p)
            return CellPaving(DroppedSuffix(paving.cells), paving.poincare)

        monkeypatch.setattr(checks, "enumerate_cells", drop_one_suffix)
        result = checks.check_paving_identities(max_total=5)
        for m in range(1, 6):
            for p in partitions_of(m):
                expected = math.factorial(m) // math.prod(map(math.factorial, p.parts))
                assert "%s: %d cells, expected %d" % (p, expected - 1, expected) in result.failures
                assert "%s: poincare coefficients do not sum to the cell count" % p in result.failures

    def test_row_removal_identities_can_fail(self, monkeypatch):
        monkeypatch.setattr(checks, "poincare_by_row_removal", lambda parts, memo: (1,))
        failures = checks.check_paving_identities(max_total=3).failures
        assert "[2, 1]: recursion sums to 1, expected 3" in failures
        assert "[2, 1]: recursion has degree 0, expected 1" in failures
        assert "[2, 1]: recursion's coefficient of q^1 is not 2" in failures

    def test_count_matches_row_removal(self):
        # Counting builds no cell, so it reaches sizes the listing cannot.
        assert len(summary_shapes()) == 272
        assert row_removal_mismatches(enumerate_cells) == []

    def test_summary_counts_the_listing_by_dimension(self):
        # The pooled walk of a summary against the unpooled walk's listing.
        for m in range(1, 9):
            for p in partitions_of(m):
                listed = tuple(
                    sum(len(suffixes) for _, suffixes in blocks)
                    for blocks in enumerate_cells(p).cells.by_dim
                )
                assert enumerate_cells(p, cells=False).poincare == listed, p

    @pytest.mark.parametrize("mutant", POOL_MUTANTS, ids=lambda mutant: mutant[0])
    def test_a_mutant_pooled_walk_is_caught(self, monkeypatch, mutant):
        # The listing pools nothing, so only the summary goes wrong, and
        # both the row-removal recursion and verify's listing count see it.
        _, old, new, caught, failure = mutant
        wrong = mutant_enumerate_cells(old, new)
        assert row_removal_mismatches(wrong) == [p for p in summary_shapes() if caught(p.parts)]
        monkeypatch.setattr(checks, "enumerate_cells", wrong)
        result = checks.check_paving_structure(10, 6)
        assert result.checked == 167
        assert failure in result.failures
        assert len(result.failures) == sum(
            1 for m in range(1, 7) for p in partitions_of(m) if caught(p.parts)
        )

    def test_blocks_factor_the_listing(self):
        # Per dimension, one nonempty block per prefix of length (m - 1) // 2
        # at most, in prefix order; the suffix tuples are shared between blocks.
        for total in range(1, 8):
            for p in partitions_of(total):
                paving = enumerate_cells(p)
                assert len(paving.cells.by_dim) == len(paving.poincare)
                for count, blocks in zip(paving.poincare, paving.cells.by_dim):
                    prefixes = [prefix for prefix, _ in blocks]
                    assert prefixes == sorted(set(prefixes))
                    assert all(len(prefix) == (total - 1) // 2 and suffixes for prefix, suffixes in blocks)
                    assert sum(len(suffixes) for _, suffixes in blocks) == count
        # The partitions of 8: 95,503 cells in 8,793 blocks over 1,755 suffix tuples.
        cells = blocks = shared = 0
        for p in partitions_of(8):
            listing = enumerate_cells(p).cells
            found = [suffixes for by_dim in listing.by_dim for _, suffixes in by_dim]
            cells += len(listing)
            blocks += len(found)
            shared += len({id(suffixes) for suffixes in found})
        assert (cells, blocks, shared) == (95503, 8793, 1755)

    def test_len_is_the_walk_count(self, monkeypatch):
        # len reads the count the walk started from and builds no block; it
        # equals the summed block sizes, and a summary lists nothing.
        def refuse(self, unit, last):
            raise AssertionError("len built the blocks")

        for m in range(1, 9):
            for p in partitions_of(m):
                cells = enumerate_cells(p).cells
                with monkeypatch.context() as patch:
                    patch.setattr(CellBlocks, "blocks", refuse)
                    count = len(cells)
                assert count == sum(len(ss) for blocks in cells.by_dim for _, ss in blocks)
                assert len(enumerate_cells(p, cells=False).cells) == 0

    def test_later_masks_match_pair_loop(self):
        # later[i]: the labels j > i whose left neighbor, if any, is at most i.
        for total in range(1, 10):
            for p in partitions_of(total):
                tym, _, _ = labeled_diagrams(p)
                prev_of = {j: i for i, j in tym.pairs()}
                expected = [0] + [
                    sum(1 << j for j in range(i + 1, total + 1) if prev_of.get(j, 0) <= i)
                    for i in range(1, total + 1)
                ]
                assert _later_masks(tym) == expected

    def test_nonempty_cells_relabel_upper_triangular(self):
        # The m! filter with the definitional dimension, sorted, fixes the
        # cells, their dimensions and their order all at once.
        for total in range(1, 8):
            for p in partitions_of(total):
                tym, _, _ = labeled_diagrams(p)
                pairs = tym.pairs()
                survivors = set()
                for perm in permutations(range(1, total + 1)):
                    u = TableauPermutation(perm)
                    if all(u(a) < u(b) for a, b in pairs):
                        survivors.add(inverse(u))
                paving = enumerate_cells(p)
                assert {w for _, w in dimensioned(paving)} == {w.one_line for w in survivors}
                expected = sorted(
                    (len(phi_w(w)) - len(phi_w_x(w, p)), w.one_line) for w in survivors
                )
                assert dimensioned(paving) == expected


class TestTableauPermutation:
    def test_inverse(self):
        w = TableauPermutation((3, 1, 2))
        assert inverse(w).one_line == (2, 3, 1)
        assert inverse(inverse(w)) == w
        assert [w(inverse(w)(k)) for k in range(1, 4)] == [1, 2, 3]

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            TableauPermutation((1, 1, 2))

    @given(st.permutations(tuple(range(1, 7))))
    @settings(max_examples=100)
    def test_phi_w_counts_inversions(self, perm):
        w = TableauPermutation(tuple(perm))
        u = inverse(w)
        inversions = sum(
            1
            for i in range(1, 7)
            for j in range(i + 1, 7)
            if u(i) > u(j)
        )
        assert len(phi_w(w)) == inversions


# Each public paving function that takes a value type, by the argument that gets junk.
ENTRY_POINTS = {
    "enumerate_cells": enumerate_cells,
    "labeled_diagrams": labeled_diagrams,
    "max_cell_dimension": max_cell_dimension,
    "phi_w": phi_w,
    "phi_w_x-p": lambda junk: phi_w_x(TableauPermutation((2, 3, 1)), junk),
    "phi_w_x-w": lambda junk: phi_w_x(junk, Partition((2, 1))),
}


@pytest.mark.parametrize("junk", [None, "3", (3,), 5, 3.0], ids=repr)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_refuse_a_value_of_the_wrong_type(name, junk):
    with pytest.raises(InputError, match="must be a "):
        ENTRY_POINTS[name](junk)


def test_permutation_reads_each_index_in_range():
    w = TableauPermutation((2, 3, 1))
    assert [w(k) for k in (1, 2, 3)] == [2, 3, 1]


@pytest.mark.parametrize(
    "k, message",
    [
        (0, "permutation index 0 out of range [1, 3]"),
        (-1, "permutation index -1 out of range [1, 3]"),
        (4, "permutation index 4 out of range [1, 3]"),
        (10**80, "permutation index %s... (81 characters) out of range [1, 3]" % ("1" + "0" * 59)),
        (1.0, "permutation index must be an int, got float 1.0"),
        (True, "permutation index must be an int, got bool True"),
        ("1", "permutation index must be an int, got str 1"),
    ],
    ids=["0", "-1", "4", "10**80", "float", "bool", "str"],
)
def test_permutation_refuses_an_index_outside_its_domain(k, message):
    # Read unchecked, negative indexing would give w(0) as w(3) and w(-1) as w(2).
    with pytest.raises(InputError) as raised:
        TableauPermutation((2, 3, 1))(k)
    assert str(raised.value) == message
