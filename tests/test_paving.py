import math
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits import checks
from nilorbits.core import InputError, Partition, ResourceBoundError, partitions_of, syt_count
from nilorbits.paving import (
    LabeledDiagram,
    TableauPermutation,
    enumerate_cells,
    labeled_diagrams,
    max_cell_dimension,
    pair_matrix,
    phi_w,
    phi_w_x,
    phi_x,
)


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
        assert sigma == TableauPermutation.identity(4)
        assert sigma.cycle_notation() == "()"

    def test_single_column(self):
        _, _, sigma = labeled_diagrams(Partition((1, 1, 1)))
        assert sigma.one_line == (3, 2, 1)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            labeled_diagrams(Partition(()))

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError):
            LabeledDiagram(Partition((2, 1)), ((1, 2), (2,)), "Std")

    def test_tym_pairs_increase(self):
        for total in range(1, 9):
            for p in partitions_of(total):
                tym, _, _ = labeled_diagrams(p)
                assert all(a < b for a, b in tym.pairs())


class TestPairMatrix:
    def test_std_staircase(self):
        _, std, _ = labeled_diagrams(Partition((2, 2, 1)))
        assert pair_matrix(std).terms() == [(1, 2, 1), (3, 4, 1)]

    def test_tym_staircase(self):
        tym, _, _ = labeled_diagrams(Partition((2, 2, 1)))
        assert pair_matrix(tym).terms() == [(2, 4, 1), (3, 5, 1)]

    def test_single_column_is_zero(self):
        tym, _, _ = labeled_diagrams(Partition((1, 1, 1, 1)))
        assert pair_matrix(tym).is_zero()

    def test_conjugation_identity(self):
        for total in range(1, 9):
            for p in partitions_of(total):
                tym, std, sigma = labeled_diagrams(p)
                m_tym, m_std = pair_matrix(tym), pair_matrix(std)
                for k in range(1, total + 1):
                    for l in range(1, total + 1):
                        assert m_tym.entry(sigma(k), sigma(l)) == m_std.entry(k, l)


class TestRootSets:
    def test_phi_x_for_331(self):
        assert phi_x(Partition((3, 3, 1))) == frozenset({(2, 4), (3, 5), (4, 6), (5, 7)})

    def test_phi_x_single_row(self):
        assert phi_x(Partition((5,))) == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})

    def test_phi_x_single_column_empty(self):
        assert phi_x(Partition((1, 1, 1, 1))) == frozenset()

    def test_phi_sigma_for_331(self):
        _, _, sigma = labeled_diagrams(Partition((3, 3, 1)))
        expected = frozenset(
            {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5), (2, 7), (4, 5), (4, 7), (6, 7)}
        )
        assert phi_w(sigma) == expected

    def test_phi_w_identity(self):
        assert phi_w(TableauPermutation.identity(5)) == frozenset()

    def test_phi_w_reversal(self):
        w = TableauPermutation((5, 4, 3, 2, 1))
        assert len(phi_w(w)) == 10

    def test_phi_w_x_for_331(self):
        p = Partition((3, 3, 1))
        _, _, sigma = labeled_diagrams(p)
        expected = frozenset({(1, 4), (1, 5), (1, 6), (1, 7), (2, 5), (2, 7), (4, 7)})
        assert phi_w_x(sigma, p) == expected

    def test_phi_w_x_identity_empty(self):
        assert phi_w_x(TableauPermutation.identity(5), Partition((3, 2))) == frozenset()

    def test_phi_w_x_trivial_pairs(self):
        w = TableauPermutation((4, 3, 2, 1))
        assert phi_w_x(w, Partition((1, 1, 1, 1))) == frozenset()

    def test_phi_w_x_subset_of_phi_w(self):
        for total in range(1, 7):
            for p in partitions_of(total):
                for perm in permutations(range(1, total + 1)):
                    w = TableauPermutation(perm)
                    assert phi_w_x(w, p) <= phi_w(w)

    def test_phi_x_non_overlapping(self):
        for total in range(1, 11):
            for p in partitions_of(total):
                roots = phi_x(p)
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

    def test_identity_suite_can_fail(self, monkeypatch):
        assert checks.check_dimension_identity(max_total=5).ok
        monkeypatch.setattr(checks, "max_cell_dimension", lambda p: max_cell_dimension(p) + 1)
        result = checks.check_dimension_identity(max_total=5)
        assert result.checked == sum(1 for m in range(1, 6) for _ in partitions_of(m))
        assert len(result.failures) == 2 * result.checked


class TestEnumerateCells:
    def test_staircase_counts(self):
        cells, poincare = enumerate_cells(Partition((2, 2, 1)))
        assert len(cells) == 30
        assert poincare[4] == 5
        assert sum(poincare) == 30

    def test_331_counts(self):
        cells, poincare = enumerate_cells(Partition((3, 3, 1)))
        assert len(cells) == 140
        assert poincare[5] == 21

    def test_single_row(self):
        cells, poincare = enumerate_cells(Partition((5,)))
        assert len(cells) == 1
        assert cells[0].dimension == 0
        assert poincare == (1,)

    def test_full_flag_poincare_is_mahonian(self):
        for m in (2, 3, 4, 5):
            _, poincare = enumerate_cells(Partition((1,) * m))
            assert list(poincare) == mahonian(m)

    def test_subregular_sl3(self):
        # two lines meeting in a point: Betti numbers 1, 2
        _, poincare = enumerate_cells(Partition((2, 1)))
        assert list(poincare) == [1, 2]

    def test_bound_error_names_bound(self):
        with pytest.raises(ResourceBoundError, match="bound 9"):
            enumerate_cells(Partition((5, 5)))

    def test_bound_override(self):
        cells, _ = enumerate_cells(Partition((2, 1)), bound=3)
        assert len(cells) == 3
        with pytest.raises(ResourceBoundError):
            enumerate_cells(Partition((2, 2)), bound=3)

    def test_deterministic_order(self):
        first = enumerate_cells(Partition((3, 2)))
        second = enumerate_cells(Partition((3, 2)))
        assert first == second
        dims = [c.dimension for c in first.cells]
        assert dims == sorted(dims)
        for a, b in zip(first.cells, first.cells[1:]):
            if a.dimension == b.dimension:
                assert a.w.one_line < b.w.one_line

    def test_sigma_cell_maximal(self):
        for total in range(1, 8):
            for p in partitions_of(total):
                cells, _ = enumerate_cells(p)
                _, _, sigma = labeled_diagrams(p)
                matches = [c for c in cells if c.w == sigma]
                assert len(matches) == 1
                assert matches[0].dimension == max_cell_dimension(p)

    def test_cell_count_multinomial(self):
        for total in range(1, 8):
            for p in partitions_of(total):
                cells, _ = enumerate_cells(p)
                expected = math.factorial(total)
                for row in p.parts:
                    expected //= math.factorial(row)
                assert len(cells) == expected

    def test_top_cells_are_syt_count(self):
        for total in range(1, 8):
            for p in partitions_of(total):
                cells, poincare = enumerate_cells(p)
                assert poincare[-1] == syt_count(p)

    def test_dimensions_match_definitional_form(self):
        for total in range(1, 7):
            for p in partitions_of(total):
                cells, _ = enumerate_cells(p)
                for cell in cells:
                    expected = len(phi_w(cell.w)) - len(phi_w_x(cell.w, p))
                    assert cell.dimension == expected

    def test_nonempty_cells_relabel_upper_triangular(self):
        for total in range(1, 7):
            for p in partitions_of(total):
                tym, _, _ = labeled_diagrams(p)
                pairs = tym.pairs()
                survivors = set()
                for perm in permutations(range(1, total + 1)):
                    u = TableauPermutation(perm)
                    if all(u(a) < u(b) for a, b in pairs):
                        survivors.add(u.inverse().one_line)
                cells, _ = enumerate_cells(p)
                assert {c.w.one_line for c in cells} == survivors


class TestTableauPermutation:
    def test_inverse(self):
        w = TableauPermutation((3, 1, 2))
        assert w.inverse().one_line == (2, 3, 1)
        assert w.inverse().inverse() == w

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            TableauPermutation((1, 1, 2))

    @given(st.permutations(tuple(range(1, 7))))
    @settings(max_examples=100)
    def test_phi_w_counts_inversions(self, perm):
        w = TableauPermutation(tuple(perm))
        u = w.inverse()
        inversions = sum(
            1
            for i in range(1, 7)
            for j in range(i + 1, 7)
            if u(i) > u(j)
        )
        assert len(phi_w(w)) == inversions
