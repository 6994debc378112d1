from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits.core import InputError, LieType, Partition, SubsetJ, UnsupportedFamilyError
from nilorbits.jordan import (
    IntMatrix,
    jordan_partition,
    rank_sequence,
    representative_matrix,
)
from nilorbits import checks
from nilorbits.orbits import orbit_dimension_type_a, orbit_partition


def fraction_rank(rows):
    """Plain Gaussian elimination over Q, as an independent rank oracle."""
    m = [[Fraction(v) for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, n_rows):
            if m[r][col] == 0:
                continue
            factor = m[r][col] / m[rank][col]
            for c in range(col, n_cols):
                m[r][c] -= factor * m[rank][c]
        rank += 1
    return rank


def shift_block(dim):
    """Single nilpotent Jordan block of the given size."""
    return IntMatrix.from_entries(dim, {(i, i + 1): 1 for i in range(1, dim)})


class TestIntMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            IntMatrix([[1, 2], [3]])

    def test_from_entries_bounds(self):
        with pytest.raises(InputError):
            IntMatrix.from_entries(2, {(3, 1): 1})

    def test_term_string(self):
        m = IntMatrix.from_entries(6, {(2, 3): 1, (6, 5): -1, (3, 6): 1})
        assert m.term_string() == "E_{2,3} + E_{3,6} - E_{6,5}"
        assert IntMatrix.zero(3).term_string() == "0"

    def test_matmul(self):
        a = IntMatrix([[0, 1], [0, 0]])
        assert a.matmul(a).is_zero()

    def test_strictly_upper(self):
        assert shift_block(4).is_strictly_upper()
        assert not IntMatrix.from_entries(3, {(2, 1): 1}).is_strictly_upper()

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=200)
    def test_rank_matches_fraction_oracle(self, rows):
        assert IntMatrix(rows).rank() == fraction_rank(rows)


class TestRepresentativeMatrix:
    def test_type_a_full_chain(self):
        m = representative_matrix(LieType("A", 3), SubsetJ(()))
        assert m.terms() == [(1, 2, 1), (2, 3, 1), (3, 4, 1)]

    def test_type_a_omits_subset(self):
        m = representative_matrix(LieType("A", 4), SubsetJ((1, 3)))
        assert m.terms() == [(2, 3, 1), (4, 5, 1)]

    def test_type_c_conventions(self):
        m = representative_matrix(LieType("C", 3), SubsetJ((1,)))
        assert m == IntMatrix.from_entries(6, {(2, 3): 1, (6, 5): -1, (3, 6): 1})

    def test_type_b_mixes_upper_and_lower(self):
        m = representative_matrix(LieType("B", 3), SubsetJ(()))
        # the last simple root vector has an entry below the diagonal
        assert m.entry(4, 1) == -1
        assert m.entry(1, 7) == 1

    def test_rejects_exceptional(self):
        with pytest.raises(UnsupportedFamilyError):
            representative_matrix(LieType.of("E6"), SubsetJ(()))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            representative_matrix(LieType("A", 3), SubsetJ((4,)))


class TestJordanPartition:
    def test_zero_matrix(self):
        assert jordan_partition(IntMatrix.zero(5)) == Partition((1, 1, 1, 1, 1))

    def test_single_block(self):
        for dim in (1, 2, 5, 8):
            assert jordan_partition(shift_block(dim)) == Partition((dim,))

    def test_c3_j1(self):
        m = representative_matrix(LieType("C", 3), SubsetJ((1,)))
        assert rank_sequence(m) == [6, 3, 2, 1, 0]
        assert jordan_partition(m) == Partition((4, 1, 1))

    def test_non_nilpotent_rejected(self):
        identity = IntMatrix.from_entries(3, {(i, i): 1 for i in range(1, 4)})
        with pytest.raises(InputError):
            jordan_partition(identity)

    def test_partition_sums_to_dimension(self):
        for rank in range(2, 5):
            for family in ("B", "C", "D"):
                if family == "D" and rank < 3:
                    continue
                t = LieType(family, rank)
                m = representative_matrix(t, SubsetJ((2,)))
                assert jordan_partition(m).total == t.matrix_dimension


def all_subsets(rank):
    for mask in range(1 << rank):
        yield SubsetJ(tuple(i + 1 for i in range(rank) if mask >> i & 1))


class TestFormulaOracleEquivalence:
    @pytest.mark.parametrize(
        "family,rank",
        [("A", r) for r in range(1, 6)]
        + [("B", r) for r in range(2, 6)]
        + [("C", r) for r in range(2, 6)]
        + [("D", r) for r in range(3, 6)],
    )
    def test_small_ranks(self, family, rank):
        t = LieType(family, rank)
        for j in all_subsets(rank):
            formula = orbit_partition(t, j).partition
            oracle = jordan_partition(representative_matrix(t, j))
            assert formula == oracle, (t, j)

    def test_orbit_dimension_oracle_can_fail(self, monkeypatch):
        assert checks.check_formula_oracle(max_rank=3).ok
        monkeypatch.setattr(
            checks, "orbit_dimension_type_a", lambda n, p: orbit_dimension_type_a(n, p) + 1
        )
        result = checks.check_formula_oracle(max_rank=3)
        type_a = sum(1 << rank for rank in range(1, 4))
        assert len(result.failures) == type_a
        assert all("column heights" in f for f in result.failures)
        expected = "A1 J={}: orbit dimension 3 vs 2 from the oracle's column heights"
        assert expected in result.failures

    def test_rank_profile_convex(self):
        for family, rank in (("B", 4), ("C", 4), ("D", 4)):
            t = LieType(family, rank)
            for j in all_subsets(rank):
                ranks = rank_sequence(representative_matrix(t, j))
                drops = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
                assert all(d >= 1 for d in drops)
                assert all(drops[i] >= drops[i + 1] for i in range(len(drops) - 1))

    def test_type_a_always_upper_triangular(self):
        for rank in range(1, 7):
            for j in all_subsets(rank):
                m = representative_matrix(LieType("A", rank), j)
                assert m.is_strictly_upper()
