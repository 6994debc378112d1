import random
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits.core import InputError, LieType, Partition, SubsetJ, UnsupportedFamilyError
from nilorbits.jordan import (
    IntMatrix,
    _rank_chain,
    _root_sum_rows,
    _root_vectors,
    partition_from_ranks,
    representative_matrix,
)
from nilorbits import checks, jordan
from nilorbits.cli import main
from nilorbits.orbits import orbit_dimension_type_a, orbit_partition


def fraction_rank(rows):
    """Plain Gaussian elimination over Q, as an independent rank oracle."""
    m = [list(row) for row in rows]
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
            factor = Fraction(m[r][col], m[rank][col])
            for c in range(col, n_cols):
                m[r][c] -= factor * m[rank][c]
        rank += 1
    return rank


def strictly_upper(rows):
    """Whether every entry on or below the diagonal of the dense ``rows`` is zero."""
    return not any(any(row[: i + 1]) for i, row in enumerate(rows))


def matrix(dim, entries):
    """The validated ``IntMatrix`` of size ``dim`` with 1-indexed (row, col) -> value ``entries``."""
    cols = range(1, dim + 1)
    return IntMatrix([[entries.get((r, c), 0) for c in cols] for r in cols])


def chain_ranks(m):
    """The ranks of the powers of ``m``: ``_rank_chain`` over each row's nonzero entries."""
    return _rank_chain([[(j, x) for j, x in enumerate(row) if x] for row in m.rows])


def random_sparse_rows(rng, dim, nilpotent):
    """Sparse rows with entries of -3..3, at most 1 or 3 per row; nilpotent ones point
    forward in a shuffled order."""
    order = list(range(dim))
    rng.shuffle(order)
    place = {v: k for k, v in enumerate(order)}
    most = rng.choice((1, 3))
    rows = []
    for r in range(dim):
        cols = [c for c in range(dim) if place[c] > place[r]] if nilpotent else list(range(dim))
        picked = sorted(rng.sample(cols, min(len(cols), rng.randint(0, most))))
        rows.append([(c, rng.choice((-3, -2, -1, 1, 2, 3))) for c in picked])
    return rows


def terms(m):
    """The nonzero entries of ``m`` as sorted 1-indexed (row, col, value) triples."""
    return [(i + 1, j + 1, v) for i, row in enumerate(m.rows) for j, v in enumerate(row) if v]


def shift_block(dim):
    """Single nilpotent Jordan block of the given size."""
    return matrix(dim, {(i, i + 1): 1 for i in range(1, dim)})


class TestIntMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            IntMatrix([[1, 2], [3]])

    def test_matmul(self):
        a = IntMatrix([[0, 1], [0, 0]])
        assert not any(map(any, a.matmul(a).rows))

    def test_strictly_upper(self):
        assert strictly_upper(shift_block(4).rows)
        assert not strictly_upper(matrix(3, {(2, 1): 1}).rows)

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

    def test_checked_division_matches_fraction_oracle(self, monkeypatch):
        # Dense matrices with entries up to 9 make later pivots larger than
        # 1 in absolute value, so the eliminations divide with remainder
        # checks; counting the divmod calls proves that branch ran.
        divisions = []

        def counted_divmod(a, b):
            divisions.append(b)
            return divmod(a, b)

        monkeypatch.setattr(jordan, "divmod", counted_divmod, raising=False)
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 8)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:  # a repeated row combination lowers the rank
                rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[n // 2])]
            assert IntMatrix(rows).rank() == fraction_rank(rows), rows
        assert any(abs(b) > 1 for b in divisions)

    def test_matmul_matches_dense_product(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 6)
            a, b = (
                [[rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in range(n)] for _ in range(n)]
                for _ in range(2)
            )
            dense = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            product = IntMatrix(a) @ IntMatrix(b)
            assert product == IntMatrix(dense)
            assert all(type(v) is int for row in product.rows for v in row)


class TestRepresentativeMatrix:
    def test_type_a_full_chain(self):
        m = representative_matrix(LieType("A", 3), SubsetJ(()))
        assert terms(m) == [(1, 2, 1), (2, 3, 1), (3, 4, 1)]

    def test_type_a_omits_subset(self):
        m = representative_matrix(LieType("A", 4), SubsetJ((1, 3)))
        assert terms(m) == [(2, 3, 1), (4, 5, 1)]

    def test_type_c_conventions(self):
        m = representative_matrix(LieType("C", 3), SubsetJ((1,)))
        assert m == matrix(6, {(2, 3): 1, (6, 5): -1, (3, 6): 1})

    def test_type_b_mixes_upper_and_lower(self):
        m = representative_matrix(LieType("B", 3), SubsetJ(()))
        # the last simple root vector has an entry below the diagonal
        assert m.rows[3][0] == -1
        assert m.rows[0][6] == 1

    def test_rejects_exceptional(self):
        with pytest.raises(UnsupportedFamilyError):
            representative_matrix(LieType.of("E6"), SubsetJ(()))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            representative_matrix(LieType("A", 3), SubsetJ((4,)))


class TestJordanPartition:
    def test_zero_matrix(self):
        zero = IntMatrix([[0] * 5] * 5)
        assert partition_from_ranks(chain_ranks(zero)) == Partition((1, 1, 1, 1, 1))

    def test_empty_matrix(self):
        # The 0x0 matrix is its own zeroth power, so it is nilpotent with
        # ranks [0] and the empty Jordan type.
        empty = IntMatrix([])
        assert chain_ranks(empty) == [0]
        assert partition_from_ranks(chain_ranks(empty)) == Partition(())

    def test_single_block(self):
        for dim in (1, 2, 5, 8):
            assert partition_from_ranks(chain_ranks(shift_block(dim))) == Partition((dim,))

    def test_c3_j1(self):
        m = representative_matrix(LieType("C", 3), SubsetJ((1,)))
        assert chain_ranks(m) == [6, 3, 2, 1, 0]
        assert partition_from_ranks(chain_ranks(m)) == Partition((4, 1, 1))

    def test_non_nilpotent_rejected(self):
        identity = matrix(3, {(i, i): 1 for i in range(1, 4)})
        with pytest.raises(InputError):
            partition_from_ranks(chain_ranks(identity))

    def test_partition_sums_to_dimension(self):
        for rank in range(2, 5):
            for family in ("B", "C", "D"):
                if family == "D" and rank < 3:
                    continue
                t = LieType(family, rank)
                m = representative_matrix(t, SubsetJ((2,)))
                assert partition_from_ranks(chain_ranks(m)).total == t.matrix_dimension


def all_subsets(rank):
    """The subsets J of 1..rank in mask order, each built by the validating constructor."""
    for mask in range(1 << rank):
        yield SubsetJ(tuple(i + 1 for i in range(rank) if mask >> i & 1))


def classical_types(max_rank):
    """A1, B2, C2 and D3 up to rank ``max_rank`` in each family, family by family."""
    return [
        LieType(family, rank)
        for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
        for rank in range(lo, max_rank + 1)
    ]


def dense_power_ranks(rows):
    """[dim, rank(M), rank(M^2), ...] from plain list products and fraction_rank.

    The list ends at the first 0.  For an M that is not nilpotent it ends
    once two ranks agree, as every later power then has the same rank, so
    its last entry is rank(M^dim).
    """
    n, cols = len(rows), list(zip(*rows))
    ranks = [n]
    power = rows
    while ranks[-1] and (len(ranks) < 2 or ranks[-1] != ranks[-2]):
        ranks.append(fraction_rank(power))
        power = [[sum(map(mul, row, col)) for col in cols] for row in power]
    return ranks


def power_ranks(m):
    """[dim, rank(M), rank(M^2), ...] down to 0, from IntMatrix.matmul and the Bareiss rank."""
    ranks = [m.dim]
    power = m
    while ranks[-1]:
        ranks.append(power.rank())
        power = power.matmul(m)
    return ranks


def random_nilpotent(rng, dim):
    """A dense nilpotent integer matrix: strictly upper, entries -3..3, conjugated by unimodular steps.

    Each step conjugates by E = I + c*E_{i,j} (i != j), whose inverse is
    I - c*E_{i,j}, so the Jordan type is that of the upper matrix.
    """
    m = [[rng.randint(-3, 3) if j > i else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(dim):  # E * m: row i += c * row j
            m[i][col] += c * m[j][col]
        for row in m:  # (E * m) * E^-1: column j -= c * column i
            row[j] -= c * row[i]
    return m


class TestRowSpaceChain:
    def test_matches_powers_on_random_dense_nilpotents(self, monkeypatch):
        # Entries past +-1 make reductions meet rows with a common factor;
        # counting the gcds above 1 proves the exact-division step ran.
        divisors = []

        def counted_gcd(*values):
            g = gcd(*values)
            divisors.append(g)
            return g

        monkeypatch.setattr(jordan, "gcd", counted_gcd)
        rng = random.Random(14)
        for _ in range(400):
            dim = rng.randint(1, 8)
            rows = random_nilpotent(rng, dim)
            ranks = chain_ranks(IntMatrix(rows))
            assert ranks == power_ranks(IntMatrix(rows)), rows
            assert ranks == dense_power_ranks(rows), rows
        assert any(g > 1 for g in divisors)

    def test_matches_dense_fraction_ranks_on_random_sparse_rows(self):
        # Half the row sets have no row with two entries and take the unit-row
        # phase.  A nilpotent set gets the ranks of its dense powers; any other
        # is refused with rank(M^dim).
        rng = random.Random(32)
        outcomes = Counter()
        for trial in range(3000):
            dim = rng.randint(0, 9)
            rows = random_sparse_rows(rng, dim, trial % 2 == 0)
            dense = [[dict(row).get(c, 0) for c in range(dim)] for row in rows]
            expected = dense_power_ranks(dense)
            if expected[-1]:
                with pytest.raises(InputError) as got:
                    _rank_chain(rows)
                text = "matrix is not nilpotent: rank of the %d-th power is %d"
                assert str(got.value) == text % (dim, expected[-1]), rows
                outcomes["raised"] += 1
            else:
                assert _rank_chain(rows) == expected, rows
                outcomes["ranked"] += 1
        assert outcomes == {"raised": 954, "ranked": 2046}

    @pytest.mark.parametrize(
        "entries,dim,rank",
        [
            ({(i, i): 1 for i in range(1, 4)}, 3, 3),
            ({**{(i, i + 1): 2 for i in range(1, 4)}, (1, 1): 1}, 4, 1),
        ],
    )
    def test_non_nilpotent_rejected_after_dim_steps(self, entries, dim, rank):
        m = matrix(dim, entries)
        text = "matrix is not nilpotent: rank of the %d-th power is %d" % (dim, rank)
        with pytest.raises(InputError) as exc:
            chain_ranks(m)
        assert str(exc.value) == text
        power = m
        for _ in range(dim - 1):
            power = power.matmul(m)
        assert power.rank() == rank

    def test_verify_multiplies_and_ranks_no_explicit_power(self, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(IntMatrix, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in ("matmul", "__matmul__", "rank"):
            monkeypatch.setattr(IntMatrix, name, counted(name))
        assert all(r.ok for r in checks.run_all(max_rank=7))
        # One request of every command shape; none may reach the references.
        requests = [
            ["orbit", "--type", "C", "--rank", "3", "--j", "1"],
            ["orbit", "--type", "B", "--rank", "3", "--partition", "3,3,1"],
            ["orbit", "--type", "E7", "--j", "1,3"],
            ["decompose", "--rank", "4"],
            ["tables", "--type", "E6"],
            ["tables", "--type", "E7", "--validate"],
        ]
        for fmt in ("json", "text"):
            requests.append(["paving", "--partition", "3,2,1", "--format", fmt])
            requests.append(["paving", "--partition", "3,2,1", "--cells", "--format", fmt])
        for argv in requests:
            assert main(argv) == 0, argv
        assert calls == Counter()


class TestFormulaOracleEquivalence:
    def test_rank_sequence_matches_dense_fraction_ranks(self):
        for t in classical_types(7):
            for j in all_subsets(t.rank):
                m = representative_matrix(t, j)
                rows = [list(row) for row in m.rows]
                ranks = chain_ranks(m)
                assert ranks == dense_power_ranks(rows), (t, j)
                assert power_ranks(m) == ranks, (t, j)
                assert _rank_chain(_root_sum_rows(t, j, _root_vectors(t))) == ranks, (t, j)

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
            formula = orbit_partition(t, j)
            oracle = partition_from_ranks(chain_ranks(representative_matrix(t, j)))
            assert formula == oracle, (t, j)

    def test_orbit_dimension_oracle_can_fail(self, monkeypatch):
        sweep = checks.classical_sweep(3)
        assert checks.check_formula_oracle(sweep).ok
        monkeypatch.setattr(
            checks, "orbit_dimension_type_a", lambda n, p: orbit_dimension_type_a(n, p) + 1
        )
        result = checks.check_formula_oracle(sweep)
        type_a = sum(1 << rank for rank in range(1, 4))
        assert len(result.failures) == type_a
        assert all("column heights" in f for f in result.failures)
        expected = "A1 J={}: orbit dimension 3 vs 2 from the oracle's column heights"
        assert expected in result.failures

    def test_rank_profile_convex(self):
        for family, rank in (("B", 4), ("C", 4), ("D", 4)):
            t = LieType(family, rank)
            for j in all_subsets(rank):
                ranks = chain_ranks(representative_matrix(t, j))
                drops = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
                assert all(d >= 1 for d in drops)
                assert all(drops[i] >= drops[i + 1] for i in range(len(drops) - 1))

    def test_type_a_always_upper_triangular(self):
        for rank in range(1, 7):
            for j in all_subsets(rank):
                m = representative_matrix(LieType("A", rank), j)
                assert strictly_upper(m.rows)


class TestSharedRankTable:
    """The oracle columns of ``checks.classical_sweep``."""

    def test_columns_match_representatives(self):
        # The sweep reads sparse rows; the references read the dense matrix.
        sweep = checks.classical_sweep(4)
        assert list(sweep) == classical_types(4)
        uppers = Counter()
        for t, c in sweep.items():
            assert len(c.ranks) == len(c.upper) == 1 << t.rank
            for j, ranks, is_upper in zip(all_subsets(t.rank), c.ranks, c.upper):
                rows = representative_matrix(t, j).rows
                assert ranks == dense_power_ranks(rows), (t, j)
                assert is_upper is strictly_upper(rows), (t, j)
                uppers[t.family, is_upper] += 1
        # Every type-A root vector is upper; in B, C and D each one has an
        # entry below the diagonal, except the last root of C and of D.
        assert uppers == {
            ("A", True): 30, ("B", True): 3, ("B", False): 25,
            ("C", True): 6, ("C", False): 22, ("D", True): 4, ("D", False): 20,
        }

    def test_sweep_builds_each_root_vector_once(self, monkeypatch):
        # A work counter: the oracle types' simple root vectors are built once
        # per sweep, one per root, so the count is the sum of their ranks
        # whatever the number of J; types above ORACLE_RANK build none.
        calls = Counter()
        original = jordan._simple_root_entries

        def counted(family, n, i):
            calls[family] += 1
            return original(family, n, i)

        monkeypatch.setattr(jordan, "_simple_root_entries", counted)
        for max_rank in (7, 10):
            calls.clear()
            checks.classical_sweep(max_rank)
            assert calls == {"A": 28, "B": 27, "C": 27, "D": 25}, max_rank
            assert sum(calls.values()) == sum(t.rank for t in classical_types(7)) == 107

    def test_tampered_columns_fail(self):
        t, mask = LieType("B", 2), 0b01  # J = {1}
        sweep = checks.classical_sweep(3)
        checked = checks.check_oracle_rank_profile(sweep).checked
        ranks = sweep[t].ranks
        assert ranks[mask] == [5, 2, 1, 0]
        ranks[mask] = [5, 2, 2, 0]
        profile = checks.check_oracle_rank_profile(sweep)
        assert profile.failures == (
            "B2 J={1}: rank sequence [5, 2, 2, 0] not strictly decreasing",
            "B2 J={1}: rank drops [3, 0, 2] not convex",
        )
        formula = checks.check_formula_oracle(sweep)
        assert formula.failures == ("B2 J={1}: formula [3, 1, 1] vs oracle [3, 3, 1, 1, 1]",)
        sweep[LieType("A", 2)].upper[0b10] = False  # J = {2}
        profile = checks.check_oracle_rank_profile(sweep)
        assert "A2 J={2}: representative not strictly upper" in profile.failures
        assert profile.checked == checked


class TestOracleMutants:
    """A wrong root-vector model in ``jordan`` fails the suites that read the sweep."""

    @staticmethod
    def patch_last_root(monkeypatch, family, entries):
        original = jordan._simple_root_entries

        def mutant(fam, n, i):
            return entries(n) if fam == family and i == n else original(fam, n, i)

        monkeypatch.setattr(jordan, "_simple_root_entries", mutant)

    def test_moved_type_d_root_fails_formula_oracle(self, monkeypatch):
        # E_{n-1,2n} - E_{n,2n-1} moved to E_{n-1,2n-1} - E_{n,2n}.
        self.patch_last_root(monkeypatch, "D", lambda n: {(n - 1, 2 * n - 1): 1, (n, 2 * n): -1})
        failures = checks.check_formula_oracle(checks.classical_sweep(5)).failures
        assert "D3 J={}: formula [5, 1] vs oracle [6]" in failures
        assert len(failures) == 21 and all(f.startswith("D") for f in failures)

    def test_lower_type_a_entry_fails_the_rank_profile(self, monkeypatch):
        # The last root vector of A_n written E_{n+1,n}: in A_1 the Jordan type
        # stays [2], so only the triangle test sees it.
        self.patch_last_root(monkeypatch, "A", lambda n: {(n + 1, n): 1})
        profile = checks.check_oracle_rank_profile(checks.classical_sweep(5))
        expected = [
            "A%d J=%s: representative not strictly upper" % (n, j)
            for n in range(1, 6)
            for j in all_subsets(n)
            if n not in j
        ]
        assert sorted(profile.failures) == sorted(expected)
        assert len(expected) == 31 and profile.checked == 238
