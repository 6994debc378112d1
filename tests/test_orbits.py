import json
import math
import time
from collections import Counter

import pytest

from nilorbits import checks, jordan
from nilorbits.cli import EXIT_OK, main
from nilorbits.core import (
    InputError,
    LieType,
    Partition,
    SubsetJ,
    UnsupportedFamilyError,
    all_subsets as core_all_subsets,
    conjugate_heights,
    partitions_of,
    subset_of_mask,
)
from nilorbits.jordan import _rank_chain, _root_sum_rows, _root_vectors, partition_from_ranks
from nilorbits.orbits import (
    FiniteGroupDescriptor,
    center_fiber,
    fundamental_groups,
    kernel_check,
    orbit_dimension_type_a,
    orbit_partition,
)
from test_core import cartan_matrix
from test_jordan import all_subsets, classical_types


def invariant_factors(rows):
    """The Smith invariant factors of the integer matrix ``rows``, zeros left out.

    Unimodular row and column steps bring an entry of least absolute value
    to the corner and clear its row and column; an entry of the rest that
    it does not divide is added into the corner's row first.
    """
    m = [list(row) for row in rows]
    factors = []
    while any(map(any, m)):
        _, r, c = min((abs(x), r, c) for r, row in enumerate(m) for c, x in enumerate(row) if x)
        m[0], m[r] = m[r], m[0]
        for row in m:
            row[0], row[c] = row[c], row[0]
        p = m[0][0]
        for row in m[1:]:
            if row[0]:
                q = row[0] // p
                row[:] = [x - q * y for x, y in zip(row, m[0])]
        for c in range(1, len(m[0])):
            q = m[0][c] // p
            if q:
                for row in m:
                    row[c] -= q * row[0]
        if any(row[0] for row in m[1:]) or any(m[0][1:]):
            continue  # a remainder smaller than p is the next corner
        bad = abs(p) > 1 and next((row for row in m[1:] if any(x % p for x in row)), None)
        if bad:
            m[0] = [x + y for x, y in zip(m[0], bad)]
            continue
        factors.append(abs(p))
        m = [row[1:] for row in m[1:]]
    return factors


def label_ambiguous(capsys, family, rank, j):
    """The ``orbit`` command's orbit_label_ambiguous flag for (family, rank, J)."""
    assert main(["orbit", "--type", family, "--rank", str(rank), "--j", j]) == EXIT_OK
    return json.loads(capsys.readouterr().out)["orbit_label_ambiguous"]


class TestFiniteGroupDescriptor:
    def test_orders(self):
        assert FiniteGroupDescriptor("trivial").order == 1
        assert FiniteGroupDescriptor.cyclic(5).order == 5
        assert FiniteGroupDescriptor.elementary_abelian_2(3).order == 8
        assert FiniteGroupDescriptor.central_extension_2(0).order == 2
        assert FiniteGroupDescriptor.central_extension_2(2).order == 8
        assert FiniteGroupDescriptor("klein_four").order == 4
        assert FiniteGroupDescriptor("symmetric_2").order == 2

    def test_order_one_normalizes_to_trivial(self):
        assert FiniteGroupDescriptor.cyclic(1).kind == "trivial"
        assert FiniteGroupDescriptor.elementary_abelian_2(0).kind == "trivial"

    def test_labels(self):
        assert FiniteGroupDescriptor.cyclic(3).label == "cyclic(3)"
        assert FiniteGroupDescriptor("klein_four").label == "klein_four"

    def test_rejects_denormalized_construction(self):
        with pytest.raises(InputError):
            FiniteGroupDescriptor("cyclic", 1)
        with pytest.raises(InputError):
            FiniteGroupDescriptor("elementary_abelian_2", 0)
        with pytest.raises(InputError):
            FiniteGroupDescriptor("klein_four", 2)


class TestCenterFiber:
    def test_type_a_gcd(self):
        assert center_fiber(LieType("A", 5), SubsetJ((2, 4))) == FiniteGroupDescriptor.cyclic(2)

    def test_e6_row(self):
        assert center_fiber(LieType.of("E6"), SubsetJ((2, 4))) == FiniteGroupDescriptor.cyclic(3)

    def test_d4_full_center(self):
        assert center_fiber(LieType("D", 4), SubsetJ((2,))) == FiniteGroupDescriptor("klein_four")

    def test_d5_full_center_is_cyclic_4(self):
        assert center_fiber(LieType("D", 5), SubsetJ((2,))) == FiniteGroupDescriptor.cyclic(4)

    def test_c3_without_top(self):
        assert center_fiber(LieType("C", 3), SubsetJ((1,))) == FiniteGroupDescriptor.cyclic(2)

    def test_a4_empty_set(self):
        assert center_fiber(LieType("A", 4), SubsetJ(())) == FiniteGroupDescriptor.cyclic(5)

    def test_empty_set_per_family(self):
        empty = SubsetJ(())
        assert center_fiber(LieType("B", 3), empty).order == 2
        assert center_fiber(LieType("C", 3), empty).order == 2
        assert center_fiber(LieType("D", 4), empty).order == 4
        assert center_fiber(LieType.of("E6"), empty).order == 3
        assert center_fiber(LieType.of("E7"), empty).order == 2
        assert center_fiber(LieType.of("E8"), empty).order == 1
        assert center_fiber(LieType.of("F4"), empty).order == 1
        assert center_fiber(LieType.of("G2"), empty).order == 1

    def test_b_family_parity(self):
        t = LieType("B", 4)
        assert center_fiber(t, SubsetJ((2, 4))).order == 2
        assert center_fiber(t, SubsetJ((2, 3))).order == 1

    def test_d_exactly_one_case(self):
        # one of n-1, n in J, small indices even, n even: order 2
        t = LieType("D", 4)
        assert center_fiber(t, SubsetJ((4,))).order == 2
        assert center_fiber(t, SubsetJ((2, 3))).order == 2
        # both in J: otherwise row
        assert center_fiber(t, SubsetJ((3, 4))).order == 1
        # odd small index breaks the case
        assert center_fiber(t, SubsetJ((1, 4))).order == 1
        # n odd never satisfies the third case
        assert center_fiber(LieType("D", 5), SubsetJ((5,))).order == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            center_fiber(LieType("A", 3), SubsetJ((5,)))

    def test_divides_center_order(self):
        for t in (LieType("A", 6), LieType("B", 4), LieType("C", 4), LieType("D", 5)):
            for j in all_subsets(t.rank):
                assert t.center_order % center_fiber(t, j).order == 0

    def test_equals_the_cartan_cokernel(self):
        # Z(J) = (P^v/Q^v)/<w_j^v : j in J>, the torsion of Z^n modulo the
        # columns of the Cartan matrix outside J (Bourbaki ch. VI, Plates
        # I-IX).  Its invariant factors give the kind as well as the order,
        # and the label names both.
        checked, names = 0, {(): "trivial", (2, 2): "klein_four"}
        for t in classical_types(10) + [LieType.of(f) for f in ("E6", "E7", "E8", "F4", "G2")]:
            cartan = cartan_matrix(t)
            for j in core_all_subsets(t.rank):
                kept = [c for c in range(t.rank) if c + 1 not in j]
                factors = invariant_factors([[row[c] for c in kept] for row in cartan])
                torsion = tuple(f for f in factors if f > 1)
                label = names.get(torsion, "cyclic(%s)" % ", ".join(map(str, torsion)))
                assert center_fiber(t, j).label == label, (t, j, torsion)
                checked += 1
        assert checked == 8642


class TestOrbitPartition:
    def test_type_a(self, capsys):
        assert orbit_partition(LieType("A", 4), SubsetJ((1, 3))) == Partition((2, 2, 1))
        assert label_ambiguous(capsys, "A", 4, "1,3") is False

    def test_type_b(self):
        assert orbit_partition(LieType("B", 3), SubsetJ((2,))) == Partition((3, 2, 2))

    def test_type_c(self):
        assert orbit_partition(LieType("C", 3), SubsetJ((1,))) == Partition((4, 1, 1))

    def test_type_d_very_even(self, capsys):
        result = orbit_partition(LieType("D", 4), SubsetJ((4,)))
        assert result == Partition((4, 4))
        assert result.very_even
        assert label_ambiguous(capsys, "D", 4, "4") is True

    def test_type_d_both_top(self, capsys):
        result = orbit_partition(LieType("D", 4), SubsetJ((3, 4)))
        assert result == Partition((3, 3, 1, 1))
        assert label_ambiguous(capsys, "D", 4, "3,4") is False

    def test_principal_orbits_on_empty_set(self):
        empty = SubsetJ(())
        assert orbit_partition(LieType("A", 4), empty) == Partition((5,))
        assert orbit_partition(LieType("B", 3), empty) == Partition((7,))
        assert orbit_partition(LieType("C", 3), empty) == Partition((6,))
        assert orbit_partition(LieType("D", 4), empty) == Partition((7, 1))

    def test_full_subset_gives_zero_orbit(self):
        for t in (LieType("A", 5), LieType("B", 3), LieType("C", 3), LieType("D", 4)):
            full = SubsetJ(tuple(range(1, t.rank + 1)))
            p = orbit_partition(t, full)
            assert p.parts == (1,) * t.matrix_dimension

    def test_totals(self):
        for t in (LieType("A", 6), LieType("B", 5), LieType("C", 5), LieType("D", 5)):
            for j in all_subsets(t.rank):
                assert orbit_partition(t, j).total == t.matrix_dimension

    def test_rejects_exceptional(self):
        with pytest.raises(UnsupportedFamilyError):
            orbit_partition(LieType.of("E6"), SubsetJ((2, 4)))

    def test_equals_the_jordan_type_up_to_rank_11(self):
        # The Jordan type of the representative, read off the ranks of its
        # powers.  Type D with n-1 and n outside J runs the chain's echelon
        # phase, every other J its unit rows.
        checked = 0
        for t in classical_types(11):
            roots = _root_vectors(t)
            for j in core_all_subsets(t.rank):
                jordan_type = partition_from_ranks(_rank_chain(_root_sum_rows(t, j, roots)))
                assert orbit_partition(t, j) == jordan_type, (t, j)
                checked += 1
        assert checked == 2**12 - 2 + 2 * (2**12 - 4) + 2**12 - 8 == 16366


class TestOrbitDimension:
    def test_example_values(self):
        assert orbit_dimension_type_a(6, Partition((3, 3, 1))) == 32
        assert orbit_dimension_type_a(6, Partition((7,))) == 42
        assert orbit_dimension_type_a(6, Partition((1,) * 7)) == 0

    def test_rejects_total_mismatch(self):
        with pytest.raises(InputError):
            orbit_dimension_type_a(6, Partition((3, 3)))

    def test_closed_form_matches_height_squares(self):
        for total in range(1, 13):
            for p in partitions_of(total):
                squares = sum(h * h for h in conjugate_heights(p))
                assert orbit_dimension_type_a(total - 1, p) == total * total - squares


def count_oracle_outcomes(types):
    """Outcome counts of fundamental_groups against its docstring's rules via parts.count."""
    elementary = FiniteGroupDescriptor.elementary_abelian_2

    def oracle(t, parts):
        odd = {v for v in parts if v % 2}
        a, b = len(odd), len(set(parts) - odd)
        rather_odd = all(parts.count(v) == 1 for v in odd)
        if t.family == "A":
            return FiniteGroupDescriptor.cyclic(math.gcd(*parts)), elementary(0)
        if t.family == "C":
            even_ok = all(parts.count(v) % 2 == 0 for v in set(parts) - odd)
            return elementary(b), elementary(b if even_ok else b - 1)
        k = max(0, a - 1)
        pi1 = FiniteGroupDescriptor.central_extension_2(k) if rather_odd else elementary(k)
        if t.family == "B":
            return pi1, elementary(k)
        odd_ok = all(parts.count(v) % 2 == 0 for v in odd)
        return pi1, elementary(k if odd_ok else max(0, a - 2))

    outcomes = Counter()
    for t in types:
        family, forbidden = t.family, 1 if t.family == "C" else 0
        for p in partitions_of(t.matrix_dimension):
            bad = [v for v in set(p.parts)
                   if family != "A" and v % 2 == forbidden and p.parts.count(v) % 2]
            if bad:
                with pytest.raises(InputError) as info:
                    fundamental_groups(t, p)
                v = int(str(info.value).split()[2])
                assert v in bad
                assert "multiplicity %d;" % p.parts.count(v) in str(info.value)
                outcomes[family, "refused"] += 1
                continue
            assert fundamental_groups(t, p) == oracle(t, p.parts), (t, p)
            outcomes[family, "checked"] += 1
    return outcomes


class TestFundamentalGroups:
    def test_one_count_of_multiplicities_per_call(self, monkeypatch):
        # One Counter feeds pi1, A, the parity checks and rather-odd.
        calls = []
        original = Partition.multiplicities

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(Partition, "multiplicities", counted)
        cases = (
            ("A", 5, (3, 3)),
            ("B", 3, (3, 1, 1, 1, 1)),
            ("B", 4, (5, 3, 1)),
            ("C", 3, (4, 1, 1)),
            ("D", 4, (3, 3, 1, 1)),
            ("D", 5, (5, 3, 1, 1)),
        )
        for family, rank, parts in cases:
            p = Partition(parts)
            before = len(calls)
            fundamental_groups(LieType(family, rank), p)
            assert calls[before:] == [p], (family, rank, parts)

    def test_type_a(self):
        pi1, a = fundamental_groups(LieType("A", 5), Partition((3, 3)))
        assert pi1 == FiniteGroupDescriptor.cyclic(3)
        assert a == FiniteGroupDescriptor("trivial")

    def test_type_c(self):
        pi1, a = fundamental_groups(LieType("C", 3), Partition((4, 1, 1)))
        assert pi1 == FiniteGroupDescriptor.elementary_abelian_2(1)
        assert a == FiniteGroupDescriptor("trivial")

    def test_type_b_rather_odd(self):
        pi1, a = fundamental_groups(LieType("B", 3), Partition((3, 2, 2)))
        assert pi1 == FiniteGroupDescriptor.central_extension_2(0)
        assert pi1.order == 2
        assert a == FiniteGroupDescriptor("trivial")

    def test_type_d_not_rather_odd(self):
        pi1, a = fundamental_groups(LieType("D", 4), Partition((3, 3, 1, 1)))
        assert pi1 == FiniteGroupDescriptor.elementary_abelian_2(1)
        assert a == FiniteGroupDescriptor.elementary_abelian_2(1)

    def test_type_d_very_even(self):
        pi1, a = fundamental_groups(LieType("D", 4), Partition((4, 4)))
        assert pi1.order == 2
        assert a == FiniteGroupDescriptor("trivial")

    def test_rejects_bad_multiplicity_b(self):
        with pytest.raises(InputError, match="even part .* odd multiplicity"):
            fundamental_groups(LieType("B", 3), Partition((4, 2, 1)))

    def test_rejects_bad_multiplicity_c(self):
        with pytest.raises(InputError, match="odd part .* odd multiplicity"):
            fundamental_groups(LieType("C", 3), Partition((3, 2, 1)))

    def test_rejects_bad_multiplicity_d(self):
        with pytest.raises(InputError, match="even part .* odd multiplicity"):
            fundamental_groups(LieType("D", 3), Partition((4, 1, 1)))

    def test_rejects_total_mismatch(self):
        with pytest.raises(InputError, match="sums to"):
            fundamental_groups(LieType("C", 4), Partition((4, 1, 1)))

    def test_matches_count_oracle(self):
        # A and C to matrix dimension 12; B and D are pinned below.
        types = [t for t in classical_types(12) if t.family in "AC" and t.matrix_dimension <= 12]
        assert count_oracle_outcomes(types) == {
            ("A", "checked"): 270, ("C", "checked"): 90, ("C", "refused"): 67}

    def test_many_parts_take_linear_time(self):
        # Each even value 2..20000 twice: 20,000 parts, 10,000 distinct.  A
        # per-value parts.count scan over these takes seconds.
        p = Partition(tuple(v for v in range(20000, 0, -2) for _ in range(2)))
        t = LieType("C", p.total // 2)
        start = time.perf_counter()
        pi1, a_group = fundamental_groups(t, p)
        very_even = p.very_even
        assert time.perf_counter() - start < 0.5
        assert pi1 == a_group == FiniteGroupDescriptor.elementary_abelian_2(10000)
        assert very_even


def test_merged_b_d_rule_equals_the_separate_rules():
    # One merged B/D rule in fundamental_groups, each family's rule apart in the
    # oracle.  No independent route checks these pi1 kinds: this is the pin.
    assert count_oracle_outcomes(t for t in classical_types(12) if t.family in "BD") == {
        ("B", "checked"): 1254, ("B", "refused"): 3923,
        ("D", "checked"): 1024, ("D", "refused"): 3083,
    }


class TestKernelCheck:
    def test_type_a_example(self):
        report = kernel_check(LieType("A", 5), SubsetJ((2, 4)))
        assert (report.zj_order, report.pi1_order, report.a_order) == (2, 2, 1)
        assert report.holds

    def test_type_c_example(self):
        report = kernel_check(LieType("C", 3), SubsetJ((1,)))
        assert (report.zj_order, report.pi1_order, report.a_order) == (2, 2, 1)
        assert report.holds

    def test_type_d_example(self):
        report = kernel_check(LieType("D", 4), SubsetJ((3, 4)))
        assert (report.zj_order, report.pi1_order, report.a_order) == (1, 2, 2)
        assert report.holds

    def test_sweep_small_ranks(self):
        for t in classical_types(6):
            for j in all_subsets(t.rank):
                report = kernel_check(t, j)
                assert report.holds, (t, j)
                if t.family == "A":
                    assert report.a_order == 1

    def test_type_a_exactness(self):
        for rank in range(1, 8):
            t = LieType("A", rank)
            for j in all_subsets(rank):
                zj = center_fiber(t, j).order
                p = orbit_partition(t, j)
                pi1, _ = fundamental_groups(t, p)
                assert zj == pi1.order

    def test_rejects_exceptional(self):
        with pytest.raises(UnsupportedFamilyError):
            kernel_check(LieType.of("E7"), SubsetJ((1,)))


SWEEP_SUITES = (
    checks.check_formula_oracle,
    checks.check_oracle_rank_profile,
    checks.check_kernel_identity,
    checks.check_type_a_exactness,
    checks.check_partition_totals,
    checks.check_center_divisibility,
    checks.check_full_subset_zero_orbit,
)


class TestSharedJTable:
    """The orbit and group columns of ``checks.classical_sweep``."""

    def test_columns_match_kernel_check(self):
        sweep = checks.classical_sweep(6)
        assert list(sweep) == classical_types(6)
        for t, c in sweep.items():
            columns = (c.partitions, c.zj_orders, c.pi1_orders, c.a_orders)
            assert [len(column) for column in columns] == [1 << t.rank] * 4
            for j, (p, zj, pi1, a_order) in zip(all_subsets(t.rank), zip(*columns)):
                report = kernel_check(t, j)
                assert (zj, pi1, a_order) == (report.zj_order, report.pi1_order, report.a_order)
                assert p == orbit_partition(t, j)
            # One object per distinct partition.
            assert len({id(p) for p in c.partitions}) == len(set(c.partitions))

    def test_groups_once_per_distinct_partition(self, monkeypatch):
        calls = []

        def counted(t, p):
            calls.append((t, p))
            return fundamental_groups(t, p)

        monkeypatch.setattr(checks, "fundamental_groups", counted)
        types = classical_types(7)
        checks.classical_sweep(7)
        distinct = {(t, orbit_partition(t, j)) for t in types for j in all_subsets(t.rank)}
        assert sorted(calls, key=str) == sorted(distinct, key=str)

    def test_subset_of_mask_follows_all_subsets(self):
        # core.all_subsets builds by doubling; the k-th is still subset_of_mask(k),
        # and both equal the validated build of the helper above.
        for rank in range(0, 13):
            expected = [subset_of_mask(k) for k in range(1 << rank)]
            assert list(core_all_subsets(rank)) == expected == list(all_subsets(rank))
        with pytest.raises(InputError):
            core_all_subsets(-1)

    def test_doubled_center_order_fails(self):
        t, mask = LieType("A", 3), 0b10  # J = {2}
        sweep = checks.classical_sweep(4)
        checked = [suite(sweep).checked for suite in SWEEP_SUITES]
        c = sweep[t]
        assert (c.zj_orders[mask], c.pi1_orders[mask], c.a_orders[mask]) == (2, 2, 1)
        c.zj_orders[mask] *= 2
        kernel = checks.check_kernel_identity(sweep)
        assert kernel.failures == ("A3 J={2}: 4 * 1 != 2",)
        exactness = checks.check_type_a_exactness(sweep)
        assert exactness.failures == ("A3 J={2}: |Z| = 4 but |pi1| = 2",)
        assert [suite(sweep).checked for suite in SWEEP_SUITES] == checked

    def test_wrong_total_or_order_fails(self):
        sweep = checks.classical_sweep(3)
        sweep[LieType("C", 3)].partitions[0b1] = Partition((7,))  # J = {1}
        result = checks.check_partition_totals(sweep)
        assert result.failures == ("C3 J={1}: total 7 != 6",)
        sweep[LieType("B", 2)].zj_orders[0b11] = 3  # J = {1, 2}
        result = checks.check_center_divisibility(sweep)
        assert result.failures == ("B2 J={1, 2}: |Z(J)| = 3 does not divide center order 2",)
        sweep[LieType("A", 2)].partitions[-1] = Partition((2, 1))  # J = {1, 2}
        result = checks.check_full_subset_zero_orbit(sweep)
        assert result.failures == ("A2 full J gives [2, 1]",)

    def test_run_all_builds_one_sweep(self, monkeypatch):
        # One sweep feeds the seven classical suites, and over the whole run
        # each classical (type, J) gets its partition, its fiber and its
        # representative's rows computed once; no dense representative is built.
        calls, sweeps = Counter(), []

        def counted(tag, fn):
            def wrapper(t, j, *rest):
                calls[tag, t, j] += 1
                return fn(t, j, *rest)

            return wrapper

        def traced(fn, builds):
            def wrapper(arg):
                result = fn(arg)
                sweeps.append(result if builds else arg)
                return result

            return wrapper

        counted_names = {"P": "orbit_partition", "Z": "center_fiber", "M": "_root_sum_rows"}
        for tag, name in counted_names.items():
            monkeypatch.setattr(checks, name, counted(tag, getattr(checks, name)))
        dense = counted("D", jordan.representative_matrix)
        monkeypatch.setattr(jordan, "representative_matrix", dense)
        monkeypatch.setattr(checks, "classical_sweep", traced(checks.classical_sweep, True))
        for suite in SWEEP_SUITES:
            monkeypatch.setattr(checks, suite.__name__, traced(suite, False))
        assert all(r.ok for r in checks.run_all(max_rank=7))
        assert len(sweeps) == 1 + len(SWEEP_SUITES)
        assert all(sweep is sweeps[0] for sweep in sweeps)
        pairs = [(t, j) for t in classical_types(7) for j in all_subsets(t.rank)]
        assert len(pairs) == 1006
        for tag in counted_names:
            per_pair = {(t, j): n for (g, t, j), n in calls.items() if g == tag and t.is_classical}
            assert per_pair == dict.fromkeys(pairs, 1), counted_names[tag]
        assert sum(n for (g, _, _), n in calls.items() if g == "M") == len(pairs)
        assert not any(g == "D" for g, _, _ in calls)
