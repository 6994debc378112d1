import pytest

from nilorbits.core import (
    InputError,
    LieType,
    Partition,
    SubsetJ,
    UnsupportedFamilyError,
    conjugate_heights,
    partitions_of,
)
from nilorbits.orbits import (
    FiniteGroupDescriptor,
    center_fiber,
    fundamental_groups,
    kernel_check,
    orbit_dimension_type_a,
    orbit_partition,
)


def all_subsets(rank):
    for mask in range(1 << rank):
        yield SubsetJ(tuple(i + 1 for i in range(rank) if mask >> i & 1))


class TestFiniteGroupDescriptor:
    def test_orders(self):
        assert FiniteGroupDescriptor.trivial().order == 1
        assert FiniteGroupDescriptor.cyclic(5).order == 5
        assert FiniteGroupDescriptor.elementary_abelian_2(3).order == 8
        assert FiniteGroupDescriptor.central_extension_2(0).order == 2
        assert FiniteGroupDescriptor.central_extension_2(2).order == 8
        assert FiniteGroupDescriptor.klein_four().order == 4
        assert FiniteGroupDescriptor.symmetric_2().order == 2

    def test_order_one_normalizes_to_trivial(self):
        assert FiniteGroupDescriptor.cyclic(1).kind == "trivial"
        assert FiniteGroupDescriptor.elementary_abelian_2(0).kind == "trivial"

    def test_labels(self):
        assert FiniteGroupDescriptor.cyclic(3).label == "cyclic(3)"
        assert FiniteGroupDescriptor.klein_four().label == "klein_four"

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
        assert center_fiber(LieType("D", 4), SubsetJ((2,))) == FiniteGroupDescriptor.klein_four()

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


class TestOrbitPartition:
    def test_type_a(self):
        result = orbit_partition(LieType("A", 4), SubsetJ((1, 3)))
        assert result.partition == Partition((2, 2, 1))
        assert not result.orbit_label_ambiguous

    def test_type_b(self):
        assert orbit_partition(LieType("B", 3), SubsetJ((2,))).partition == Partition((3, 2, 2))

    def test_type_c(self):
        assert orbit_partition(LieType("C", 3), SubsetJ((1,))).partition == Partition((4, 1, 1))

    def test_type_d_very_even(self):
        result = orbit_partition(LieType("D", 4), SubsetJ((4,)))
        assert result.partition == Partition((4, 4))
        assert result.very_even
        assert result.orbit_label_ambiguous

    def test_type_d_both_top(self):
        result = orbit_partition(LieType("D", 4), SubsetJ((3, 4)))
        assert result.partition == Partition((3, 3, 1, 1))
        assert not result.orbit_label_ambiguous

    def test_principal_orbits_on_empty_set(self):
        empty = SubsetJ(())
        assert orbit_partition(LieType("A", 4), empty).partition == Partition((5,))
        assert orbit_partition(LieType("B", 3), empty).partition == Partition((7,))
        assert orbit_partition(LieType("C", 3), empty).partition == Partition((6,))
        assert orbit_partition(LieType("D", 4), empty).partition == Partition((7, 1))

    def test_full_subset_gives_zero_orbit(self):
        for t in (LieType("A", 5), LieType("B", 3), LieType("C", 3), LieType("D", 4)):
            full = SubsetJ(tuple(range(1, t.rank + 1)))
            p = orbit_partition(t, full).partition
            assert p.parts == (1,) * t.matrix_dimension

    def test_totals(self):
        for t in (LieType("A", 6), LieType("B", 5), LieType("C", 5), LieType("D", 5)):
            for j in all_subsets(t.rank):
                assert orbit_partition(t, j).partition.total == t.matrix_dimension

    def test_rejects_exceptional(self):
        with pytest.raises(UnsupportedFamilyError):
            orbit_partition(LieType.of("E6"), SubsetJ((2, 4)))


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


class TestFundamentalGroups:
    def test_type_a(self):
        pi1, a = fundamental_groups(LieType("A", 5), Partition((3, 3)))
        assert pi1 == FiniteGroupDescriptor.cyclic(3)
        assert a == FiniteGroupDescriptor.trivial()

    def test_type_c(self):
        pi1, a = fundamental_groups(LieType("C", 3), Partition((4, 1, 1)))
        assert pi1 == FiniteGroupDescriptor.elementary_abelian_2(1)
        assert a == FiniteGroupDescriptor.trivial()

    def test_type_b_rather_odd(self):
        pi1, a = fundamental_groups(LieType("B", 3), Partition((3, 2, 2)))
        assert pi1 == FiniteGroupDescriptor.central_extension_2(0)
        assert pi1.order == 2
        assert a == FiniteGroupDescriptor.trivial()

    def test_type_d_not_rather_odd(self):
        pi1, a = fundamental_groups(LieType("D", 4), Partition((3, 3, 1, 1)))
        assert pi1 == FiniteGroupDescriptor.elementary_abelian_2(1)
        assert a == FiniteGroupDescriptor.elementary_abelian_2(1)

    def test_type_d_very_even(self):
        pi1, a = fundamental_groups(LieType("D", 4), Partition((4, 4)))
        assert pi1.order == 2
        assert a == FiniteGroupDescriptor.trivial()

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
        for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            for rank in range(lo, 7):
                t = LieType(family, rank)
                for j in all_subsets(rank):
                    report = kernel_check(t, j)
                    assert report.holds, (t, j)
                    if family == "A":
                        assert report.a_order == 1

    def test_type_a_exactness(self):
        for rank in range(1, 8):
            t = LieType("A", rank)
            for j in all_subsets(rank):
                zj = center_fiber(t, j).order
                p = orbit_partition(t, j).partition
                pi1, _ = fundamental_groups(t, p)
                assert zj == pi1.order

    def test_rejects_exceptional(self):
        with pytest.raises(UnsupportedFamilyError):
            kernel_check(LieType.of("E7"), SubsetJ((1,)))
