import inspect
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nilorbits
from nilorbits.core import (
    ComponentLabel,
    DataIntegrityError,
    DynkinDiagram,
    InputError,
    LieType,
    Partition,
    ResourceBoundError,
    SubsetJ,
    Value,
    all_subsets,
    check_subset_range,
    classify_subdiagram,
    conjugate_heights,
    dynkin_diagram,
    partitions_of,
    subset_of_mask,
    syt_count,
)
from nilorbits.decomposition import summand_report
from nilorbits.jordan import IntMatrix, representative_matrix
from nilorbits.orbits import (
    FiniteGroupDescriptor,
    center_fiber,
    fundamental_groups,
    orbit_dimension_type_a,
    orbit_partition,
)
from nilorbits.paving import LabeledDiagram, TableauPermutation
from nilorbits.tables import OrbitRecord


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    counts = Counter(bins)
    return Partition(tuple(sorted(counts.values(), reverse=True)))


def brute_force_syt(parts):
    """Count standard fillings by placing 1..m at row ends, rows staying column-strict."""
    total = sum(parts)

    def rec(fill):
        placed = sum(fill)
        if placed == total:
            return 1
        found = 0
        for r in range(len(parts)):
            c = fill[r]
            if c < parts[r] and (r == 0 or fill[r - 1] > c):
                fill[r] += 1
                found += rec(fill)
                fill[r] -= 1
        return found

    return rec([0] * len(parts))


class TestPartition:
    def test_normalizes_on_construction(self):
        assert Partition((1, 3, 2)).parts == (3, 2, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            Partition((3, 0))
        with pytest.raises(InputError):
            Partition((-1,))

    def test_empty_partition(self):
        p = Partition(())
        assert p.total == 0
        assert not p.very_even

    def test_very_even(self):
        assert Partition((4, 4, 2, 2)).very_even
        assert not Partition((4, 4, 2)).very_even
        assert not Partition((3, 3)).very_even
        for total in range(13):
            for p in partitions_of(total):
                parts = p.parts
                expected = bool(parts) and all(
                    v % 2 == 0 and parts.count(v) % 2 == 0 for v in set(parts)
                )
                assert p.very_even == expected, p

    def test_multiplicities_count_every_part(self):
        for total in range(13):
            for p in partitions_of(total):
                counts = p.multiplicities()
                assert list(counts) == sorted(set(p.parts), reverse=True)
                assert all(counts[v] == p.parts.count(v) for v in counts)

    def test_gcd(self):
        assert Partition((2, 2, 2)).gcd() == 2
        assert Partition((3, 3, 1)).gcd() == 1
        assert Partition().gcd() == 0


class TestSubsetJ:
    def test_sorts(self):
        assert SubsetJ((4, 2)).elements == (2, 4)

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            SubsetJ((2, 2))

    def test_duplicates_are_named_by_their_values(self):
        # A one-shot iterable is spent by then, so the message echoes the sorted elements.
        with pytest.raises(InputError) as caught:
            SubsetJ(x for x in (2, 2))
        assert str(caught.value) == "subset elements must be distinct: (2, 2)"

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            SubsetJ((0, 1))

    def test_range_check_names_the_first_offender(self):
        # The check reads the first and last element; the message still
        # names the first element out of range.
        for j, message in (
            (SubsetJ((2, 9)), "subset element 9 out of range [1, 5]"),
            (SubsetJ((6, 7)), "subset element 6 out of range [1, 5]"),
            (SubsetJ._trusted((0, 2)), "subset element 0 out of range [1, 5]"),
        ):
            with pytest.raises(InputError) as caught:
                check_subset_range(LieType("A", 5), j)
            assert str(caught.value) == message
        for j in (SubsetJ(), SubsetJ((1,)), SubsetJ((1, 5)), SubsetJ((2, 3, 4))):
            check_subset_range(LieType("A", 5), j)

    def test_subset_of_mask_rejects_a_negative_mask(self):
        # int.bit_length ignores the sign, so -1 would read as {1}.
        for mask, echoed in ((-1, "-1"), (-4, "-4"), (-(10**5000), "<16610-bit integer>")):
            with pytest.raises(InputError) as caught:
                subset_of_mask(mask)
            assert str(caught.value) == "subset mask must be >= 0, got %s" % echoed
        assert subset_of_mask(0) == SubsetJ()
        assert subset_of_mask(5) == SubsetJ((1, 3))


class TestLieType:
    def test_exceptional_rank_fixed(self):
        assert LieType.of("E6").rank == 6
        with pytest.raises(InputError):
            LieType("E7", 6)

    def test_rank_floors(self):
        with pytest.raises(InputError):
            LieType("D", 2)
        with pytest.raises(InputError):
            LieType("B", 1)
        assert LieType("A", 1).matrix_dimension == 2

    def test_matrix_dimensions(self):
        assert LieType("B", 3).matrix_dimension == 7
        assert LieType("C", 3).matrix_dimension == 6
        assert LieType("D", 4).matrix_dimension == 8

    def test_of_fills_only_an_exceptional_rank(self):
        assert LieType.of("e7") == LieType("E7", 7)
        for family, rank, message in (
            ("Q", None, "unknown Lie family 'Q'"),
            ("Q", 3, "unknown Lie family 'Q'"),
            ("A", None, "family A requires an explicit rank"),
            ("E6", 5, "E6 has fixed rank 6, got 5"),
        ):
            with pytest.raises(InputError) as caught:
                LieType.of(family, rank)
            assert str(caught.value) == message
        with pytest.raises(InputError, match="fixed rank"):
            LieType("E6", 5)

    def test_rank_must_be_an_int(self):
        for rank, message in (
            (None, "rank must be an int, got NoneType None"),
            ("3", "rank must be an int, got str 3"),
            (3.0, "rank must be an int, got float 3.0"),
        ):
            with pytest.raises(InputError) as caught:
                LieType("A", rank)
            assert str(caught.value) == message
        with pytest.raises(InputError, match="rank must be an int"):
            LieType("E6", 6.0)
        long_text = "7" * 100_000
        with pytest.raises(InputError) as caught:
            LieType("B", long_text)
        assert len(str(caught.value)) < 300

    def test_center_orders(self):
        assert LieType("A", 5).center_order == 6
        assert LieType("D", 4).center_order == 4
        assert LieType.of("E6").center_order == 3
        assert LieType.of("G2").center_order == 1


# The one multiple bond of each non-simply-laced type, as (short root,
# long root, bond multiplicity), on the path 1..rank of A_rank.
MULTIPLE_BONDS = {
    "B": lambda n: (n, n - 1, 2),
    "C": lambda n: (n - 1, n, 2),
    "F4": lambda n: (3, 2, 2),
    "G2": lambda n: (1, 2, 3),
}


def cartan_matrix(t):
    """A_ij = 2(a_i, a_j)/(a_i, a_i), from ``dynkin_diagram`` and one multiple bond."""
    n = t.rank
    bond = MULTIPLE_BONDS.get(t.family)
    diagram = dynkin_diagram(LieType("A", n) if bond else t)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in diagram.edges:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    if bond:
        short, long, multiplicity = bond(n)
        a[short - 1][long - 1] = -multiplicity
    return a


def determinant(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            factor = m[r][c] / m[c][c]
            m[r] = [x - factor * y for x, y in zip(m[r], m[c])]
    return det


@pytest.mark.parametrize(
    "t",
    [LieType(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for r in range(lo, 13)]
    + [LieType.of(f) for f in ("E6", "E7", "E8", "F4", "G2")],
    ids=str,
)
def test_center_order_is_the_cartan_determinant(t):
    # |Z(G_sc)| = |P^v/Q^v| = det A, independent of the case table.
    assert t.center_order == determinant(cartan_matrix(t))


def test_library_messages_cut_a_huge_value():
    # A value too long to print whole, or to convert to str at all, still
    # gives an InputError with a short message.
    huge = -(10**5000)
    for build in (
        lambda: Partition((huge,)),
        lambda: FiniteGroupDescriptor.cyclic(huge),
        lambda: FiniteGroupDescriptor.elementary_abelian_2(huge),
        lambda: FiniteGroupDescriptor.central_extension_2(huge),
        lambda: FiniteGroupDescriptor("cyclic", huge),
        lambda: IntMatrix(huge),
        lambda: SubsetJ((5,) * 20000),
        lambda: TableauPermutation(tuple(range(2, 20002))),
    ):
        with pytest.raises(InputError) as caught:
            build()
        assert len(str(caught.value)) < 300


class TestConjugateHeights:
    def test_two_column_tail_shape(self):
        assert conjugate_heights(Partition((3, 3, 1))) == [3, 2, 2]

    def test_single_row(self):
        assert conjugate_heights(Partition((5,))) == [1, 1, 1, 1, 1]

    def test_direct_count(self):
        # parts >= 1: three of them; parts >= 2: two
        assert conjugate_heights(Partition((2, 2, 1))) == [3, 2]

    @given(partition_strategy())
    def test_sum_and_involution(self, p):
        heights = conjugate_heights(p)
        assert sum(heights) == p.total
        assert p.conjugate().conjugate() == p

    def test_exhaustive_small(self):
        for total in range(0, 11):
            for p in partitions_of(total):
                assert sum(conjugate_heights(p)) == p.total
                assert p.conjugate().conjugate() == p


class TestSytCount:
    def test_frozen_values(self):
        # brute force: 5 fillings of the 2+2+1 staircase, 21 of 3+3+1
        assert syt_count(Partition((2, 2, 1))) == 5
        assert syt_count(Partition((3, 3, 1))) == 21
        assert syt_count(Partition((6,))) == 1

    def test_against_brute_force(self):
        for total in range(1, 8):
            for p in partitions_of(total):
                assert syt_count(p) == brute_force_syt(p.parts), p

    def test_conjugate_symmetry(self):
        for total in range(1, 11):
            for p in partitions_of(total):
                assert syt_count(p) == syt_count(p.conjugate())


class TestPartitionsOf:
    def test_counts(self):
        assert sum(1 for _ in partitions_of(8)) == 22
        assert sum(1 for _ in partitions_of(9)) == 30

    def test_zero(self):
        assert list(partitions_of(0)) == [Partition(())]

    @given(st.integers(min_value=1, max_value=12))
    def test_all_sum_correctly(self, n):
        for p in partitions_of(n):
            assert p.total == n

    def test_matches_brute_force_in_descending_lexicographic_order(self):
        for n in range(13):
            assert [p.parts for p in partitions_of(n)] == _brute_force_partitions(n)
            assert all(type(p) is Partition for p in partitions_of(n))

    def test_counts_follow_the_pentagonal_recurrence(self):
        # Euler: p(n) = sum over k >= 1 of (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)).
        p = [1]
        for n in range(1, 41):
            total, k = 0, 1
            while k * (3 * k - 1) // 2 <= n:
                sign = 1 if k % 2 else -1
                total += sign * p[n - k * (3 * k - 1) // 2]
                if k * (3 * k + 1) // 2 <= n:
                    total += sign * p[n - k * (3 * k + 1) // 2]
                k += 1
            p.append(total)
        assert p[8] == 22 and p[40] == 37338
        for n in range(41):
            assert sum(1 for _ in partitions_of(n)) == p[n]

    def test_rejects_a_negative_total_at_the_call(self):
        with pytest.raises(InputError, match="negative total"):
            partitions_of(-1)


def _brute_force_partitions(n):
    """The partitions of ``n`` as tuples, descending lexicographic, from its 2^(n-1) compositions.

    Bit i of a mask cuts the row of n cells after cell i + 1; each
    composition's parts are sorted descending and the distinct tuples sorted.
    """
    if n == 0:
        return [()]
    found = set()
    for mask in range(1 << (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(run)
                run = 0
            run += 1
        parts.append(run)
        found.add(tuple(sorted(parts, reverse=True)))
    return sorted(found, reverse=True)


# Each enumerator refuses a non-int argument before any work; a float total
# would otherwise walk past 0 into negative parts, and a bool mask read as 1.
NON_INT_ARGUMENTS = {
    "partitions_of": (partitions_of, "partition total"),
    "all_subsets": (all_subsets, "rank"),
    "summand_report": (summand_report, "rank"),
    "subset_of_mask": (subset_of_mask, "subset mask"),
}


@pytest.mark.parametrize("function", sorted(NON_INT_ARGUMENTS))
@pytest.mark.parametrize("value", [2.5, "3", True, None], ids=repr)
def test_enumerators_refuse_a_non_int_argument(function, value):
    call, what = NON_INT_ARGUMENTS[function]
    with pytest.raises(InputError) as caught:
        call(value)
    assert str(caught.value) == "%s must be an int, got %s %s" % (
        what,
        type(value).__name__,
        value,
    )


class TestDynkinDiagram:
    def test_e6_edges(self):
        d = dynkin_diagram(LieType.of("E6"))
        assert d.edges == frozenset({(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)})

    def test_e7_edges(self):
        d = dynkin_diagram(LieType.of("E7"))
        assert d.edges == frozenset({(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)})

    def test_a_path(self):
        d = dynkin_diagram(LieType("A", 4))
        assert d.edges == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_rejects_cycle(self):
        with pytest.raises(InputError):
            DynkinDiagram((1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)}))

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            DynkinDiagram((1, 2, 3, 4), frozenset({(1, 2), (3, 4), (1, 2)}))
        # Three edges on four nodes, as a tree has, but a triangle and a lone node.
        with pytest.raises(InputError, match="must be connected"):
            DynkinDiagram((1, 2, 3, 4), frozenset({(1, 2), (2, 3), (1, 3)}))

    @pytest.mark.parametrize(
        "edges",
        [
            {(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)},
            {(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (5, 7)},
            {(1, 2), (1, 3), (1, 4), (1, 5)},
        ],
        ids=["arms-2-2-2", "two-branch-nodes", "degree-4"],
    )
    def test_rejects_a_tree_outside_ade(self, edges):
        # Trees that no classification fits: a caller's bad diagram is an
        # InputError, and the classifier's DataIntegrityError stays for corrupt data.
        nodes = sorted({v for e in edges for v in e})
        with pytest.raises(InputError, match="^diagram is not of type A, D or E$"):
            DynkinDiagram(nodes, frozenset(edges))


class TestComponentLabel:
    def test_render_collapses_multiplicities(self):
        lbl = ComponentLabel((("A", 2), ("A", 2)))
        assert lbl.render() == "2A_2"

    def test_render_sorts_by_rank(self):
        lbl = ComponentLabel((("A", 1), ("A", 3), ("A", 2)))
        assert lbl.render() == "A_3 + A_2 + A_1"

    def test_trivial(self):
        assert ComponentLabel(()).render() == "Triv."

    def test_equality_is_multiset(self):
        assert ComponentLabel((("A", 1), ("D", 4))) == ComponentLabel((("D", 4), ("A", 1)))


class TestClassifySubdiagram:
    def test_e6_two_a2(self):
        d = dynkin_diagram(LieType.of("E6"))
        assert classify_subdiagram(d, {1, 3, 5, 6}).render() == "2A_2"

    def test_e7_a3_a2_a1(self):
        d = dynkin_diagram(LieType.of("E7"))
        kept = {1, 2, 3, 5, 6, 7}  # complement of {4}
        assert classify_subdiagram(d, kept).render() == "A_3 + A_2 + A_1"

    def test_empty_is_trivial(self):
        d = dynkin_diagram(LieType.of("E6"))
        assert classify_subdiagram(d, set()).render() == "Triv."

    def test_pinned_e7_rows(self):
        d = dynkin_diagram(LieType.of("E7"))
        assert classify_subdiagram(d, {1, 2, 3, 4, 5, 6}).render() == "E_6"
        assert classify_subdiagram(d, {2, 3, 4, 5, 6, 7}).render() == "D_6"

    def test_d4_arms(self):
        d = dynkin_diagram(LieType.of("E7"))
        assert classify_subdiagram(d, {2, 3, 4, 5}).render() == "D_4"

    def test_full_e8(self):
        d = dynkin_diagram(LieType.of("E8"))
        assert classify_subdiagram(d, set(range(1, 9))).render() == "E_8"

    def test_all_subsets_terminate(self):
        for family in ("E6", "E7"):
            t = LieType.of(family)
            d = dynkin_diagram(t)
            nodes = set(range(1, t.rank + 1))
            for mask in range(1 << t.rank):
                kept = {i + 1 for i in range(t.rank) if mask >> i & 1}
                classify_subdiagram(d, nodes - kept)

    def test_rejects_unknown_nodes(self):
        d = dynkin_diagram(LieType.of("E6"))
        with pytest.raises(InputError):
            classify_subdiagram(d, {9})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition(5), "partition must be iterable, got int 5"),
        (lambda: SubsetJ(5), "subset must be iterable, got int 5"),
        (lambda: IntMatrix([1]), "matrix row must be iterable, got int 1"),
        (lambda: LieType(None, 3), "Lie family must be a str, got NoneType None"),
        (lambda: LieType.of(None), "Lie family must be a str, got NoneType None"),
        (lambda: TableauPermutation(5), "permutation must be iterable, got int 5"),
        (lambda: LabeledDiagram(Partition((1,)), 5), "diagram rows must be iterable, got int 5"),
        (lambda: LabeledDiagram(5, ((1,),)), "diagram shape must be a Partition, got int 5"),
        (lambda: ComponentLabel(5), "component label must be iterable, got int 5"),
        (lambda: ComponentLabel((("A", "x"),)), "summand rank must be an int, got str x"),
        (lambda: DynkinDiagram(5, frozenset()), "nodes must be iterable, got int 5"),
        (lambda: DynkinDiagram((1, 2), 5), "edges must be iterable, got int 5"),
        (
            lambda: DynkinDiagram((1, 2), {(1, 2, 3)}),
            "edge (1, 2, 3) not between distinct nodes",
        ),
        (
            lambda: OrbitRecord(
                "x", 5, FiniteGroupDescriptor("trivial"), FiniteGroupDescriptor("trivial")
            ),
            "J sets must be iterable, got int 5",
        ),
        (lambda: FiniteGroupDescriptor([1]), "group kind must be a str, got list [1]"),
        (lambda: FiniteGroupDescriptor.cyclic("3"), "cyclic order must be an int, got str 3"),
        (
            lambda: FiniteGroupDescriptor.elementary_abelian_2(None),
            "exponent must be an int, got NoneType None",
        ),
        (
            # A triangle on the three distinct nodes: the repeat is named, not the shape.
            lambda: DynkinDiagram((1, 1, 2, 3), {(1, 2), (2, 3), (1, 3)}),
            "diagram nodes must be distinct: (1, 1, 2, 3)",
        ),
        (
            lambda: OrbitRecord("x", ((1,),), None, None),
            "z_orbit must be a FiniteGroupDescriptor, got NoneType None",
        ),
        (
            lambda: OrbitRecord("x", ((1,),), FiniteGroupDescriptor("trivial"), 2),
            "pi1 must be a FiniteGroupDescriptor, got int 2",
        ),
        (
            lambda: OrbitRecord(
                None, ((1,),), FiniteGroupDescriptor("trivial"), FiniteGroupDescriptor("trivial")
            ),
            "bala_carter must be a str, got NoneType None",
        ),
        (
            lambda: representative_matrix("A3", SubsetJ(())),
            "Lie type must be a LieType, got str A3",
        ),
        (
            lambda: representative_matrix(None, SubsetJ(())),
            "Lie type must be a LieType, got NoneType None",
        ),
        (
            lambda: representative_matrix(LieType("A", 3), (1,)),
            "subset must be a SubsetJ, got tuple (1,)",
        ),
        (
            lambda: representative_matrix(LieType("A", 3), [1]),
            "subset must be a SubsetJ, got list [1]",
        ),
    ],
    ids=[
        "Partition", "SubsetJ", "IntMatrix", "LieType", "LieType.of",
        "TableauPermutation", "LabeledDiagram-rows", "LabeledDiagram-shape",
        "ComponentLabel", "ComponentLabel-rank", "DynkinDiagram-nodes", "DynkinDiagram-edges",
        "DynkinDiagram-edge", "OrbitRecord", "FiniteGroupDescriptor",
        "FiniteGroupDescriptor.cyclic", "FiniteGroupDescriptor.elementary_abelian_2",
        "DynkinDiagram-repeated-node", "OrbitRecord-z_orbit",
        "OrbitRecord-pi1", "OrbitRecord-bala_carter",
        "representative_matrix-str", "representative_matrix-None",
        "representative_matrix-tuple", "representative_matrix-list",
    ],
)
def test_constructors_refuse_a_value_of_the_wrong_kind(build, message):
    with pytest.raises(InputError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FiniteGroupDescriptor.cyclic(0), "cyclic order must be >= 1, got 0"),
        (lambda: FiniteGroupDescriptor.elementary_abelian_2(-1), "exponent must be >= 0, got -1"),
        (lambda: FiniteGroupDescriptor.central_extension_2(-1), "exponent must be >= 0, got -1"),
        (lambda: FiniteGroupDescriptor("cyclic", 1), "cyclic parameter must be >= 2, got 1"),
        (
            lambda: FiniteGroupDescriptor("elementary_abelian_2", 0),
            "elementary_abelian_2 parameter must be >= 1, got 0",
        ),
        (
            lambda: FiniteGroupDescriptor("central_extension_2", -1),
            "central_extension_2 parameter must be >= 0, got -1",
        ),
        (lambda: FiniteGroupDescriptor("cyclic"), "kind cyclic needs a parameter"),
        (lambda: FiniteGroupDescriptor("klein_four", 2), "kind klein_four takes no parameter"),
    ],
    ids=[
        "cyclic", "elementary_abelian_2", "central_extension_2", "cyclic-kind",
        "elementary_abelian_2-kind", "central_extension_2-kind", "missing", "extra",
    ],
)
def test_group_descriptors_name_a_parameter_out_of_range(build, message):
    with pytest.raises(InputError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LieType(5, 3), "Lie family must be a str, got int 5"),
        (lambda: LieType.of(None), "Lie family must be a str, got NoneType None"),
        (lambda: FiniteGroupDescriptor(5), "group kind must be a str, got int 5"),
        (
            lambda: OrbitRecord(
                ("A_1",), ((1,),), FiniteGroupDescriptor("trivial"),
                FiniteGroupDescriptor("trivial"),
            ),
            "bala_carter must be a str, got tuple ('A_1',)",
        ),
    ],
    ids=["LieType", "LieType.of", "FiniteGroupDescriptor", "OrbitRecord"],
)
def test_str_fields_refuse_a_value_that_is_not_a_str(build, message):
    with pytest.raises(InputError) as caught:
        build()
    assert str(caught.value) == message


def test_a_str_subclass_builds_the_plain_str_value():
    class Label(str):
        pass

    t = LieType(Label("D"), 4)
    assert t == LieType("D", 4) and hash(t) == hash(LieType("D", 4))
    assert LieType.of(Label("e6")) == LieType.of("E6")
    assert FiniteGroupDescriptor(Label("klein_four")) == FiniteGroupDescriptor("klein_four")


E6_DIAGRAM = dynkin_diagram(LieType.of("E6"))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: syt_count(None), "partition must be a Partition, got NoneType None"),
        (lambda: conjugate_heights((3, 1)), "partition must be a Partition, got tuple (3, 1)"),
        (lambda: dynkin_diagram("E6"), "Lie type must be a LieType, got str E6"),
        (
            lambda: classify_subdiagram(None, [1]),
            "diagram must be a DynkinDiagram, got NoneType None",
        ),
        (lambda: classify_subdiagram(E6_DIAGRAM, 5), "kept nodes must be iterable, got int 5"),
        (
            lambda: classify_subdiagram(E6_DIAGRAM, [9]),
            "kept nodes {9} are not diagram nodes",
        ),
        (
            lambda: classify_subdiagram(E6_DIAGRAM, [[1]]),
            "kept nodes must be hashable, got list [[1]]",
        ),
        (lambda: center_fiber("A", (1,)), "Lie type must be a LieType, got str A"),
        (
            lambda: orbit_partition(LieType("A", 3), (1,)),
            "subset must be a SubsetJ, got tuple (1,)",
        ),
        (
            lambda: fundamental_groups(LieType("C", 2), [2, 2]),
            "partition must be a Partition, got list [2, 2]",
        ),
        (
            lambda: orbit_dimension_type_a(3.0, Partition([2, 2])),
            "rank must be an int, got float 3.0",
        ),
    ],
    ids=[
        "syt_count", "conjugate_heights", "dynkin_diagram", "classify_subdiagram-diagram",
        "classify_subdiagram-kept", "classify_subdiagram-unknown", "classify_subdiagram-unhashable",
        "center_fiber", "orbit_partition", "fundamental_groups", "orbit_dimension_type_a",
    ],
)
def test_functions_refuse_an_argument_of_the_wrong_type(call, message):
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == message


def test_unknown_nodes_that_cannot_be_sorted_are_named():
    with pytest.raises(InputError, match="^kept nodes .* are not diagram nodes$") as caught:
        classify_subdiagram(E6_DIAGRAM, [None, "a"])
    assert "None" in str(caught.value) and "'a'" in str(caught.value)


# The values passed to each required positional argument of each public callable.
PROBES = [None, "x", 1.5, True, -1, 5, object(), (1,)]

# Public functions that do not check their argument types yet (ROADMAP item 8).
NOT_YET_GUARDED = {"kernel_check"}


def required_arity(obj) -> int:
    """How many arguments a call must pass: a plain record takes one per ``__slots__`` field."""
    if isinstance(obj, type) and obj.__init__ is Value.__init__:
        return len(obj.__slots__)
    parameters = inspect.signature(obj).parameters.values()
    return sum(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)


def public_callables():
    # The exceptions in __all__ are what the contract raises, not what it guards.
    for name in sorted(nilorbits.__all__):
        target = getattr(nilorbits, name)
        if isinstance(target, type) and issubclass(target, Exception):
            continue
        skip = pytest.mark.skip(reason="argument types not checked yet")
        yield pytest.param(name, marks=[skip] if name in NOT_YET_GUARDED else [])


def test_every_unguarded_name_is_public():
    assert NOT_YET_GUARDED <= set(nilorbits.__all__)


@pytest.mark.parametrize("name", public_callables())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_public_callables_return_or_refuse_their_input(name, data):
    target = getattr(nilorbits, name)
    args = [data.draw(st.sampled_from(PROBES)) for _ in range(required_arity(target))]
    try:
        target(*args)
    except (InputError, ResourceBoundError):
        pass
