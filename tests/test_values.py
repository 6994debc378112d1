"""Value semantics of the immutable types built on ``core.Value``, and their trusted builds."""

import copy
import pickle

import pytest

from nilorbits.core import (
    CheckResult,
    ComponentLabel,
    LieType,
    Partition,
    SubsetJ,
    all_subsets,
    dynkin_diagram,
    subset_of_mask,
)
from nilorbits.decomposition import SummandRecord
from nilorbits.orbits import FiniteGroupDescriptor, KernelReport, orbit_partition
from nilorbits.paving import TableauPermutation, labeled_diagrams
from nilorbits.tables import OrbitRecord, TableValidationReport

# Each builds a fresh instance per call, positionally as the library and tests do.
MAKERS = {
    "CheckResult": lambda: CheckResult("empty", 0, ()),
    "LieType": lambda: LieType("D", 5),
    "Partition": lambda: Partition((1, 3, 1)),
    "SubsetJ": lambda: SubsetJ((3, 1)),
    "DynkinDiagram": lambda: dynkin_diagram(LieType("D", 4)),
    "ComponentLabel": lambda: ComponentLabel((("A", 1), ("A", 2))),
    "FiniteGroupDescriptor": lambda: FiniteGroupDescriptor("cyclic", 3),
    "KernelReport": lambda: KernelReport(2, 4, 2, True),
    "LabeledDiagram": lambda: labeled_diagrams(Partition((2, 1)))[0],
    "TableauPermutation": lambda: TableauPermutation((2, 3, 1)),
    "SummandRecord": lambda: SummandRecord(Partition((2, 2)), 4, 2, 2, (0, 1)),
    "OrbitRecord": lambda: OrbitRecord(
        "A1", ComponentLabel((("A", 1),)), (SubsetJ((2,)), SubsetJ((1,))),
        FiniteGroupDescriptor("trivial"), FiniteGroupDescriptor("trivial"),
    ),
    "TableValidationReport": lambda: TableValidationReport("E6", (CheckResult("x", 1, ()),)),
}


@pytest.fixture(params=sorted(MAKERS))
def make(request):
    return MAKERS[request.param]


def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert type(a).__name__ in MAKERS
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_refuse_assignment_and_have_no_dict(make):
    value = make()
    assert not hasattr(value, "__dict__")
    for field in type(value).__slots__:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_copies_and_pickles_rebuild_equal_values(make):
    value = make()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_equality_holds_within_one_type_only():
    assert Partition((1,)) != SubsetJ((1,))
    assert Partition((2, 1)) != (2, 1)
    assert Partition((2, 1)) != Partition((1, 1, 1))
    assert FiniteGroupDescriptor("cyclic", 3) != FiniteGroupDescriptor("cyclic", 4)
    assert LieType("B", 3) != LieType("C", 3)


def test_positional_and_default_construction():
    empty = CheckResult("empty", 0, ())
    assert (empty.name, empty.checked, empty.failures, empty.ok) == ("empty", 0, (), False)
    assert repr(empty) == "CheckResult(name='empty', checked=0, failures=())"
    assert Partition().parts == () and SubsetJ().elements == ()
    assert FiniteGroupDescriptor("trivial").parameter is None
    assert SummandRecord(Partition((1,)), 0, 0, 1, (0,)).multiplicity_known is False
    # Validation and normalisation still run on construction.
    assert Partition((1, 3, 1)).parts == (3, 1, 1)
    assert SubsetJ((3, 1)).elements == (1, 3)
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        SubsetJ((2, 2))


def test_subset_of_mask_equals_the_validated_build():
    for mask in range(1 << 10):
        trusted = subset_of_mask(mask)
        validated = SubsetJ(tuple(i + 1 for i in range(10) if mask >> i & 1))
        assert trusted == validated and hash(trusted) == hash(validated)
        assert type(trusted.elements) is tuple


def test_orbit_partition_equals_the_validated_build():
    # Partition(parts) sorts and checks the parts, so it equals the trusted
    # build only when that one already held positive ints sorted descending.
    checked = 0
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 9):
            t = LieType(family, rank)
            for j in all_subsets(rank):
                p = orbit_partition(t, j)
                assert p == Partition(p.parts)
                assert type(p.parts) is tuple and all(type(v) is int for v in p.parts)
                checked += 1
    assert checked == 2**9 - 2 + 2 * (2**9 - 4) + 2**9 - 8
