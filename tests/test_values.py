"""Value semantics of the immutable types built on ``core.Value``, and their trusted builds."""

import copy
import pickle
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits import checks
from nilorbits.core import (
    FAMILIES,
    CheckResult,
    ComponentLabel,
    DataIntegrityError,
    DynkinDiagram,
    InputError,
    LieType,
    Partition,
    SubsetJ,
    all_subsets,
    classify_subdiagram,
    conjugate_heights,
    dynkin_diagram,
    partitions_of,
    subset_of_mask,
)
from nilorbits.decomposition import SummandRecord
from nilorbits.jordan import (
    IntMatrix,
    _root_sum_rows,
    _root_vectors,
    _simple_root_entries,
    partition_from_ranks,
    representative_matrix,
)
from nilorbits.orbits import (
    FiniteGroupDescriptor,
    KernelReport,
    center_fiber,
    fundamental_groups,
    orbit_partition,
)
from nilorbits.paving import LabeledDiagram, TableauPermutation, labeled_diagrams
from nilorbits.tables import OrbitRecord
from test_jordan import matrix, strictly_upper

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
        "A1", (SubsetJ((2,)), SubsetJ((1,))),
        FiniteGroupDescriptor("trivial"), FiniteGroupDescriptor("trivial"),
    ),
    "IntMatrix": lambda: IntMatrix([[0, 1], [0, 0]]),
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
    assert SummandRecord(Partition((1,)), 0, 0, 1, (0,)).characters == (0,)
    # Validation and normalisation still run on construction.
    assert Partition((1, 3, 1)).parts == (3, 1, 1)
    assert SubsetJ((3, 1)).elements == (1, 3)
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        SubsetJ((2, 2))


# Each validating constructor refuses an entry whose type is not int instead of truncating it.
NON_INT_ENTRIES = {
    "Partition": (lambda: Partition((2.7, 1)), "partition part must be an int, got float 2.7"),
    "SubsetJ": (lambda: SubsetJ((1.9,)), "subset element must be an int, got float 1.9"),
    "TableauPermutation": (
        lambda: TableauPermutation((2, "1")), "permutation entry must be an int, got str 1"
    ),
    "IntMatrix": (lambda: IntMatrix([[1.9]]), "matrix entry must be an int, got float 1.9"),
    "IntMatrix bool entry": (
        lambda: IntMatrix([[0, True], [0, 0]]),
        "matrix entry must be an int, got bool True",
    ),
    "FiniteGroupDescriptor": (
        lambda: FiniteGroupDescriptor("cyclic", 2.5),
        "cyclic parameter must be an int, got float 2.5",
    ),
}


@pytest.mark.parametrize("constructor", sorted(NON_INT_ENTRIES))
def test_non_int_entries_are_refused(constructor):
    build, message = NON_INT_ENTRIES[constructor]
    with pytest.raises(InputError) as excinfo:
        build()
    assert str(excinfo.value) == message


# Junk of every kind for one argument: None, a str, a float, a bool, a
# non-iterable object, a negative int, and a malformed nested tuple (or list,
# which cannot be hashed).
_LEAF = st.one_of(st.none(), st.text(max_size=3), st.floats(), st.booleans(), st.integers(-3, 9))
JUNK = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.floats(),
    st.booleans(),
    st.builds(object),
    st.integers(max_value=-1),
    st.recursive(
        _LEAF,
        lambda inner: st.lists(inner, max_size=3).map(tuple) | st.lists(inner, max_size=3),
        max_leaves=6,
    ),
)

# Each constructor of the value types and each FiniteGroupDescriptor factory,
# with a well-formed value for each argument, so that junk in one argument
# reaches the checks that follow the others.
_GROUP = st.sampled_from([FiniteGroupDescriptor("trivial"), FiniteGroupDescriptor("cyclic", 2)])
CONSTRUCTORS = {
    "CheckResult": (CheckResult, [st.just("x"), st.just(1), st.just(())]),
    "ComponentLabel": (ComponentLabel, [st.just((("A", 2), ("D", 4)))]),
    "DynkinDiagram": (DynkinDiagram, [st.just((1, 2, 3)), st.just({(1, 2), (3, 2)})]),
    "FiniteGroupDescriptor": (
        FiniteGroupDescriptor,
        [st.sampled_from(["trivial", "cyclic", "elementary_abelian_2"]), st.integers(0, 3)],
    ),
    "IntMatrix": (IntMatrix, [st.just([[0, 1], [0, 0]])]),
    "KernelReport": (KernelReport, [st.just(2), st.just(4), st.just(2), st.just(True)]),
    "LabeledDiagram": (LabeledDiagram, [st.just(Partition((2, 1))), st.just(((1, 2), (3,)))]),
    "LieType": (LieType, [st.sampled_from(FAMILIES), st.integers(1, 8)]),
    "OrbitRecord": (
        OrbitRecord,
        [st.just("A1"), st.just([(1,), (2,)]), _GROUP, _GROUP],
    ),
    "Partition": (Partition, [st.just((2, 1, 1))]),
    "SubsetJ": (SubsetJ, [st.just((3, 1))]),
    "SummandRecord": (
        SummandRecord,
        [st.just(Partition((2, 2))), st.just(4), st.just(2), st.just(2), st.just((0, 1))],
    ),
    "TableauPermutation": (TableauPermutation, [st.just((2, 3, 1))]),
    "FiniteGroupDescriptor.cyclic": (FiniteGroupDescriptor.cyclic, [st.integers(1, 4)]),
    "FiniteGroupDescriptor.elementary_abelian_2": (
        FiniteGroupDescriptor.elementary_abelian_2, [st.integers(0, 3)]
    ),
    "FiniteGroupDescriptor.central_extension_2": (
        FiniteGroupDescriptor.central_extension_2, [st.integers(0, 3)]
    ),
}


# What a caller reads from a value beyond its fields; a build that accepted
# junk in a field the reading needs fails here.  `tables` writes a record's
# label through json's string escaper, which takes only a str.
DERIVED = {
    "OrbitRecord": lambda record: (record.a_group, encode_basestring_ascii(record.bala_carter))
}


def test_constructor_sweep_covers_every_value_type():
    # MAKERS names the 14 value types of tests/test_hygiene.py::VALUE_TYPES.
    assert {name for name in CONSTRUCTORS if "." not in name} == set(MAKERS)


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_constructors_return_or_raise_input_error_on_junk(name, data):
    build, well_formed = CONSTRUCTORS[name]
    # Junk goes to a drawn set of arguments, often just one, so that each
    # argument's check is reached with the others well-formed.
    indices = st.sampled_from(range(len(well_formed))) if well_formed else st.nothing()
    junk = data.draw(st.sets(indices), label="junk arguments")
    args = [
        data.draw(JUNK if i in junk else arg, label="arg%d" % i)
        for i, arg in enumerate(well_formed)
    ]
    try:
        value = build(*args)
    except InputError:
        return
    except DataIntegrityError as error:
        # A record with no J sets is refused as bad table data, as
        # tests/test_tables.py pins; every other refusal is an InputError.
        assert name == "OrbitRecord" and "carries no J sets" in str(error)
        return
    try:
        DERIVED.get(name, repr)(value)
    except DataIntegrityError as error:
        # A Z column that is neither trivial nor all of pi1 leaves A(O) undefined.
        assert name == "OrbitRecord" and "cannot derive A(O)" in str(error)


def test_int_matrix_dim_is_read_only_and_follows_the_rows():
    m = IntMatrix._trusted(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    assert m.dim == 3 and m == IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(AttributeError):
        m.dim = 2


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


def test_partitions_of_equals_the_validated_build():
    for m in range(13):
        for p in partitions_of(m):
            assert p == Partition(p.parts) and hash(p) == hash(Partition(p.parts))
            assert type(p.parts) is tuple and all(type(v) is int for v in p.parts)


def test_conjugate_equals_the_validated_build(monkeypatch):
    for m in range(13):
        for p in partitions_of(m):
            q = p.conjugate()
            assert q == Partition(conjugate_heights(p)) and hash(q) == hash(Partition(q.parts))
            assert type(q.parts) is tuple and all(type(v) is int for v in q.parts)
    # The two suites that conjugate every partition build no validated one.
    validated = []
    original = Partition.__post_init__

    def counted(self, parts):
        validated.append(parts)
        original(self, parts)

    monkeypatch.setattr(Partition, "__post_init__", counted)
    assert checks.check_conjugate_involution(10).ok and checks.check_syt_symmetry(10).ok
    assert validated == []


def test_labeled_diagrams_equal_the_validated_build():
    checked = 0
    for m in range(1, 11):
        for p in partitions_of(m):
            tym, std, sigma = labeled_diagrams(p)
            for d in (tym, std):
                rebuilt = LabeledDiagram(Partition(p.parts), tuple(map(tuple, d.rows)))
                assert d == rebuilt and hash(d) == hash(rebuilt)
                assert type(d.rows) is tuple and all(type(row) is tuple for row in d.rows)
            assert sigma == TableauPermutation(sigma.one_line)
            assert type(sigma.one_line) is tuple
            checked += 1
    assert checked == 138


def test_partition_from_ranks_equals_the_validated_build():
    sequences = [ranks for c in checks.classical_sweep(7).values() for ranks in c.ranks]
    assert len(sequences) == 1006
    for ranks in sequences:
        p = partition_from_ranks(ranks)
        assert p == Partition(p.parts)
        assert type(p.parts) is tuple and all(type(v) is int for v in p.parts)


def test_representative_matrix_equals_the_validated_build():
    # The validating route: the entry dictionaries merged in index order, built as
    # dense rows by the validating IntMatrix constructor.
    checked = 0
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 7):
            t = LieType(family, rank)
            for j in all_subsets(rank):
                entries = {}
                for i in range(1, rank + 1):
                    if i not in j:
                        entries.update(_simple_root_entries(family, rank, i))
                expected = matrix(t.matrix_dimension, entries)
                m = representative_matrix(t, j)
                assert m == expected and m.dim == expected.dim
                assert all(type(row) is tuple for row in m.rows)
                upper = all(m.rows[r][c] == 0 for r in range(m.dim) for c in range(r + 1))
                assert strictly_upper(m.rows) is upper
                sparse = [[(c, v) for c, v in enumerate(row) if v] for row in expected.rows]
                assert _root_sum_rows(t, j, _root_vectors(t)) == sparse
                checked += 1
    assert checked == 2**7 - 2 + 2 * (2**7 - 4) + 2**7 - 8


def test_shared_center_fibers_equal_fresh_builds():
    fresh = {
        "trivial": FiniteGroupDescriptor("trivial"),
        "cyclic(2)": FiniteGroupDescriptor("cyclic", 2),
        "cyclic(3)": FiniteGroupDescriptor("cyclic", 3),
        "cyclic(4)": FiniteGroupDescriptor("cyclic", 4),
        "klein_four": FiniteGroupDescriptor("klein_four"),
    }
    shared = {}
    types = [LieType(f, r) for f, lo in (("B", 2), ("C", 2), ("D", 3)) for r in range(lo, 7)]
    types += [LieType.of(f) for f in ("E6", "E7", "E8", "F4", "G2")]
    for t in types:
        for j in all_subsets(t.rank):
            z = center_fiber(t, j)
            assert z == fresh[z.label] and hash(z) == hash(fresh[z.label])
            assert shared.setdefault(z.label, z) is z
    assert set(shared) == set(fresh)
    for z in shared.values():
        with pytest.raises(AttributeError):
            z.kind = "cyclic"
        with pytest.raises(AttributeError):
            z.parameter = 5


def test_dynkin_diagrams_equal_the_validated_build():
    types = [LieType("A", r) for r in range(1, 9)] + [LieType("D", r) for r in range(3, 9)]
    for t in types + [LieType.of(f) for f in ("E6", "E7", "E8")]:
        diagram = dynkin_diagram(t)
        rebuilt = DynkinDiagram(diagram.nodes, diagram.edges)
        assert diagram == rebuilt and hash(diagram) == hash(rebuilt)
        assert diagram.nodes == rebuilt.nodes and diagram.edges == rebuilt.edges


def test_classified_labels_equal_the_validated_build():
    checked = 0
    types = [LieType("A", r) for r in range(1, 8)] + [LieType("D", r) for r in range(4, 8)]
    types += [LieType.of(f) for f in ("E6", "E7", "E8")]
    for t in types:
        diagram = dynkin_diagram(t)
        for j in all_subsets(t.rank):
            label = classify_subdiagram(diagram, set(diagram.nodes) - set(j.elements))
            rebuilt = ComponentLabel(label.summands)
            assert label == rebuilt and hash(label) == hash(rebuilt)
            assert type(label.summands) is tuple
            checked += 1
    assert checked == 2**8 - 2 + 2**8 - 16 + 2**6 + 2**7 + 2**8


def test_type_a_fibers_and_fundamental_groups_equal_the_validated_build():
    # Each group is the one its validating constructor builds from the same fields.
    checked = 0
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 9):
            t = LieType(family, rank)
            for j in all_subsets(rank):
                groups = fundamental_groups(t, orbit_partition(t, j))
                if family == "A":
                    groups += (center_fiber(t, j),)
                for g in groups:
                    rebuilt = FiniteGroupDescriptor(g.kind, g.parameter)
                    assert g == rebuilt and hash(g) == hash(rebuilt)
                    checked += 1
    assert checked == 3 * (2**9 - 2) + 2 * (2 * (2**9 - 4) + 2**9 - 8)
