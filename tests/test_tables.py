import re

import pytest

from nilorbits.core import (
    DataIntegrityError,
    DynkinDiagram,
    InputError,
    LieType,
    SubsetJ,
    UnsupportedFamilyError,
)
from nilorbits.orbits import FiniteGroupDescriptor
from nilorbits.tables import (
    OrbitRecord,
    dump_tsv,
    records,
    records_as_dicts,
    table_lookup,
    validate_records,
    validate_tables,
)

E6 = LieType.of("E6")
E7 = LieType.of("E7")


class TestLookup:
    def test_e6_two_a2(self):
        record = table_lookup(E6, SubsetJ((2, 4)))
        assert record.bala_carter == "2A_2"
        assert record.z_orbit == FiniteGroupDescriptor.cyclic(3)
        assert record.pi1 == FiniteGroupDescriptor.cyclic(3)

    def test_e7_decorated_label(self):
        record = table_lookup(E7, SubsetJ((1, 3, 4, 6)))
        assert record.bala_carter == "(3A_1)''"
        assert record.z_orbit.order == 2
        assert record.pi1.order == 2

    def test_e6_empty_set_is_principal(self):
        record = table_lookup(E6, SubsetJ(()))
        assert record.bala_carter == "E_6"
        assert record.z_orbit == FiniteGroupDescriptor.cyclic(3)

    def test_every_subset_has_a_record(self):
        for t in (E6, E7):
            for mask in range(1 << t.rank):
                j = SubsetJ(tuple(i + 1 for i in range(t.rank) if mask >> i & 1))
                table_lookup(t, j)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            table_lookup(E6, SubsetJ((7,)))

    def test_rejects_untabulated_family(self):
        for t in (LieType.of("E8"), LieType("A", 3), LieType("D", 4)):
            message = "no embedded orbit table for family %s (only E6, E7)" % t.family
            with pytest.raises(UnsupportedFamilyError, match=re.escape(message)):
                table_lookup(t, SubsetJ(()))


class TestRecordShape:
    def test_e6_record_count(self):
        assert len(records(E6)) == 17

    def test_subset_totals(self):
        assert sum(len(r.j_sets) for r in records(E6)) == 64
        assert sum(len(r.j_sets) for r in records(E7)) == 128

    def test_prime_decorations_only_on_known_e7_labels(self):
        assert not any("'" in r.bala_carter for r in records(E6))
        decorated = {r.bala_carter.split(")")[0].lstrip("(") for r in records(E7) if "'" in r.bala_carter}
        assert decorated == {"3A_1", "A_3 + A_1", "A_5"}

    def test_base_label_strips_decoration(self):
        record = table_lookup(E7, SubsetJ((1, 3)))
        assert record.bala_carter == "(A_5)''"
        assert record.base_label == "A_5"

    def test_a_group_derivation(self):
        # Z trivial: A is all of pi1; Z = pi1: A collapses
        s2_record = table_lookup(E7, SubsetJ((1, 5)))
        assert s2_record.pi1 == FiniteGroupDescriptor("symmetric_2")
        assert s2_record.a_group == FiniteGroupDescriptor("symmetric_2")
        z2_record = table_lookup(E7, SubsetJ((4,)))
        assert z2_record.a_group == FiniteGroupDescriptor("trivial")

    def test_z_divides_pi1(self):
        for t in (E6, E7):
            for record in records(t):
                assert record.pi1.order % record.z_orbit.order == 0


class TestValidation:
    def test_e6_all_pass(self):
        checks = validate_tables(E6)
        assert all(c.ok for c in checks)
        assert [c.name for c in checks] == [
            "power-set-partition",
            "z-column-agreement",
            "subdiagram-labels",
            "component-group-quotient",
        ]
        assert [c.checked for c in checks] == [64, 64, 64, 17]

    def test_e7_all_pass(self):
        checks = validate_tables(E7)
        assert all(c.ok for c in checks)
        assert [c.checked for c in checks] == [128, 128, 128, 32]

    def test_validation_builds_no_adjacency(self, monkeypatch):
        # Each J's induced subgraph comes from the diagram's edges; the one
        # diagram is built trusted, so the validating build, which classifies
        # the whole tree, never runs.
        calls = []
        validated = DynkinDiagram.__init__

        def counted(diagram, *args):
            calls.append(args)
            validated(diagram, *args)

        monkeypatch.setattr(DynkinDiagram, "__init__", counted)
        assert all(c.ok for c in validate_tables(E7))
        assert calls == []

    def test_missing_subset_is_named(self):
        doctored = []
        for record in records(E6):
            if record.bala_carter == "A_4":
                kept = tuple(j for j in record.j_sets if j.elements != (1, 2))
                doctored.append(
                    OrbitRecord(
                        bala_carter=record.bala_carter,
                        j_sets=kept,
                        z_orbit=record.z_orbit,
                        pi1=record.pi1,
                    )
                )
            else:
                doctored.append(record)
        checks = validate_records(E6, doctored)
        assert not all(c.ok for c in checks)
        partition_check = checks[0]
        assert any("{1,2} missing" in f for f in partition_check.failures)

    def test_corrupted_z_column_detected(self):
        doctored = []
        for record in records(E6):
            if record.bala_carter == "2A_2":
                doctored.append(
                    OrbitRecord(
                        bala_carter=record.bala_carter,
                        j_sets=record.j_sets,
                        z_orbit=FiniteGroupDescriptor("trivial"),
                        pi1=record.pi1,
                    )
                )
            else:
                doctored.append(record)
        checks = validate_records(E6, doctored)
        failures = [f for c in checks for f in c.failures]
        assert any("Z mismatch" in f for f in failures)

    def test_corrupted_label_detected(self):
        doctored = []
        for record in records(E6):
            if record.bala_carter == "D_4":
                doctored.append(
                    OrbitRecord(
                        bala_carter="A_4",
                        j_sets=record.j_sets,
                        z_orbit=record.z_orbit,
                        pi1=record.pi1,
                    )
                )
            else:
                doctored.append(record)
        checks = validate_records(E6, doctored)
        failures = [f for c in checks for f in c.failures]
        assert any("label mismatch" in f for f in failures)

    def test_label_text_must_be_canonical(self):
        # The label is compared as text, so a reordered sum is a mismatch.
        doctored = [
            OrbitRecord("A_1 + A_2", r.j_sets, r.z_orbit, r.pi1)
            if r.bala_carter == "A_2 + A_1" else r
            for r in records(E6)
        ]
        labels = validate_records(E6, doctored)[2]
        assert labels.name == "subdiagram-labels"
        assert len(labels.failures) == 10
        assert labels.failures[0] == (
            "label mismatch at J={1, 2, 4}: complement classifies as A_2 + A_1,"
            " record says 'A_1 + A_2'"
        )

    def test_out_of_range_subset_is_reported_not_raised(self):
        # The Z rule would refuse J = {7} in rank 6, so that J is skipped by the
        # Z and label checks after the partition check has named it.
        first, *rest = records(E6)
        doctored = [
            OrbitRecord(
                first.bala_carter,
                first.j_sets + (SubsetJ((7,)),),
                first.z_orbit,
                first.pi1,
            ),
            *rest,
        ]
        checks = validate_records(E6, doctored)
        assert not all(c.ok for c in checks)
        assert [(c.name, c.checked, c.failures) for c in checks] == [
            ("power-set-partition", 64, ("subset {7} is out of range for rank 6",)),
            ("z-column-agreement", 64, ()),
            ("subdiagram-labels", 64, ()),
            ("component-group-quotient", 17, ()),
        ]

    def test_record_requires_j_sets(self):
        with pytest.raises(DataIntegrityError):
            OrbitRecord(
                bala_carter="A_1",
                j_sets=(),
                z_orbit=FiniteGroupDescriptor("trivial"),
                pi1=FiniteGroupDescriptor("trivial"),
            )


class TestDump:
    def test_tsv_shape(self):
        lines = dump_tsv(E6).splitlines()
        assert len(lines) == 17
        label, j_text, z, pi1 = lines[0].split("\t")
        assert label == "Triv."
        assert j_text == "1,2,3,4,5,6"
        assert (z, pi1) == ("1", "1")

    def test_tsv_empty_set_marker(self):
        last = dump_tsv(E6).splitlines()[-1]
        assert last.split("\t")[1] == "-"

    def test_json_mirror(self):
        dicts = records_as_dicts(E7)
        assert len(dicts) == len(records(E7))
        first = dicts[0]
        assert set(first) == {"bala_carter", "base_label", "j_sets", "z_orbit", "pi1", "a_group"}

    def test_dump_deterministic(self):
        assert dump_tsv(E7) == dump_tsv(E7)
        assert records_as_dicts(E6) == records_as_dicts(E6)


# The six table entry points; all but validate_records go through records.
TABLE_ENTRY_POINTS = {
    "records": records,
    "records_as_dicts": records_as_dicts,
    "dump_tsv": dump_tsv,
    "validate_tables": validate_tables,
    "table_lookup": lambda t: table_lookup(t, SubsetJ(())),
    "validate_records": lambda t: validate_records(t, ()),
}


@pytest.mark.parametrize("junk", ["E6", None], ids=repr)
@pytest.mark.parametrize("name", sorted(TABLE_ENTRY_POINTS))
def test_table_entry_points_refuse_a_lie_type_of_the_wrong_type(name, junk):
    with pytest.raises(InputError, match="^Lie type must be a LieType, got "):
        TABLE_ENTRY_POINTS[name](junk)


@pytest.mark.parametrize("junk", [(2, 4), None], ids=repr)
def test_table_lookup_refuses_a_subset_of_the_wrong_type(junk):
    with pytest.raises(InputError, match="^subset must be a SubsetJ, got "):
        table_lookup(E6, junk)
