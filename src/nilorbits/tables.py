"""Embedded orbit tables for E6 and E7, with cross-validation.

Each record ties a Bala-Carter label to the index subsets J whose torus
orbits land in that adjoint orbit, together with the covering-fiber
group Z(O) and the fundamental group pi1(O).  Prime decorations on a
label (e.g. (3A_1)'') distinguish different orbits sharing a Levi type;
they are data keyed by J, not something computable from the sub-diagram
alone.  The label with its parentheses and primes stripped is the base
label, written as ``ComponentLabel.render`` writes the Levi type.

``validate_tables`` checks the embedded data four ways in one walk over
the (record, J) pairs: the J-sets partition the full power set, the Z
column agrees with the per-family case rule, every J's complement
sub-diagram classifies to a label that renders as the record's base
label, and the component-group order divides out consistently.  Any
other Lie family, a classical one included, raises ``core.UnsupportedFamilyError``.
"""

from __future__ import annotations

from .core import (
    FAMILIES,
    CheckResult,
    DataIntegrityError,
    LieType,
    SubsetJ,
    UnsupportedFamilyError,
    Value,
    all_subsets,
    check_subset_range,
    classify_subdiagram,
    dynkin_diagram,
    require_instance,
    require_iterable,
)
from .orbits import FiniteGroupDescriptor, center_fiber

# Column codes: "1" trivial, "2" cyclic of order 2, "3" cyclic of order 3,
# "S2" the order-two component group.  J sets are digit strings.

_E6_ROWS = (
    ("Triv.", "1", "1", ("123456",)),
    ("A_1", "1", "1", ("12345", "12346", "12356", "12456", "13456", "23456")),
    (
        "2A_1",
        "1",
        "1",
        ("1235", "1245", "1246", "1345", "1346", "1456", "2345", "2346", "2356", "3456"),
    ),
    ("3A_1", "1", "1", ("145", "146", "235", "345", "346")),
    ("A_2", "1", "S2", ("1234", "1236", "1256", "1356", "2456")),
    (
        "A_2 + A_1",
        "1",
        "1",
        ("124", "125", "134", "135", "234", "236", "245", "246", "356", "456"),
    ),
    ("2A_2", "3", "3", ("24",)),
    ("A_2 + 2A_1", "1", "1", ("14", "34", "35", "45", "46")),
    ("A_3", "1", "1", ("123", "126", "136", "156", "256")),
    ("2A_2 + A_1", "3", "3", ("4",)),
    ("A_3 + A_1", "1", "1", ("15", "23", "25", "36")),
    ("A_4", "1", "1", ("12", "13", "26", "56")),
    ("D_4", "1", "1", ("16",)),
    ("A_4 + A_1", "1", "1", ("3", "5")),
    ("A_5", "3", "3", ("2",)),
    ("D_5", "1", "1", ("1", "6")),
    ("E_6", "3", "3", ("",)),
)

_E7_ROWS = (
    ("Triv.", "1", "1", ("1234567",)),
    (
        "A_1",
        "1",
        "1",
        ("123456", "123457", "123467", "123567", "124567", "134567", "234567"),
    ),
    (
        "2A_1",
        "1",
        "1",
        (
            "12346",
            "12356",
            "12357",
            "12456",
            "12457",
            "12467",
            "13456",
            "13457",
            "13467",
            "14567",
            "23456",
            "23457",
            "23467",
            "23567",
            "34567",
        ),
    ),
    ("(3A_1)''", "2", "2", ("1346",)),
    (
        "(3A_1)'",
        "1",
        "1",
        ("1246", "1456", "1457", "1467", "2346", "2356", "2357", "3456", "3457", "3467"),
    ),
    ("A_2", "1", "S2", ("12345", "12347", "12367", "12567", "13567", "24567")),
    ("4A_1", "2", "2", ("146", "346")),
    (
        "A_2 + A_1",
        "1",
        "S2",
        (
            "1235",
            "1236",
            "1245",
            "1247",
            "1256",
            "1257",
            "1345",
            "1347",
            "1356",
            "1357",
            "2345",
            "2347",
            "2367",
            "2456",
            "2457",
            "2467",
            "3567",
            "4567",
        ),
    ),
    (
        "A_2 + 2A_1",
        "1",
        "1",
        ("145", "147", "235", "236", "246", "345", "347", "356", "357", "456", "457", "467"),
    ),
    ("2A_2", "1", "1", ("125", "135", "245", "247")),
    ("A_2 + 3A_1", "2", "2", ("46",)),
    ("A_3", "1", "1", ("1234", "1237", "1267", "1367", "1567", "2567")),
    ("(A_3 + A_1)''", "2", "2", ("134", "136")),
    ("2A_2 + A_1", "1", "1", ("35", "45", "47")),
    (
        "(A_3 + A_1)'",
        "1",
        "1",
        ("124", "126", "156", "157", "234", "237", "256", "257", "367"),
    ),
    ("A_3 + 2A_1", "2", "2", ("14", "34", "36")),
    ("D_4", "1", "1", ("167",)),
    ("A_3 + A_2", "1", "S2", ("15", "24", "25")),
    ("A_3 + A_2 + A_1", "2", "2", ("4",)),
    ("A_4", "1", "S2", ("123", "127", "137", "267", "567")),
    ("(A_5)''", "2", "2", ("13",)),
    ("D_4 + A_1", "2", "2", ("16",)),
    ("A_4 + A_1", "1", "S2", ("23", "26", "37", "56", "57")),
    ("A_4 + A_2", "1", "1", ("5",)),
    ("(A_5)'", "1", "1", ("12", "27")),
    ("A_5 + A_1", "2", "2", ("3",)),
    ("D_5", "1", "1", ("17", "67")),
    ("A_6", "1", "1", ("2",)),
    ("D_5 + A_1", "2", "2", ("6",)),
    ("D_6", "2", "2", ("1",)),
    ("E_6", "1", "1", ("7",)),
    ("E_7", "2", "2", ("",)),
)

_GROUP_CODES = {
    "1": FiniteGroupDescriptor("trivial"),
    "2": FiniteGroupDescriptor.cyclic(2),
    "3": FiniteGroupDescriptor.cyclic(3),
    "S2": FiniteGroupDescriptor("symmetric_2"),
}

class OrbitRecord(Value):
    """One orbit row: label, its J sets, and the two group columns."""

    __slots__ = ("bala_carter", "j_sets", "z_orbit", "pi1")

    def __init__(
        self,
        bala_carter: str,
        j_sets: tuple[SubsetJ, ...],
        z_orbit: FiniteGroupDescriptor,
        pi1: FiniteGroupDescriptor,
    ) -> None:
        require_instance(bala_carter, str, "bala_carter")
        j_sets = tuple(
            sorted(map(SubsetJ, require_iterable(j_sets, "J sets")), key=lambda s: s.elements)
        )
        if not j_sets:
            raise DataIntegrityError("record %r carries no J sets" % (bala_carter,))
        require_instance(z_orbit, FiniteGroupDescriptor, "z_orbit")
        require_instance(pi1, FiniteGroupDescriptor, "pi1")
        Value.__init__(self, bala_carter, j_sets, z_orbit, pi1)

    @property
    def base_label(self) -> str:
        """The Levi type of the orbit: the label without parentheses and primes, e.g. A_5."""
        return self.bala_carter.strip("()'")

    @property
    def a_group(self) -> FiniteGroupDescriptor:
        """A(O) = pi1(O) / Z(O); here Z is trivial or all of pi1."""
        if self.z_orbit.order == 1:
            return self.pi1
        if self.z_orbit.order == self.pi1.order:
            return _GROUP_CODES["1"]
        raise DataIntegrityError(
            "cannot derive A(O) for %r: |Z| = %d, |pi1| = %d"
            % (self.bala_carter, self.z_orbit.order, self.pi1.order)
        )


def _build_records(rows) -> tuple[OrbitRecord, ...]:
    records = []
    for label, z_code, pi1_code, j_strings in rows:
        records.append(
            OrbitRecord(
                bala_carter=label,
                j_sets=[tuple(map(int, text)) for text in j_strings],
                z_orbit=_GROUP_CODES[z_code],
                pi1=_GROUP_CODES[pi1_code],
            )
        )
    return tuple(records)


_RECORDS = {
    "E6": _build_records(_E6_ROWS),
    "E7": _build_records(_E7_ROWS),
}


def _require_table_family(family: str) -> str:
    """``family`` unless it names a Lie family without an embedded table: all but E6 and E7."""
    if family in FAMILIES and family not in _RECORDS:
        raise UnsupportedFamilyError(
            "no embedded orbit table for family %s (only E6, E7)" % family
        )
    return family


def records(t: LieType) -> tuple[OrbitRecord, ...]:
    """All records for E6 or E7, in embedded (dimension-descending) order."""
    return _RECORDS[_require_table_family(require_instance(t, LieType, "Lie type").family)]


def table_lookup(t: LieType, j: SubsetJ) -> OrbitRecord:
    """The unique record whose J sets contain ``j``."""
    table = records(t)
    check_subset_range(t, require_instance(j, SubsetJ, "subset"))
    target = j.elements
    for record in table:
        for j_set in record.j_sets:
            if j_set.elements == target:
                return record
    raise DataIntegrityError("subset %s missing from every %s record" % (j, t.family))


def validate_records(t: LieType, record_list) -> tuple[CheckResult, ...]:
    """Run the four table checks against an explicit record list, each (record, J) pair once.

    A J outside 1..rank fails the power-set partition and skips the Z and
    label checks, so their counts take only the J sets they checked.
    """
    _require_table_family(require_instance(t, LieType, "Lie type").family)
    rank = t.rank
    diagram = dynkin_diagram(t)
    nodes = set(range(1, rank + 1))
    # Each distinct classified label is rendered once, keyed by its summands.
    rendered = {}

    counts: dict[tuple[int, ...], int] = {j.elements: 0 for j in all_subsets(rank)}
    partition_failures = []
    z_failures = []
    label_failures = []
    quotient_failures = []
    for record in record_list:
        base_label = record.base_label
        for j_set in record.j_sets:
            if j_set.elements not in counts:
                partition_failures.append(
                    "subset %s is out of range for rank %d" % (j_set, rank)
                )
                continue
            counts[j_set.elements] += 1
            expected = center_fiber(t, j_set).order
            if expected != record.z_orbit.order:
                z_failures.append(
                    "Z mismatch at J=%s: rule gives order %d, record %r has %d"
                    % (j_set, expected, record.bala_carter, record.z_orbit.order)
                )
            derived = classify_subdiagram(diagram, nodes - set(j_set.elements))
            text = rendered.get(derived.summands)
            if text is None:
                text = rendered[derived.summands] = derived.render()
            if text != base_label:
                label_failures.append(
                    "label mismatch at J=%s: complement classifies as %s, record says %r"
                    % (j_set, text, record.bala_carter)
                )
        if record.pi1.order % record.z_orbit.order:
            quotient_failures.append(
                "record %r: |Z| = %d does not divide |pi1| = %d"
                % (record.bala_carter, record.z_orbit.order, record.pi1.order)
            )
    for subset, seen in counts.items():
        if seen == 0:
            partition_failures.append(
                "subset {%s} missing from every record" % ",".join(map(str, subset))
            )
        elif seen > 1:
            partition_failures.append(
                "subset {%s} appears in %d records" % (",".join(map(str, subset)), seen)
            )

    in_range = sum(counts.values())
    return (
        CheckResult("power-set-partition", len(counts), tuple(partition_failures)),
        CheckResult("z-column-agreement", in_range, tuple(z_failures)),
        CheckResult("subdiagram-labels", in_range, tuple(label_failures)),
        CheckResult("component-group-quotient", len(record_list), tuple(quotient_failures)),
    )


def validate_tables(t: LieType) -> tuple[CheckResult, ...]:
    """Cross-validate the embedded table for E6 or E7: the four checks of ``validate_records``."""
    return validate_records(t, records(t))


def dump_tsv(t: LieType) -> str:
    """One record per line: label, J sets as comma lists, |Z|, |pi1|."""
    lines = []
    for record in records(t):
        j_text = ";".join(
            ",".join(map(str, j.elements)) if j.elements else "-" for j in record.j_sets
        )
        lines.append(
            "%s\t%s\t%d\t%d"
            % (record.bala_carter, j_text, record.z_orbit.order, record.pi1.order)
        )
    return "\n".join(lines)


def records_as_dicts(t: LieType) -> list[dict]:
    """Canonical JSON-ready form mirroring the record fields."""
    out = []
    for record in records(t):
        out.append(
            {
                "bala_carter": record.bala_carter,
                "base_label": record.base_label,
                "j_sets": [list(j.elements) for j in record.j_sets],
                "z_orbit": record.z_orbit.as_json(),
                "pi1": record.pi1.as_json(),
                "a_group": record.a_group.as_json(),
            }
        )
    return out
