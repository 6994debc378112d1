"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Budgets are wall-clock upper bounds on the computation
they wrap; a warm-up call outside the timed block keeps interpreter
start-up effects out of the tight budgets.
"""

import math
import time
from contextlib import contextmanager

from nilorbits.checks import (
    check_formula_oracle,
    check_kernel_identity,
    check_paving_identities,
    check_tables,
    classical_sweep,
    run_all,
)
from nilorbits.core import LieType, Partition, partitions_of, syt_count
from nilorbits.decomposition import summand_report
from nilorbits.orbits import orbit_dimension_type_a
from nilorbits.paving import (
    enumerate_cells,
    labeled_diagrams,
    max_cell_dimension,
    phi_w,
    phi_w_x,
)
from nilorbits.tables import records, validate_tables


@contextmanager
def criterion(number, name, budget_ms):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = (time.perf_counter() - start) * 1000
        print("ACCEPTANCE %d %s: FAIL (%.3f ms)" % (number, name, elapsed))
        raise
    elapsed = (time.perf_counter() - start) * 1000
    ok = elapsed < budget_ms
    print(
        "ACCEPTANCE %d %s: %s (%.3f ms, budget %.0f ms)"
        % (number, name, "PASS" if ok else "FAIL", elapsed, budget_ms)
    )
    assert ok, "criterion %d exceeded its %.0f ms budget: %.3f ms" % (
        number,
        budget_ms,
        elapsed,
    )


def test_criterion_1_staircase_labelings():
    p = Partition((2, 2, 1))
    labeled_diagrams(p)  # warm-up
    with criterion(1, "staircase labelings and pair matrices", 1.0):
        tym, std, sigma = labeled_diagrams(p)
        assert tym.rows == ((3, 5), (2, 4), (1,))
        assert std.rows == ((1, 2), (3, 4), (5,))
        assert sigma.cycle_notation() == "(1 3 2 5)"
        assert std.render_matrix() == "E_{1,2} + E_{3,4}"
        assert tym.render_matrix() == "E_{2,4} + E_{3,5}"


def test_criterion_2_root_sets_and_dimensions():
    p = Partition((3, 3, 1))
    labeled_diagrams(p)  # warm-up
    with criterion(2, "root sets and dimensions for [3,3,1]", 10.0):
        tym, _, sigma = labeled_diagrams(p)
        assert frozenset(tym.pairs()) == frozenset({(2, 4), (3, 5), (4, 6), (5, 7)})
        expected_sigma = frozenset(
            {
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
                (1, 6),
                (1, 7),
                (2, 3),
                (2, 5),
                (2, 7),
                (4, 5),
                (4, 7),
                (6, 7),
            }
        )
        assert phi_w(sigma) == expected_sigma
        expected_sigma_x = frozenset(
            {(1, 4), (1, 5), (1, 6), (1, 7), (2, 5), (2, 7), (4, 7)}
        )
        assert phi_w_x(sigma, p) == expected_sigma_x
        assert max_cell_dimension(p) == 5
        assert orbit_dimension_type_a(6, p) == 32
        # the cone has the dimension of the dense principal orbit
        assert orbit_dimension_type_a(6, Partition((7,))) == 42


def test_criterion_3_formula_oracle_equivalence():
    with criterion(3, "formula-oracle equivalence, ranks up to 7", 5000.0):
        result = check_formula_oracle(classical_sweep(7))
        assert result.checked == 1006
        assert result.failures == ()


def test_criterion_4_kernel_identity():
    with criterion(4, "kernel identity, ranks up to 10", 1000.0):
        result = check_kernel_identity(classical_sweep(10))
        assert result.checked == 8174
        assert result.failures == ()


def test_criterion_5_paving_identities():
    with criterion(5, "paving identities for all partitions of m <= 8", 30000.0):
        result = check_paving_identities(max_total=8)
        assert result.checked == 66
        assert result.failures == ()
        # spot-check the identity family directly on one shape per size
        for m in range(1, 9):
            p = next(iter(partitions_of(m)))
            paving = enumerate_cells(p)
            expected = math.factorial(m)
            for row in p.parts:
                expected //= math.factorial(row)
            assert len(paving.cells) == expected
            d_x = max_cell_dimension(p)
            top = sum(len(suffixes) for _, suffixes in paving.cells.by_dim[d_x])
            assert top == syt_count(p)
            n = m - 1
            assert n * (n + 1) - 2 * d_x == orbit_dimension_type_a(n, p)


def test_criterion_6_exceptional_tables():
    validate_tables(LieType.of("E6"))  # warm-up
    with criterion(6, "E6/E7 table validation", 100.0):
        e6 = validate_tables(LieType.of("E6"))
        assert all(c.ok for c in e6)
        assert e6[0].checked == 64
        assert len(records(LieType.of("E6"))) == 17
        e7 = validate_tables(LieType.of("E7"))
        assert all(c.ok for c in e7)
        assert e7[0].checked == 128


def test_criterion_7_decomposition_report():
    summand_report(3)  # warm-up
    with criterion(7, "summand report at rank 3", 1.0):
        report = summand_report(3)
        c_by_partition = {r.partition.parts: r.c for r in report}
        assert c_by_partition == {
            (4,): 4,
            (3, 1): 1,
            (2, 2): 2,
            (2, 1, 1): 1,
            (1, 1, 1, 1): 1,
        }
        assert sum(len(r.characters) for r in report) == 9
        assert all(0 in r.characters for r in report)


def test_criterion_8_non_desk_verifiable_disclosure():
    """The sheaf-level statements have no desk-checkable output of their own.

    What is checkable is their combinatorial shadow: the paving identities,
    the summand report, and the orbit tables.  This test pins the
    disclosure by requiring all three shadow suites to be part of the
    standard verification run and to pass.
    """
    with criterion(8, "combinatorial shadows cover the geometric layer", 60000.0):
        results = {r.name: r for r in run_all(max_rank=6)}
        for shadow in ("paving-identities", "decomposition-report", "table-validation"):
            assert shadow in results
            assert results[shadow].ok


def test_criterion_9_summaries_of_twelve():
    # Packed counts, one shift and add per move: about 0.16 s on a 2-vCPU
    # Xeon under Python 3.11, where a list of ints per state took 0.75-0.81 s.
    shapes = list(partitions_of(12))
    enumerate_cells(shapes[0], cells=False)  # warm-up
    with criterion(9, "summaries of all 77 partitions of 12", 500.0):
        total = sum(sum(enumerate_cells(p, cells=False).poincare) for p in shapes)
        assert len(shapes) == 77
        assert total == sum(
            math.factorial(12) // math.prod(map(math.factorial, p.parts)) for p in shapes
        )
