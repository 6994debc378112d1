"""Self-check suites: every library invariant as an executable sweep.

Each suite returns a CheckResult with the number of individual checks it
ran and a list of failure descriptions.  The CLI ``verify`` command runs
them all and exits nonzero if anything failed; the test suite calls the
same functions, so the two surfaces cannot drift apart.
"""

from __future__ import annotations

import math

from .core import (
    CheckResult,
    LieType,
    SubsetJ,
    all_subsets,
    classify_subdiagram,
    conjugate_heights,
    dynkin_diagram,
    partitions_of,
    syt_count,
)
from .decomposition import summand_report
from .jordan import jordan_partition, rank_sequence, representative_matrix
from .orbits import (
    center_fiber,
    fundamental_groups,
    kernel_check,
    orbit_dimension_type_a,
    orbit_partition,
)
from .paving import (
    enumerate_cells,
    labeled_diagrams,
    max_cell_dimension,
    pair_matrix,
    phi_w,
    phi_w_x,
    phi_x,
)
from .tables import records, validate_tables


def _result(name: str, checked: int, failures: list[str]) -> CheckResult:
    return CheckResult(name=name, checked=checked, failures=tuple(failures))


def _classical_ranks(max_rank: int):
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, max_rank + 1):
            yield LieType(family, rank)


def check_conjugate_involution(max_total: int = 10) -> CheckResult:
    """Conjugation preserves the total and is an involution."""
    failures = []
    checked = 0
    for total in range(0, max_total + 1):
        for p in partitions_of(total):
            checked += 1
            heights = conjugate_heights(p)
            if sum(heights) != p.total:
                failures.append("height sum mismatch for %s" % p)
            if p.conjugate().conjugate() != p:
                failures.append("double conjugate differs for %s" % p)
            if any(heights[i] < heights[i + 1] for i in range(len(heights) - 1)):
                failures.append("heights not weakly decreasing for %s" % p)
    return _result("conjugate-involution", checked, failures)


def check_syt_symmetry(max_total: int = 10) -> CheckResult:
    """Standard-filling counts agree between a shape and its conjugate."""
    failures = []
    checked = 0
    for total in range(1, max_total + 1):
        for p in partitions_of(total):
            checked += 1
            if syt_count(p) != syt_count(p.conjugate()):
                failures.append("syt count differs from conjugate for %s" % p)
    return _result("syt-conjugate-symmetry", checked, failures)


def check_subdiagram_classification() -> CheckResult:
    """Every subset of E6/E7 nodes classifies cleanly; two pinned rows agree."""
    failures = []
    checked = 0
    for family in ("E6", "E7"):
        t = LieType.of(family)
        diagram = dynkin_diagram(t)
        nodes = set(range(1, t.rank + 1))
        for j in all_subsets(t.rank):
            checked += 1
            try:
                classify_subdiagram(diagram, nodes - set(j.elements))
            except Exception as exc:  # any failure here is a finding
                failures.append("%s complement of %s raised %r" % (family, j, exc))
    e7 = dynkin_diagram(LieType.of("E7"))
    for kept, expected in (({1, 2, 3, 4, 5, 6}, "E_6"), ({2, 3, 4, 5, 6, 7}, "D_6")):
        checked += 1
        got = classify_subdiagram(e7, kept).render()
        if got != expected:
            failures.append("E7 nodes %s classify as %s, expected %s" % (kept, got, expected))
    return _result("subdiagram-classification", checked, failures)


def check_formula_oracle(max_rank: int = 7) -> CheckResult:
    """Jordan type of the explicit representative equals the closed-form partition."""
    failures = []
    checked = 0
    for t in _classical_ranks(max_rank):
        for j in all_subsets(t.rank):
            checked += 1
            formula = orbit_partition(t, j).partition
            oracle = jordan_partition(representative_matrix(t, j))
            if formula != oracle:
                failures.append(
                    "%s J=%s: formula %s vs oracle %s" % (t, j, formula, oracle)
                )
    return _result("formula-oracle", checked, failures)


def check_oracle_rank_profile(max_rank: int = 5) -> CheckResult:
    """Rank sequences decrease strictly to zero and are convex; type A stays upper triangular."""
    failures = []
    checked = 0
    for t in _classical_ranks(max_rank):
        for j in all_subsets(t.rank):
            checked += 1
            matrix = representative_matrix(t, j)
            ranks = rank_sequence(matrix)
            drops = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
            if any(d < 1 for d in drops):
                failures.append("%s J=%s: rank sequence %s not strictly decreasing" % (t, j, ranks))
            if any(drops[i] < drops[i + 1] for i in range(len(drops) - 1)):
                failures.append("%s J=%s: rank drops %s not convex" % (t, j, drops))
            if t.family == "A" and not matrix.is_strictly_upper():
                failures.append("%s J=%s: representative not strictly upper" % (t, j))
    return _result("oracle-rank-profile", checked, failures)


def check_kernel_identity(max_rank: int = 10) -> CheckResult:
    """|Z(J)| * |A(O)| = |pi1(O)| across families A-D and all subsets."""
    failures = []
    checked = 0
    for t in _classical_ranks(max_rank):
        for j in all_subsets(t.rank):
            checked += 1
            report = kernel_check(t, j)
            if not report.holds:
                failures.append(
                    "%s J=%s: %d * %d != %d"
                    % (t, j, report.zj_order, report.a_order, report.pi1_order)
                )
            if t.family == "A" and report.a_order != 1:
                failures.append("%s J=%s: type A component group not trivial" % (t, j))
    return _result("kernel-identity", checked, failures)


def check_type_a_exactness(max_rank: int = 10) -> CheckResult:
    """In type A the covering fiber is the whole fundamental group."""
    failures = []
    checked = 0
    for rank in range(1, max_rank + 1):
        t = LieType("A", rank)
        for j in all_subsets(rank):
            checked += 1
            zj = center_fiber(t, j).order
            p = orbit_partition(t, j).partition
            pi1, _ = fundamental_groups(t, p)
            if zj != pi1.order:
                failures.append("A%d J=%s: |Z| = %d but |pi1| = %d" % (rank, j, zj, pi1.order))
    return _result("type-a-exactness", checked, failures)


def check_partition_totals(max_rank: int = 10) -> CheckResult:
    """Orbit partitions always sum to the matrix dimension of the family."""
    failures = []
    checked = 0
    for t in _classical_ranks(max_rank):
        for j in all_subsets(t.rank):
            checked += 1
            p = orbit_partition(t, j).partition
            if p.total != t.matrix_dimension:
                failures.append("%s J=%s: total %d != %d" % (t, j, p.total, t.matrix_dimension))
    return _result("partition-totals", checked, failures)


def check_center_divisibility(max_rank: int = 10) -> CheckResult:
    """|Z(J)| divides the order of the simply connected center, all families."""
    failures = []
    checked = 0
    types = list(_classical_ranks(max_rank)) + [
        LieType.of(f) for f in ("E6", "E7", "E8", "F4", "G2")
    ]
    for t in types:
        for j in all_subsets(t.rank):
            checked += 1
            order = center_fiber(t, j).order
            if t.center_order % order:
                failures.append(
                    "%s J=%s: |Z(J)| = %d does not divide center order %d"
                    % (t, j, order, t.center_order)
                )
    return _result("center-divisibility", checked, failures)


def check_full_subset_zero_orbit(max_rank: int = 10) -> CheckResult:
    """J = {1..n} always lands on the zero orbit [1, 1, ...]."""
    failures = []
    checked = 0
    for t in _classical_ranks(max_rank):
        checked += 1
        full = SubsetJ(tuple(range(1, t.rank + 1)))
        p = orbit_partition(t, full).partition
        if p.parts != (1,) * t.matrix_dimension:
            failures.append("%s full J gives %s" % (t, p))
    return _result("full-subset-zero-orbit", checked, failures)


def check_paving_identities(max_total: int = 8) -> CheckResult:
    """Cell count, top-cell count, top dimension, and the distinguished cell.

    For each partition p of m: the paving has m!/prod(row lengths)! cells;
    the number of top-dimensional cells is the standard-filling count; the
    top dimension matches both the column-height formula and half the
    orbit codimension; and the cell at the linking permutation is present
    with exactly that dimension.
    """
    failures = []
    checked = 0
    for m in range(1, max_total + 1):
        for p in partitions_of(m):
            checked += 1
            cells, poincare = enumerate_cells(p)
            expected_count = math.factorial(m)
            for row_len in p.parts:
                expected_count //= math.factorial(row_len)
            if len(cells) != expected_count:
                failures.append("%s: %d cells, expected %d" % (p, len(cells), expected_count))
            d_x = max_cell_dimension(p)
            top = sum(1 for c in cells if c.dimension == d_x)
            if top != syt_count(p):
                failures.append("%s: %d top cells, expected %d" % (p, top, syt_count(p)))
            if max(c.dimension for c in cells) != d_x:
                failures.append("%s: max enumerated dimension != %d" % (p, d_x))
            n = m - 1
            if n * (n + 1) - 2 * d_x != orbit_dimension_type_a(n, p):
                failures.append("%s: dimension identity fails" % p)
            _, _, sigma = labeled_diagrams(p)
            sigma_cells = [c for c in cells if c.w == sigma]
            if len(sigma_cells) != 1 or sigma_cells[0].dimension != d_x:
                failures.append("%s: distinguished cell missing or not maximal" % p)
            if sum(poincare) != len(cells):
                failures.append("%s: poincare coefficients do not sum to the cell count" % p)
    return _result("paving-identities", checked, failures)


def check_paving_structure(max_total_roots: int = 10, max_total_cells: int = 6) -> CheckResult:
    """Root-set structure: non-overlap, matrix conjugation, nonempty cells.

    Non-overlap: no root of phi_x nests inside another.  Conjugation: the
    Tym pair matrix is the Std pair matrix relabelled through sigma.  For
    every enumerated cell w, relabelling the Tym matrix through w^-1 is
    strictly upper triangular, and the fast cell dimension agrees with
    the definitional |phi_w| - |phi_w_x|.
    """
    failures = []
    checked = 0
    for total in range(1, max_total_roots + 1):
        for p in partitions_of(total):
            checked += 1
            roots = phi_x(p)
            for (i, j) in roots:
                for (k, l) in roots:
                    if (i, j) != (k, l) and i <= k < l <= j:
                        failures.append("%s: roots (%d,%d) and (%d,%d) overlap" % (p, i, j, k, l))
            tym, std, sigma = labeled_diagrams(p)
            m_tym = pair_matrix(tym)
            m_std = pair_matrix(std)
            size = p.total
            mismatch = any(
                m_tym.entry(sigma(k), sigma(l)) != m_std.entry(k, l)
                for k in range(1, size + 1)
                for l in range(1, size + 1)
            )
            if mismatch:
                failures.append("%s: conjugation identity fails" % p)
    for total in range(1, max_total_cells + 1):
        for p in partitions_of(total):
            checked += 1
            tym, _, _ = labeled_diagrams(p)
            pairs = tym.pairs()
            cells, _ = enumerate_cells(p)
            for cell in cells:
                u = cell.w.inverse()
                relabeled = {(u(a), u(b)) for a, b in pairs}
                if any(a >= b for a, b in relabeled):
                    failures.append("%s w=%s: relabelled matrix not strictly upper" % (p, cell.w))
                defn = len(phi_w(cell.w)) - len(phi_w_x(cell.w, p))
                if defn != cell.dimension:
                    failures.append(
                        "%s w=%s: fast dimension %d != definitional %d"
                        % (p, cell.w, cell.dimension, defn)
                    )
    return _result("paving-structure", checked, failures)


def check_dimension_identity(max_total: int = 10) -> CheckResult:
    """The top-cell dimension d_x three ways, one check per partition.

    For each partition p of n+1: the closed form over column heights,
    |phi_sigma| - |phi_sigma_x| at the linking permutation sigma, and
    (n(n+1) - dim O_p) / 2, which must divide exactly, all agree.
    """
    failures = []
    checked = 0
    for total in range(1, max_total + 1):
        n = total - 1
        for p in partitions_of(total):
            checked += 1
            d_x = max_cell_dimension(p)
            _, _, sigma = labeled_diagrams(p)
            via_roots = len(phi_w(sigma)) - len(phi_w_x(sigma, p))
            via_orbit, rem = divmod(n * (n + 1) - orbit_dimension_type_a(n, p), 2)
            if d_x != via_roots:
                failures.append("%s: closed form %d != root count %d" % (p, d_x, via_roots))
            if rem or d_x != via_orbit:
                failures.append(
                    "%s: closed form %d != orbit codimension / 2 = %d (remainder %d)"
                    % (p, d_x, via_orbit, rem)
                )
    return _result("dimension-identity", checked, failures)


def check_decomposition(max_rank: int = 8) -> CheckResult:
    """Summand reports: trivial character present, counts match the cover, dimensions add up."""
    failures = []
    checked = 0
    for n in range(1, max_rank + 1):
        checked += 1
        report = summand_report(n)
        if len(report) != sum(1 for _ in partitions_of(n + 1)):
            failures.append("rank %d: record count mismatch" % n)
        total = 0
        for record in report:
            if 0 not in record.characters:
                failures.append("rank %d %s: trivial character missing" % (n, record.partition))
            if len(record.characters) != record.partition.gcd():
                failures.append("rank %d %s: character count mismatch" % (n, record.partition))
            if record.multiplicity_known:
                failures.append("rank %d %s: multiplicities claimed known" % (n, record.partition))
            total += 2 * record.fiber_dimension + record.orbit_dimension
        expected = len(report) * n * (n + 1)
        if total != expected:
            failures.append("rank %d: dimension sum %d != %d" % (n, total, expected))
    return _result("decomposition-report", checked, failures)


def check_tables() -> CheckResult:
    """Embedded E6/E7 tables pass all validation sweeps.

    Besides the four record-level checks, prime decorations may appear
    only in E7 and only on the three labels known to split.
    """
    failures = []
    checked = 0
    for family in ("E6", "E7"):
        report = validate_tables(LieType.of(family))
        for check in report.checks:
            checked += check.checked
            failures.extend("%s %s: %s" % (family, check.name, f) for f in check.failures)
        for record in records(LieType.of(family)):
            checked += 1
            if "'" not in record.bala_carter:
                continue
            base = record.base_label.render()
            if family != "E7" or base not in ("3A_1", "A_3 + A_1", "A_5"):
                failures.append(
                    "%s: unexpected prime decoration on %r" % (family, record.bala_carter)
                )
    return _result("table-validation", checked, failures)


def run_all(max_rank: int = 10) -> list[CheckResult]:
    """Every suite, with ranks clamped to keep the heavy sweeps bounded."""
    oracle_rank = min(7, max_rank)
    profile_rank = min(5, max_rank)
    paving_total = min(8, max_rank + 1)
    structure_cells = min(6, max_rank + 1)
    decompose_rank = min(8, max_rank)
    return [
        check_conjugate_involution(max_total=max_rank),
        check_syt_symmetry(max_total=max_rank),
        check_subdiagram_classification(),
        check_formula_oracle(max_rank=oracle_rank),
        check_oracle_rank_profile(max_rank=profile_rank),
        check_kernel_identity(max_rank=max_rank),
        check_type_a_exactness(max_rank=max_rank),
        check_partition_totals(max_rank=max_rank),
        check_center_divisibility(max_rank=max_rank),
        check_full_subset_zero_orbit(max_rank=max_rank),
        check_paving_identities(max_total=paving_total),
        check_paving_structure(
            max_total_roots=max_rank, max_total_cells=structure_cells
        ),
        check_dimension_identity(max_total=max_rank),
        check_decomposition(max_rank=decompose_rank),
        check_tables(),
    ]
