"""Self-check suites: every library invariant as an executable sweep.

Each suite returns a CheckResult with the number of individual checks it
ran and a list of failure descriptions.  The seven classical suites take
one ``classical_sweep`` as their only argument, so every classical
(type, J) is computed once however many suites read it.  The CLI
``verify`` command runs them all and exits nonzero if anything failed; the
test suite calls the same functions, so the two surfaces cannot drift
apart.
"""

from __future__ import annotations

import math

from .core import (
    _MIN_RANK,
    CheckResult,
    LieType,
    Partition,
    all_subsets,
    classify_subdiagram,
    conjugate_heights,
    dynkin_diagram,
    partitions_of,
    subset_of_mask,
    syt_count,
)
from .decomposition import summand_report
from .jordan import _rank_chain, _root_sum_rows, _root_vectors, partition_from_ranks
from .orbits import (
    center_fiber,
    fundamental_groups,
    orbit_dimension_type_a,
    orbit_partition,
)
from .paving import (
    _inversions,
    _split_roots,
    enumerate_cells,
    labeled_diagrams,
    max_cell_dimension,
    phi_w,
)
from .tables import records, validate_tables


def _result(name: str, checked: int, failures: list[str]) -> CheckResult:
    return CheckResult(name, checked, tuple(failures))


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


# Rank sequences are kept for the types of rank up to ORACLE_RANK, which
# formula-oracle reads; oracle-rank-profile reads those up to PROFILE_RANK.
ORACLE_RANK = 7
PROFILE_RANK = 5


class Columns:
    """One classical type's sweep: lists indexed by the bitmask of J (the order of ``all_subsets``).

    ``partitions`` holds P(J), one object per distinct partition;
    ``zj_orders``, ``pi1_orders`` and ``a_orders`` hold |Z(J)|, |pi1(O)| and
    |A(O)|.  ``ranks`` (the rank sequence of the representative's powers)
    and ``upper`` (whether it is strictly upper triangular) are empty above
    ORACLE_RANK.
    """

    __slots__ = ("partitions", "zj_orders", "pi1_orders", "a_orders", "ranks", "upper")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, [])


Sweep = dict[LieType, Columns]


def classical_sweep(max_rank: int) -> Sweep:
    """Everything the seven classical suites read, computed once per classical (type, J).

    The types run over A1.., B2.., C2.. and D3.. up to ``max_rank``.  Each
    (type, J) gets its orbit partition, its covering fiber and, up to
    ORACLE_RANK, its representative's sparse rows (no matrix) computed
    once, summed from the type's simple root vectors, which are built once
    per type.  Each distinct (type, partition) gets its fundamental groups,
    which also rejects a partition of the wrong total.  J itself is rebuilt
    from its index for a failure message, so the sweep keeps no SubsetJ alive.
    """
    sweep: Sweep = {}
    for t in (LieType(f, r) for f, lo in _MIN_RANK.items() for r in range(lo, max_rank + 1)):
        c = sweep[t] = Columns()
        # The group orders depend on the partition alone, and many J share
        # one; the parts tuple keys them, hashed and compared in C.
        seen: dict[tuple[int, ...], tuple[Partition, int, int]] = {}
        oracle = t.rank <= ORACLE_RANK
        roots = _root_vectors(t) if oracle else []
        for j in all_subsets(t.rank):
            p = orbit_partition(t, j)
            entry = seen.get(p.parts)
            if entry is None:
                pi1, a_group = fundamental_groups(t, p)
                entry = seen[p.parts] = (p, pi1.order, a_group.order)
            c.partitions.append(entry[0])
            c.zj_orders.append(center_fiber(t, j).order)
            c.pi1_orders.append(entry[1])
            c.a_orders.append(entry[2])
            if oracle:
                rows = _root_sum_rows(t, j, roots)
                c.ranks.append(_rank_chain(rows))
                c.upper.append(all(col > r for r, row in enumerate(rows) for col, _ in row))
    return sweep


def check_formula_oracle(sweep: Sweep) -> CheckResult:
    """Jordan type of the explicit representative equals the closed-form partition.

    In type A the closed-form orbit dimension must also equal (n+1)^2 minus
    the centralizer dimension, the sum of the squared column heights of the
    Jordan type (Collingwood-McGovern, section 6.1).  Covers the types of
    rank up to ORACLE_RANK.
    """
    failures = []
    checked = 0
    for t, c in sweep.items():
        for mask, (formula, ranks) in enumerate(zip(c.partitions, c.ranks)):
            checked += 1
            oracle = partition_from_ranks(ranks)
            if formula != oracle:
                failures.append(
                    "%s J=%s: formula %s vs oracle %s" % (t, subset_of_mask(mask), formula, oracle)
                )
            if t.family == "A":
                dim = orbit_dimension_type_a(t.rank, formula)
                via_oracle = (t.rank + 1) ** 2 - sum(h * h for h in conjugate_heights(oracle))
                if dim != via_oracle:
                    failures.append(
                        "%s J=%s: orbit dimension %d vs %d from the oracle's column heights"
                        % (t, subset_of_mask(mask), dim, via_oracle)
                    )
    return _result("formula-oracle", checked, failures)


def check_oracle_rank_profile(sweep: Sweep) -> CheckResult:
    """Rank sequences decrease strictly to zero and are convex; type A stays upper triangular.

    Covers the types of rank up to PROFILE_RANK.
    """
    failures = []
    checked = 0
    for t, c in sweep.items():
        if t.rank > PROFILE_RANK:
            continue
        for mask, (ranks, is_upper) in enumerate(zip(c.ranks, c.upper)):
            checked += 1
            j = subset_of_mask(mask)
            drops = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
            if any(d < 1 for d in drops):
                failures.append("%s J=%s: rank sequence %s not strictly decreasing" % (t, j, ranks))
            if any(drops[i] < drops[i + 1] for i in range(len(drops) - 1)):
                failures.append("%s J=%s: rank drops %s not convex" % (t, j, drops))
            if t.family == "A" and not is_upper:
                failures.append("%s J=%s: representative not strictly upper" % (t, j))
    return _result("oracle-rank-profile", checked, failures)


def check_kernel_identity(sweep: Sweep) -> CheckResult:
    """|Z(J)| * |A(O)| = |pi1(O)| across families A-D and all subsets."""
    failures = []
    checked = 0
    for t, c in sweep.items():
        for mask, (zj, pi1, a_order) in enumerate(zip(c.zj_orders, c.pi1_orders, c.a_orders)):
            checked += 1
            if zj * a_order != pi1:
                failures.append(
                    "%s J=%s: %d * %d != %d" % (t, subset_of_mask(mask), zj, a_order, pi1)
                )
            if t.family == "A" and a_order != 1:
                failures.append(
                    "%s J=%s: type A component group not trivial" % (t, subset_of_mask(mask))
                )
    return _result("kernel-identity", checked, failures)


def check_type_a_exactness(sweep: Sweep) -> CheckResult:
    """In type A the covering fiber is the whole fundamental group."""
    failures = []
    checked = 0
    for t, c in sweep.items():
        if t.family != "A":
            continue
        for mask, (zj, pi1) in enumerate(zip(c.zj_orders, c.pi1_orders)):
            checked += 1
            if zj != pi1:
                failures.append(
                    "A%d J=%s: |Z| = %d but |pi1| = %d" % (t.rank, subset_of_mask(mask), zj, pi1)
                )
    return _result("type-a-exactness", checked, failures)


def check_partition_totals(sweep: Sweep) -> CheckResult:
    """Orbit partitions always sum to the matrix dimension of the family."""
    failures = []
    checked = 0
    for t, c in sweep.items():
        for mask, p in enumerate(c.partitions):
            checked += 1
            if p.total != t.matrix_dimension:
                failures.append(
                    "%s J=%s: total %d != %d"
                    % (t, subset_of_mask(mask), p.total, t.matrix_dimension)
                )
    return _result("partition-totals", checked, failures)


def check_center_divisibility(sweep: Sweep) -> CheckResult:
    """|Z(J)| divides the order of the simply connected center, all families.

    The classical orders come from the sweep; the exceptional types, which
    it does not cover, call ``center_fiber`` here.
    """
    columns = [(t, c.zj_orders) for t, c in sweep.items()]
    for family in ("E6", "E7", "E8", "F4", "G2"):
        t = LieType.of(family)
        columns.append((t, [center_fiber(t, j).order for j in all_subsets(t.rank)]))
    failures = []
    checked = 0
    for t, zj_orders in columns:
        for mask, order in enumerate(zj_orders):
            checked += 1
            if t.center_order % order:
                failures.append(
                    "%s J=%s: |Z(J)| = %d does not divide center order %d"
                    % (t, subset_of_mask(mask), order, t.center_order)
                )
    return _result("center-divisibility", checked, failures)


def check_full_subset_zero_orbit(sweep: Sweep) -> CheckResult:
    """J = {1..n} always lands on the zero orbit [1, 1, ...]."""
    failures = []
    checked = 0
    for t, c in sweep.items():
        checked += 1
        p = c.partitions[-1]  # the last mask sets every bit
        if p.parts != (1,) * t.matrix_dimension:
            failures.append("%s full J gives %s" % (t, p))
    return _result("full-subset-zero-orbit", checked, failures)


def poincare_by_row_removal(
    parts: tuple[int, ...], memo: dict[tuple[int, ...], tuple[int, ...]]
) -> tuple[int, ...]:
    """Cell counts by dimension from P_lambda(q) = sum_i q^(i-1) P_sort(lambda - e_i)(q).

    ``parts`` is a nonempty partition, longest part first; P is 1 for one
    box.  Results are kept in ``memo``, keyed by parts.  The recursion is
    as deep as the partition has boxes, one level per removed box.
    """
    if parts == (1,):
        return (1,)
    if parts in memo:
        return memo[parts]
    coeffs: list[int] = []
    for i, part in enumerate(parts):
        rest = sorted(parts[:i] + (part - 1,) + parts[i + 1 :], reverse=True)
        sub = poincare_by_row_removal(tuple(v for v in rest if v), memo)
        coeffs.extend([0] * (i + len(sub) - len(coeffs)))
        for d, c in enumerate(sub):
            coeffs[i + d] += c
    memo[parts] = tuple(coeffs)
    return memo[parts]


def check_paving_identities(max_total: int = 8) -> CheckResult:
    """Cell count, top-cell count, top dimension, distinguished cell, Poincare vector.

    For each partition p of m: the paving has m!/prod(row lengths)! cells;
    the number of top-dimensional cells is the standard-filling count; the
    top dimension matches both the closed form and half the orbit
    codimension; the cell at the linking permutation is listed once in the
    top dimension; the counted Poincare vector sums to the number of listed
    cells; and it equals the row-removal recursion, which never enumerates
    a cell and must itself have the right sum, degree and top coefficient.
    The listing is read as its (prefix, suffixes) blocks: the listed count
    is the sum of the block sizes, not ``len`` of the listing, which is the
    count the walk started from; and the linking permutation is looked up
    only in the blocks of dimension d_x whose prefix it starts with.
    """
    failures = []
    checked = 0
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}
    for m in range(1, max_total + 1):
        for p in partitions_of(m):
            checked += 1
            cells, poincare = enumerate_cells(p)
            by_dim = cells.by_dim
            listed = sum(len(suffixes) for blocks in by_dim for _, suffixes in blocks)
            expected_count = math.factorial(m)
            for row_len in p.parts:
                expected_count //= math.factorial(row_len)
            if listed != expected_count:
                failures.append("%s: %d cells, expected %d" % (p, listed, expected_count))
            d_x = max_cell_dimension(p)
            syt = syt_count(p)
            top = poincare[d_x] if d_x < len(poincare) else 0
            if top != syt:
                failures.append("%s: %d top cells, expected %d" % (p, top, syt))
            if len(poincare) - 1 != d_x:
                failures.append("%s: max enumerated dimension != %d" % (p, d_x))
            n = m - 1
            if n * (n + 1) - 2 * d_x != orbit_dimension_type_a(n, p):
                failures.append("%s: dimension identity fails" % p)
            _, _, sigma = labeled_diagrams(p)
            w = sigma.one_line
            top_blocks = by_dim[d_x] if d_x < len(by_dim) else ()
            found = sum(
                suffixes.count(w[len(prefix) :])
                for prefix, suffixes in top_blocks
                if w[: len(prefix)] == prefix
            )
            if found != 1:
                failures.append("%s: distinguished cell missing or not maximal" % p)
            if sum(poincare) != listed:
                failures.append("%s: poincare coefficients do not sum to the cell count" % p)
            recursion = poincare_by_row_removal(p.parts, memo)
            if poincare != recursion:
                failures.append(
                    "%s: poincare %s != row-removal recursion %s"
                    % (p, list(poincare), list(recursion))
                )
            if sum(recursion) != expected_count:
                failures.append(
                    "%s: recursion sums to %d, expected %d" % (p, sum(recursion), expected_count)
                )
            if len(recursion) - 1 != d_x:
                failures.append(
                    "%s: recursion has degree %d, expected %d" % (p, len(recursion) - 1, d_x)
                )
            if d_x >= len(recursion) or recursion[d_x] != syt:
                failures.append("%s: recursion's coefficient of q^%d is not %d" % (p, d_x, syt))
    return _result("paving-identities", checked, failures)


def check_paving_structure(max_total_roots: int = 10, max_total_cells: int = 6) -> CheckResult:
    """Root-set structure: non-overlap, matrix conjugation, nonempty cells.

    Non-overlap: no root of phi_x nests inside another.  Conjugation: the
    Tym pairs are the Std pairs relabelled through sigma, which for their
    0/1 pair matrices is the statement M^Tym = sigma M^Std sigma^-1.  For
    every enumerated cell w, read off the blocks of ``enumerate_cells`` as
    prefix + suffix under the dimension they are listed at, relabelling the
    Tym matrix through w^-1 is strictly upper triangular, and that
    dimension agrees with the definitional |phi_w| - |phi_w_x|.
    """
    failures = []
    checked = 0
    for total in range(1, max_total_roots + 1):
        for p in partitions_of(total):
            checked += 1
            tym, std, sigma = labeled_diagrams(p)
            roots = frozenset(tym.pairs())
            for (i, j) in roots:
                for (k, l) in roots:
                    if (i, j) != (k, l) and i <= k < l <= j:
                        failures.append("%s: roots (%d,%d) and (%d,%d) overlap" % (p, i, j, k, l))
            if {(sigma(k), sigma(l)) for k, l in std.pairs()} != roots:
                failures.append("%s: conjugation identity fails" % p)
    for total in range(1, max_total_cells + 1):
        for p in partitions_of(total):
            checked += 1
            tym, _, _ = labeled_diagrams(p)
            in_x = frozenset(tym.pairs())
            for dim, blocks in enumerate(enumerate_cells(p).cells.by_dim):
                for w in (prefix + s for prefix, suffixes in blocks for s in suffixes):
                    in_w = _inversions(w)
                    # A Tym pair (a|b), a < b, keeps its order under w^-1
                    # exactly when w does not invert it.
                    if not in_x.isdisjoint(in_w):
                        failures.append(
                            "%s w=%s: relabelled matrix not strictly upper" % (p, list(w))
                        )
                    defn = len(in_w) - len(_split_roots(in_w, in_x))
                    if defn != dim:
                        failures.append(
                            "%s w=%s: enumerated dimension %d != definitional %d"
                            % (p, list(w), dim, defn)
                        )
    return _result("paving-structure", checked, failures)


def check_dimension_identity(max_total: int = 10) -> CheckResult:
    """The top-cell dimension d_x three ways, one check per partition.

    For each partition p of n+1: the closed form sum of (i - 1) * lambda_i
    over the rows, |phi_sigma| - |phi_sigma_x| at the linking permutation
    sigma, and (n(n+1) - dim O_p) / 2, which must divide exactly, all agree.
    """
    failures = []
    checked = 0
    for total in range(1, max_total + 1):
        n = total - 1
        for p in partitions_of(total):
            checked += 1
            d_x = max_cell_dimension(p)
            tym, _, sigma = labeled_diagrams(p)
            in_sigma = phi_w(sigma)
            via_roots = len(in_sigma) - len(_split_roots(in_sigma, frozenset(tym.pairs())))
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
        for check in validate_tables(LieType.of(family)):
            checked += check.checked
            failures.extend("%s %s: %s" % (family, check.name, f) for f in check.failures)
        for record in records(LieType.of(family)):
            checked += 1
            if "'" not in record.bala_carter:
                continue
            if family != "E7" or record.base_label not in ("3A_1", "A_3 + A_1", "A_5"):
                failures.append(
                    "%s: unexpected prime decoration on %r" % (family, record.bala_carter)
                )
    return _result("table-validation", checked, failures)


def run_all(max_rank: int = 10) -> list[CheckResult]:
    """Every suite, in a fixed order, with ranks clamped to keep the heavy sweeps bounded.

    The seven classical suites (formula-oracle, oracle-rank-profile,
    kernel-identity, type-a-exactness, partition-totals, center-divisibility
    and full-subset-zero-orbit) read one ``classical_sweep`` built for this
    run, so each classical (type, J) gets its orbit partition, covering
    fiber and representative rows computed once, and each distinct
    (type, partition) its fundamental groups.  The sweep is dropped before
    the paving suites, where a run reaches its peak memory.
    """
    paving_total = min(8, max_rank + 1)
    structure_cells = min(6, max_rank + 1)
    decompose_rank = min(8, max_rank)
    sweep = classical_sweep(max_rank)
    results = [
        check_conjugate_involution(max_total=max_rank),
        check_syt_symmetry(max_total=max_rank),
        check_subdiagram_classification(),
        check_formula_oracle(sweep),
        check_oracle_rank_profile(sweep),
        check_kernel_identity(sweep),
        check_type_a_exactness(sweep),
        check_partition_totals(sweep),
        check_center_divisibility(sweep),
        check_full_subset_zero_orbit(sweep),
    ]
    del sweep
    return results + [
        check_paving_identities(max_total=paving_total),
        check_paving_structure(
            max_total_roots=max_rank, max_total_cells=structure_cells
        ),
        check_dimension_identity(max_total=max_rank),
        check_decomposition(max_rank=decompose_rank),
        check_tables(),
    ]
