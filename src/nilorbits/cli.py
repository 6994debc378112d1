"""Command-line surface: stable JSON or readable text for every operation.

Exit codes: 0 success, 1 failed verification or corrupted data, 2 input
errors, 3 exceeded resource bounds.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import run_all
from .core import (
    EXCEPTIONAL_RANKS,
    DataIntegrityError,
    InputError,
    LieType,
    Partition,
    ResourceBoundError,
    SubsetJ,
)
from .decomposition import summand_report
from .orbits import center_fiber, fundamental_groups, kernel_check, orbit_dimension_type_a, orbit_partition
from .paving import (
    DEFAULT_CELL_BOUND,
    enumerate_cells,
    labeled_diagrams,
    max_cell_dimension,
    pair_matrix,
    phi_w,
    phi_w_x,
    phi_x,
    render_root_set,
)
from .core import syt_count
from .tables import dump_tsv, records_as_dicts, table_lookup, validate_tables

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _parse_partition(text: str) -> Partition:
    pieces = [s.strip() for s in text.split(",") if s.strip()]
    if not pieces:
        raise InputError("partition must list at least one part")
    try:
        values = [int(s) for s in pieces]
    except ValueError:
        raise InputError("partition entries must be integers: %r" % text) from None
    for v in values:
        if v <= 0:
            raise InputError("partition entries must be positive, got %d" % v)
    if values != sorted(values, reverse=True):
        raise InputError("partition must be comma-separated descending, got %r" % text)
    return Partition(tuple(values))


def _parse_j(text: str) -> SubsetJ:
    text = text.strip()
    if text in ("", "-"):
        return SubsetJ(())
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        raise InputError("J entries must be integers: %r" % text) from None
    if values != sorted(set(values)) or len(set(values)) != len(values):
        raise InputError("J must be comma-separated strictly ascending, got %r" % text)
    return SubsetJ(tuple(values))


def _group_json(descriptor) -> dict:
    return {"kind": descriptor.label, "order": descriptor.order}


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _group_text(descriptor) -> str:
    return "%s (order %d)" % (descriptor.math_name, descriptor.order)


def cmd_orbit(args) -> int:
    t = LieType.of(args.type, args.rank)
    if (args.j is None) == (args.partition is None) and t.is_classical:
        raise InputError("supply exactly one of --j / --partition")
    payload: dict = {"type": t.family, "rank": t.rank}

    if not t.is_classical:
        if args.partition is not None:
            raise InputError("exceptional families take --j, not --partition")
        if args.j is None:
            raise InputError("exceptional families need --j (use --j \"\" for the empty set)")
        j = _parse_j(args.j)
        z = center_fiber(t, j)
        payload["j_set"] = list(j.elements)
        payload["z_j"] = _group_json(z)
        if t.family in ("E6", "E7"):
            record = table_lookup(t, j)
            payload["bala_carter"] = record.bala_carter
            payload["pi1"] = _group_json(record.pi1)
            payload["a_group"] = _group_json(record.a_group)
            payload["kernel_identity_holds"] = (
                record.z_orbit.order * record.a_group.order == record.pi1.order
            )
        else:
            payload["note"] = (
                "center of the simply connected group is trivial for %s; "
                "orbit data beyond E7 is not tabulated" % t.family
            )
        lines = ["%s: %s" % (k, payload[k]) for k in sorted(payload)]
        _emit(payload, args.format, lines)
        return EXIT_OK

    z = None
    if args.j is not None:
        j = _parse_j(args.j)
        p = orbit_partition(t, j).partition
        z = center_fiber(t, j)
        payload["j_set"] = list(j.elements)
        payload["z_j"] = _group_json(z)
        payload["kernel_identity_holds"] = kernel_check(t, j).holds
    else:
        p = _parse_partition(args.partition)
    pi1, a_group = fundamental_groups(t, p)
    payload["partition"] = list(p.parts)
    payload["very_even"] = p.very_even
    payload["orbit_label_ambiguous"] = t.family == "D" and p.very_even
    payload["pi1"] = _group_json(pi1)
    payload["a_group"] = _group_json(a_group)
    if t.family == "A":
        payload["orbit_dimension"] = orbit_dimension_type_a(t.rank, p)
        payload["d_x"] = max_cell_dimension(p)

    lines = [
        "type: %s" % t,
        "partition: %s" % p,
    ]
    if z is not None:
        lines.append("J: {%s}" % ", ".join(map(str, payload["j_set"])))
        lines.append("Z(J): %s" % _group_text(z))
    lines.append("pi1: %s" % _group_text(pi1))
    lines.append("A: %s" % _group_text(a_group))
    if "kernel_identity_holds" in payload:
        lines.append("kernel identity holds: %s" % payload["kernel_identity_holds"])
    if "orbit_dimension" in payload:
        lines.append("orbit dimension: %d" % payload["orbit_dimension"])
        lines.append("d_x: %d" % payload["d_x"])
    if payload["orbit_label_ambiguous"]:
        lines.append("note: very even partition; labels two distinct orbits")
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_paving(args) -> int:
    p = _parse_partition(args.partition)
    cells, poincare = enumerate_cells(p, bound=args.bound)
    d_x = max_cell_dimension(p)
    top = sum(1 for c in cells if c.dimension == d_x)
    payload = {
        "partition": list(p.parts),
        "d_x": d_x,
        "cell_count": len(cells),
        "poincare": list(poincare),
        "top_cell_count": top,
        "syt_count": syt_count(p),
    }
    if args.cells:
        payload["cells"] = [
            {"w": list(c.w.one_line), "dimension": c.dimension} for c in cells
        ]
    if args.format == "json":
        _emit(payload, args.format, ())
        return EXIT_OK
    tym, std, sigma = labeled_diagrams(p)
    lines = [
        "partition: %s" % p,
        "Y^Tym rows: %s" % tym.render_rows(),
        "Y^Std rows: %s" % std.render_rows(),
        "sigma: %s" % sigma.cycle_notation(),
        "M^Std: %s" % pair_matrix(std).term_string(),
        "M^Tym: %s" % pair_matrix(tym).term_string(),
        "Phi_x: %s" % render_root_set(phi_x(p)),
        "Phi_sigma: %s" % render_root_set(phi_w(sigma)),
        "Phi_sigma_x: %s" % render_root_set(phi_w_x(sigma, p)),
        "d_x: %d" % d_x,
        "cell count: %d" % len(cells),
        "poincare: %s" % list(poincare),
        "top cells: %d" % top,
        "syt count: %d" % syt_count(p),
    ]
    if args.cells:
        lines.extend(
            "cell: w=%s dim=%d" % (c.w, c.dimension) for c in cells
        )
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_decompose(args) -> int:
    report = summand_report(args.rank)
    payload = [
        {
            "partition": list(r.partition.parts),
            "orbit_dimension": r.orbit_dimension,
            "fiber_dimension": r.fiber_dimension,
            "c": r.c,
            "characters": list(r.characters),
            "multiplicity_known": r.multiplicity_known,
        }
        for r in report
    ]
    lines = [
        "partition %s  dim O = %d  d_x = %d  c = %d  characters %s"
        % (r.partition, r.orbit_dimension, r.fiber_dimension, r.c, list(r.characters))
        for r in report
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_tables(args) -> int:
    t = LieType.of(args.type)
    if args.validate:
        report = validate_tables(t)
        payload = {
            "family": report.family,
            "ok": report.ok,
            "checks": [
                {"name": c.name, "checked": c.checked, "failures": list(c.failures)}
                for c in report.checks
            ],
        }
        lines = []
        for c in report.checks:
            status = "PASS" if c.ok else "FAIL"
            lines.append("%s %s: %d checks" % (status, c.name, c.checked))
            lines.extend("  " + f for f in c.failures)
        _emit(payload, args.format, lines)
        return EXIT_OK if report.ok else EXIT_VERIFY
    if args.format == "json":
        print(json.dumps(records_as_dicts(t), sort_keys=True, indent=2))
    else:
        print(dump_tsv(t))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_rank < 1:
        raise InputError("--max-rank must be >= 1, got %d" % args.max_rank)
    results = run_all(max_rank=args.max_rank)
    failed = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print("%s %s: %d checks, %d failures" % (status, result.name, result.checked, len(result.failures)))
        for failure in result.failures[:20]:
            print("  " + failure)
        if len(result.failures) > 20:
            print("  ... and %d more" % (len(result.failures) - 20))
        if not result.ok:
            failed += 1
    total = sum(r.checked for r in results)
    print("total: %d checks across %d suites, %d suites failed" % (total, len(results), failed))
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilorbits",
        description="Exact combinatorial invariants of nilpotent orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    orbit = sub.add_parser("orbit", help="orbit invariants for a subset J or a partition")
    orbit.add_argument("--type", required=True, help="A, B, C, D, E6, E7, E8, F4 or G2")
    orbit.add_argument("--rank", type=int, default=None)
    orbit.add_argument("--j", default=None, help="comma-separated ascending indices; empty for {}")
    orbit.add_argument("--partition", default=None, help="comma-separated descending parts")
    orbit.add_argument("--format", choices=("json", "text"), default="json")
    orbit.set_defaults(handler=cmd_orbit)

    paving = sub.add_parser("paving", help="cell paving of a type-A Springer fiber")
    paving.add_argument("--partition", required=True)
    paving.add_argument("--bound", type=int, default=DEFAULT_CELL_BOUND)
    paving.add_argument("--cells", action="store_true", help="include the full cell list")
    paving.add_argument("--format", choices=("json", "text"), default="json")
    paving.set_defaults(handler=cmd_paving)

    decompose = sub.add_parser("decompose", help="summand report for sl_(n+1)")
    decompose.add_argument("--rank", type=int, required=True)
    decompose.add_argument("--format", choices=("json", "text"), default="json")
    decompose.set_defaults(handler=cmd_decompose)

    tables = sub.add_parser("tables", help="dump or validate the E6/E7 orbit tables")
    tables.add_argument("--type", required=True, help="E6 or E7")
    tables.add_argument("--validate", action="store_true")
    tables.add_argument("--format", choices=("json", "text"), default="json")
    tables.set_defaults(handler=cmd_tables)

    verify = sub.add_parser("verify", help="run every cross-check suite")
    verify.add_argument("--max-rank", type=int, default=10)
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ResourceBoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except DataIntegrityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
