"""Command-line surface: stable JSON or readable text for every operation.

Exit codes: 0 success, 1 failed verification or corrupted data, 2 input
errors, 3 exceeded resource bounds.  A reader closing stdout early is not
an error: the command exits 0.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

try:  # json.encoder's own escaper, without importing json's decoder and scanner
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

from .core import (
    DataIntegrityError,
    InputError,
    LieType,
    Partition,
    ResourceBoundError,
    SubsetJ,
    echo_text,
    echo_value,
    syt_count,
)
from .decomposition import summand_report
from .orbits import center_fiber, fundamental_groups, orbit_dimension_type_a, orbit_partition
from .paving import (
    CellBlocks,
    _split_roots,
    enumerate_cells,
    labeled_diagrams,
    max_cell_dimension,
    phi_w,
    render_root_set,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

# The orders `orbit` prints grow with the rank: n + 1 in type A, up to about
# 2^sqrt(2n) in types B, C and D.  Up to this rank each has at most 4,258
# digits, within CPython's 4,300-digit limit on converting an int to str.
ORBIT_RANK_BOUND = 100_000_000
# verify sweeps every subset J of each rank up to --max-rank: 2^rank work.
VERIFY_RANK_BOUND = 14
# paving refuses a partition of more than --bound boxes, by default this many.
DEFAULT_CELL_BOUND = 9


def _parse_partition(text: str) -> Partition:
    if not text.strip():
        raise InputError("partition must list at least one part")
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        raise InputError("partition entries must be integers: %s" % echo_text(text)) from None
    for v in values:
        if v <= 0:
            raise InputError("partition entries must be positive, got %s" % echo_value(v))
    if values != sorted(values, reverse=True):
        raise InputError("partition must be comma-separated descending, got %s" % echo_text(text))
    return Partition(tuple(values))


def _parse_j(text: str) -> SubsetJ:
    text = text.strip()
    if text in ("", "-"):
        return SubsetJ(())
    try:
        values = [int(s) for s in text.split(",")]
    except ValueError:
        raise InputError("J entries must be integers: %s" % echo_text(text)) from None
    if values != sorted(set(values)):
        raise InputError("J must be comma-separated strictly ascending, got %s" % echo_text(text))
    return SubsetJ(tuple(values))


# The JSON text of each scalar type that an answer holds, by exact type.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for the values that the CLI emits.

    ``value`` is built of dicts with str keys, lists, tuples, str, int,
    bool and None; any other type, a float or a non-str key among them,
    raises TypeError.  Strings are escaped by json's own C function and
    ints written by ``int.__repr__``, as ``json.dumps`` does, but
    ``indent`` sends ``json.dumps`` to its pure-Python encoder, and this
    builds each container with one join instead.  ``newline`` is the line
    break and indentation that precede the closing bracket of ``value``.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(value.items())
        ]
        return "{%s%s%s}" % (inner, ("," + inner).join(items), newline)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json(v, inner) for v in value]
        return "[%s%s%s]" % (inner, ("," + inner).join(items), newline)
    encode = _SCALAR_JSON.get(kind)
    if encode is None:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
    return encode(value)


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)


def _group_text(descriptor) -> str:
    return "%s (order %d)" % (descriptor.math_name, descriptor.order)


def cmd_orbit(args) -> int:
    t = LieType.of(args.type, args.rank)
    if t.rank > ORBIT_RANK_BOUND:
        raise ResourceBoundError(
            "--rank %s exceeds the orbit bound %d" % (echo_value(t.rank), ORBIT_RANK_BOUND)
        )
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
        payload["z_j"] = z.as_json()
        if t.family in ("E6", "E7"):
            from .tables import table_lookup

            record = table_lookup(t, j)
            a_group = record.a_group
            payload["bala_carter"] = record.bala_carter
            payload["pi1"] = record.pi1.as_json()
            payload["a_group"] = a_group.as_json()
            payload["kernel_identity_holds"] = (
                record.z_orbit.order * a_group.order == record.pi1.order
            )
        else:
            payload["note"] = (
                "center of the simply connected group is trivial for %s; "
                "orbit data beyond E7 is not tabulated" % t.family
            )
        _emit(payload, args.format, ("%s: %s" % (k, payload[k]) for k in sorted(payload)))
        return EXIT_OK

    z = None
    if args.j is not None:
        j = _parse_j(args.j)
        p = orbit_partition(t, j)
        z = center_fiber(t, j)
        payload["j_set"] = list(j.elements)
        payload["z_j"] = z.as_json()
    else:
        p = _parse_partition(args.partition)
    pi1, a_group = fundamental_groups(t, p)
    if z is not None:
        payload["kernel_identity_holds"] = z.order * a_group.order == pi1.order
    payload["partition"] = list(p.parts)
    payload["very_even"] = p.very_even
    payload["orbit_label_ambiguous"] = t.family == "D" and payload["very_even"]
    payload["pi1"] = pi1.as_json()
    payload["a_group"] = a_group.as_json()
    if t.family == "A":
        payload["orbit_dimension"] = orbit_dimension_type_a(t.rank, p)
        payload["d_x"] = max_cell_dimension(p)

    _emit(payload, args.format, _orbit_text(t, p, z, pi1, a_group, payload))
    return EXIT_OK


def _orbit_text(t, p, z, pi1, a_group, payload):
    """The text lines of a classical `orbit` answer, built only when `_emit` reads them."""
    yield "type: %s" % t
    yield "partition: %s" % p
    if z is not None:
        yield "J: {%s}" % ", ".join(map(str, payload["j_set"]))
        yield "Z(J): %s" % _group_text(z)
    yield "pi1: %s" % _group_text(pi1)
    yield "A: %s" % _group_text(a_group)
    if "kernel_identity_holds" in payload:
        yield "kernel identity holds: %s" % payload["kernel_identity_holds"]
    if "orbit_dimension" in payload:
        yield "orbit dimension: %d" % payload["orbit_dimension"]
        yield "d_x: %d" % payload["d_x"]
    if payload["orbit_label_ambiguous"]:
        yield "note: very even partition; labels two distinct orbits"


def _write_cells(cells: CellBlocks, lead: str, entry: str, close: str, sep: str) -> None:
    """Write each listed cell as lead + its entries of w + close, the cells joined by ``sep``.

    ``entry`` is a %d template for one entry of w that ends in two
    characters a cell's last entry drops.  ``lead`` and ``close`` are
    templates that may name the cell's dimension as %(d)d; a literal % in
    either must be doubled.  Each label is formatted once, as an entry and
    as a last entry, and ``cells.blocks`` joins those pieces into the text
    of each prefix and each distinct suffix, so no cell and no suffix is
    formatted on its own.  The cells come in (dimension, w) order, each
    block as one join whose separator is close + sep + the block's lead,
    that is, the dimension's lead and the prefix's text.  Each dimension is
    written, as one string, as soon as it is joined.
    """
    write = sys.stdout.write
    unit = [""] + [entry % label for label in range(1, len(cells.moves) + 1)]
    last = [piece[:-2] for piece in unit]
    between = ""
    for d, blocks in enumerate(cells.blocks(unit, last)):
        if not blocks:
            continue
        opening = lead % {"d": d}
        ending = close % {"d": d}
        closing = ending + sep
        pieces = [between]
        for prefix, suffixes in blocks:
            head = opening + prefix
            pieces += (head, (closing + head).join(suffixes), closing)
        pieces[-1] = ending
        write("".join(pieces))
        between = sep


def cmd_paving(args) -> int:
    if args.bound < 1:
        raise InputError("--bound must be >= 1, got %s" % echo_value(args.bound))
    p = _parse_partition(args.partition)
    if p.total > args.bound:
        raise ResourceBoundError(
            "partition size %s exceeds the enumeration bound %d" % (echo_value(p.total), args.bound)
        )
    paving = enumerate_cells(p, cells=args.cells)
    poincare = paving.poincare
    d_x = max_cell_dimension(p)
    top = poincare[d_x]
    payload = {
        "partition": list(p.parts),
        "d_x": d_x,
        "cell_count": sum(poincare),
        "poincare": list(poincare),
        "top_cell_count": top,
        "syt_count": syt_count(p),
    }
    if args.format == "json":
        text = _json(payload)
        if not args.cells:
            print(text)
            return EXIT_OK
        # A dict per cell through _json would cost most of a large paving, so
        # the cells are written in the same layout from the blocks instead,
        # where sorted keys put "cells": right after "cell_count", the first key.
        head, tail = text.split(",\n", 1)
        sys.stdout.write('%s,\n  "cells": [\n' % head)
        _write_cells(
            paving.cells,
            '    {\n      "dimension": %(d)d,\n      "w": [\n',
            "        %d,\n",
            "\n      ]\n    }",
            ",\n",
        )
        sys.stdout.write("\n  ],\n%s\n" % tail)
        return EXIT_OK
    tym, std, sigma = labeled_diagrams(p)
    in_x = frozenset(tym.pairs())
    in_sigma = phi_w(sigma)
    lines = [
        "partition: %s" % p,
        "Y^Tym rows: %s" % tym.render_rows(),
        "Y^Std rows: %s" % std.render_rows(),
        "sigma: %s" % sigma.cycle_notation(),
        "M^Std: %s" % std.render_matrix(),
        "M^Tym: %s" % tym.render_matrix(),
        "Phi_x: %s" % render_root_set(in_x),
        "Phi_sigma: %s" % render_root_set(in_sigma),
        "Phi_sigma_x: %s" % render_root_set(_split_roots(in_sigma, in_x)),
        "d_x: %d" % d_x,
        "cell count: %d" % payload["cell_count"],
        "poincare: %s" % list(poincare),
        "top cells: %d" % top,
        "syt count: %d" % payload["syt_count"],
    ]
    _emit(payload, args.format, lines)
    if args.cells:
        _write_cells(paving.cells, "cell: w=[", "%d, ", "] dim=%(d)d", "\n")
        sys.stdout.write("\n")
    return EXIT_OK


# One record of a `decompose` answer per format.  In JSON its keys are in
# sorted order, and each list holds at least one entry, one per line:
# characters 0..c-1 with c >= 1, and the parts of a partition of n + 1 >= 2.
# The report claims no multiplicity, so "multiplicity_known" is always false.
_DECOMPOSE_JSON_ROW = """  {
    "c": %d,
    "characters": [
      %s
    ],
    "fiber_dimension": %d,
    "multiplicity_known": false,
    "orbit_dimension": %d,
    "partition": [
      %s
    ]
  }"""
_DECOMPOSE_TEXT_ROW = "partition %s  dim O = %d  d_x = %d  c = %d  characters %s\n"


def cmd_decompose(args) -> int:
    report = summand_report(args.rank)
    if args.format == "json":
        entries = ",\n      ".join
        rows = [
            _DECOMPOSE_JSON_ROW
            % (
                r.c,
                entries(map(str, r.characters)),
                r.fiber_dimension,
                r.orbit_dimension,
                entries(map(str, r.partition.parts)),
            )
            for r in report
        ]
        text = "[\n%s\n]\n" % ",\n".join(rows)
    else:
        text = "".join([
            _DECOMPOSE_TEXT_ROW
            % (r.partition, r.orbit_dimension, r.fiber_dimension, r.c, list(r.characters))
            for r in report
        ])
    sys.stdout.write(text)
    return EXIT_OK


def cmd_tables(args) -> int:
    from .tables import _require_table_family, dump_tsv, records_as_dicts, validate_tables

    # Only E6 and E7 have tables, so any other family is refused before its rank is asked for.
    t = LieType.of(_require_table_family(args.type.upper()))
    if args.validate:
        checks = validate_tables(t)
        ok = all(c.ok for c in checks)
        payload = {
            "family": t.family,
            "ok": ok,
            "checks": [
                {"name": c.name, "checked": c.checked, "failures": list(c.failures)}
                for c in checks
            ],
        }
        lines = []
        for c in checks:
            status = "PASS" if c.ok else "FAIL"
            lines.append("%s %s: %d checks" % (status, c.name, c.checked))
            lines.extend("  " + f for f in c.failures)
        _emit(payload, args.format, lines)
        return EXIT_OK if ok else EXIT_VERIFY
    if args.format == "json":
        print(_json(records_as_dicts(t)))
    else:
        print(dump_tsv(t))
    return EXIT_OK


def cmd_verify(args) -> int:
    # Only verify needs the check suites, so other commands never import them.
    from .checks import run_all

    if args.max_rank < 1:
        raise InputError("--max-rank must be >= 1, got %s" % echo_value(args.max_rank))
    if args.max_rank > VERIFY_RANK_BOUND:
        raise ResourceBoundError(
            "--max-rank %s exceeds the verify bound %d"
            % (echo_value(args.max_rank), VERIFY_RANK_BOUND)
        )
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


_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})

# Each command's help line, handler and options, in the order that the
# top-level help lists them.
COMMANDS = {
    "orbit": (
        "orbit invariants for a subset J or a partition",
        cmd_orbit,
        (
            ("--type", {"required": True, "help": "A, B, C, D, E6, E7, E8, F4 or G2"}),
            ("--rank", {"type": int, "default": None}),
            ("--j", {"default": None, "help": "comma-separated ascending indices; empty for {}"}),
            ("--partition", {"default": None, "help": "comma-separated descending parts"}),
            _FORMAT,
        ),
    ),
    "paving": (
        "cell paving of a type-A Springer fiber",
        cmd_paving,
        (
            ("--partition", {"required": True}),
            ("--bound", {"type": int, "default": DEFAULT_CELL_BOUND}),
            ("--cells", {"action": "store_true", "help": "include the full cell list"}),
            _FORMAT,
        ),
    ),
    "decompose": (
        "summand report for sl_(n+1)",
        cmd_decompose,
        (("--rank", {"type": int, "required": True}), _FORMAT),
    ),
    "tables": (
        "dump or validate the E6/E7 orbit tables",
        cmd_tables,
        (
            ("--type", {"required": True, "help": "E6 or E7"}),
            ("--validate", {"action": "store_true"}),
            _FORMAT,
        ),
    ),
    "verify": (
        "run every cross-check suite",
        cmd_verify,
        (("--max-rank", {"type": int, "default": 10}),),
    ),
}


def _plain_args(argv):
    """The namespace `build_parser` would parse from a plain ``argv``, or None for any other.

    ``argv`` is plain when ``argv[0]`` names a command and the rest are
    that command's exact option strings, each ``store_true`` option alone
    and each other one followed by its value.  A value may not start with
    "-" unless it is "-" itself or "-" and decimal digits, which argparse
    reads as values too, because no option here looks like a negative
    number.  Each value must convert through the option's ``type`` and
    lie within its ``choices``, and every required option must be given.
    A repeated option keeps its last value, as in argparse.  The namespace
    holds each option's dest, given or defaulted, and ``handler``; only
    ``command``, which no handler reads, is left out.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, options = COMMANDS[argv[0]]
    spec = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = spec.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and not (value == "-" or value[1:].isdecimal()):
            return None
        convert = kwargs.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        choices = kwargs.get("choices")
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    args = SimpleNamespace(handler=handler)
    for flag, kwargs in options:
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        elif kwargs.get("action") == "store_true":
            value = False
        else:
            value = kwargs.get("default")
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def build_parser():
    """The argparse parser of the CLI, with a subparser for each of the five commands.

    `main` parses with it every ``argv`` that `_plain_args` does not read:
    help, abbreviations, ``--flag=value``, ``--`` and every malformed
    vector, so help, usage lines and errors read as argparse writes them.
    argparse is imported here, so a plain call never loads it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="nilorbits",
        description="Exact combinatorial invariants of nilpotent orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names; return its exit code.

    Each call reads its own ``argv``; nothing is kept between calls.  A
    plain vector (see `_plain_args`) is read straight from the
    ``COMMANDS`` table, and any other is parsed by `build_parser`.
    argparse itself raises ``SystemExit``: 0 after ``-h``, 2 for a
    malformed ``argv``.  A library error prints one ``error:`` line to
    stderr and returns its exit code.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout after taking what it wanted; the work
        # itself succeeded.  Point stdout at devnull so that the flush at
        # interpreter exit cannot raise again (the "Note on SIGPIPE" in the
        # signal module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
