import argparse
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nilorbits import checks, cli
from nilorbits.cli import (
    COMMANDS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY,
    _json,
    _write_cells,
    main,
)
from nilorbits.core import (
    CLASSICAL_FAMILIES,
    CheckResult,
    InputError,
    LieType,
    Partition,
    all_subsets,
    partitions_of,
    syt_count,
)
from nilorbits.decomposition import summand_report
from nilorbits.orbits import (
    FiniteGroupDescriptor,
    center_fiber,
    fundamental_groups,
    kernel_check,
    orbit_partition,
)
from nilorbits.paving import CellBlocks, enumerate_cells, max_cell_dimension

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrbitCommand:
    def test_type_a_partition_json(self, capsys):
        code, out, _ = run(capsys, "orbit", "--type", "A", "--rank", "6", "--partition", "3,3,1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["orbit_dimension"] == 32
        assert payload["d_x"] == 5
        assert payload["partition"] == [3, 3, 1]
        assert payload["pi1"] == {"kind": "trivial", "order": 1}

    def test_type_a_with_j(self, capsys):
        code, out, _ = run(capsys, "orbit", "--type", "A", "--rank", "5", "--j", "2,4")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["j_set"] == [2, 4]
        assert payload["partition"] == [2, 2, 2]
        assert payload["z_j"] == {"kind": "cyclic(2)", "order": 2}
        assert payload["kernel_identity_holds"] is True

    def test_type_d_very_even(self, capsys):
        code, out, _ = run(capsys, "orbit", "--type", "D", "--rank", "4", "--j", "4")
        payload = json.loads(out)
        assert payload["very_even"] is True
        assert payload["orbit_label_ambiguous"] is True

    def test_e6_lookup(self, capsys):
        code, out, _ = run(capsys, "orbit", "--type", "E6", "--j", "2,4")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["bala_carter"] == "2A_2"
        assert payload["z_j"]["order"] == 3
        assert payload["kernel_identity_holds"] is True

    def test_e8_has_note(self, capsys):
        code, out, _ = run(capsys, "orbit", "--type", "E8", "--j", "")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["z_j"]["order"] == 1
        assert "not tabulated" in payload["note"]

    def test_empty_j_is_principal(self, capsys):
        code, out, _ = run(capsys, "orbit", "--type", "B", "--rank", "3", "--j", "")
        payload = json.loads(out)
        assert payload["partition"] == [7]
        assert payload["z_j"]["order"] == 2

    def test_byte_stable_output(self, capsys):
        _, first, _ = run(capsys, "orbit", "--type", "A", "--rank", "6", "--partition", "3,3,1")
        _, second, _ = run(capsys, "orbit", "--type", "A", "--rank", "6", "--partition", "3,3,1")
        assert first == second

    def test_rejects_both_selectors(self, capsys):
        code, _, err = run(capsys, "orbit", "--type", "A", "--rank", "4", "--j", "1", "--partition", "3,2")
        assert code == EXIT_INPUT
        assert "exactly one" in err

    def test_rejects_ascending_partition(self, capsys):
        code, _, err = run(capsys, "orbit", "--type", "A", "--rank", "4", "--partition", "1,3")
        assert code == EXIT_INPUT
        assert "descending" in err

    def test_rejects_unsorted_j(self, capsys):
        code, _, err = run(capsys, "orbit", "--type", "A", "--rank", "4", "--j", "3,1")
        assert code == EXIT_INPUT
        assert "ascending" in err

    def test_rejects_bad_rank(self, capsys):
        code, _, err = run(capsys, "orbit", "--type", "D", "--rank", "2", "--j", "1")
        assert code == EXIT_INPUT

    def test_huge_single_row_is_immediate(self, capsys):
        # O(#parts) closed forms: no list of 10^8 column heights is built.
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "orbit", "--type", "A", "--rank", "99999999", "--partition", "100000000"
        )
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["orbit_dimension"] == 9999999900000000
        assert payload["d_x"] == 0

    def test_rank_at_bound_prints_every_order(self, capsys):
        # 14,141 distinct even parts at rank 10^8: |pi1| = 2^14141 has 4,257
        # digits, just within the int-to-str limit.
        parts = sorted(list(range(28282, 0, -2)) + [17978], reverse=True)
        request = ("orbit", "--type", "C", "--rank", "100000000", "--partition")
        for fmt in ("json", "text"):
            code, out, err = run(capsys, *request, ",".join(map(str, parts)), "--format", fmt)
            assert (code, err) == (EXIT_OK, "")
            assert str(2**14141) in out

    def test_kernel_identity_follows_the_printed_orders(self, capsys, monkeypatch):
        # With A(O) forced to order 2 the printed orders give 2 * 2 != 2 for
        # B3 J={}; the printed verdict must be the one those orders give.
        monkeypatch.setattr(
            "nilorbits.cli.fundamental_groups",
            lambda t, p: (fundamental_groups(t, p)[0], FiniteGroupDescriptor.cyclic(2)),
        )
        code, out, _ = run(capsys, "orbit", "--type", "B", "--rank", "3", "--j", "")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["a_group"]["order"] == 2
        orders = payload["z_j"]["order"] * payload["a_group"]["order"] == payload["pi1"]["order"]
        assert payload["kernel_identity_holds"] is orders is False

    def test_one_count_of_multiplicities_per_request(self, capsys, monkeypatch):
        # fundamental_groups counts the parts; very_even reads them without a count.
        request = ("orbit", "--type", "D", "--rank", "4", "--partition", "3,3,1,1")
        expected = [run(capsys, *request, "--format", fmt) for fmt in ("json", "text")]
        calls = []
        original = Partition.multiplicities

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(Partition, "multiplicities", counted)
        for fmt, before in zip(("json", "text"), expected):
            calls.clear()
            assert run(capsys, *request, "--format", fmt) == before
            assert calls == [Partition((3, 3, 1, 1))]
        assert json.loads(expected[0][1])["very_even"] is False

    def test_json_answer_builds_no_text_line(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("a JSON answer formatted a text line")

        monkeypatch.setattr(Partition, "__str__", refuse)
        request = ("orbit", "--type", "C", "--rank", "3", "--j", "1")
        code, out, _ = run(capsys, *request)
        assert code == EXIT_OK
        assert json.loads(out)["partition"] == [4, 1, 1]
        with pytest.raises(AssertionError, match="text line"):
            main([*request, "--format", "text"])

    def test_j_sweep_matches_library(self, capsys):
        # Every classical (type, J) up to rank 5, against the library functions.
        swept = 0
        for family in CLASSICAL_FAMILIES:
            for rank in range(1, 6):
                try:
                    t = LieType.of(family, rank)
                except InputError:
                    continue
                for j in all_subsets(rank):
                    csv = ",".join(map(str, j.elements))
                    argv = ["orbit", "--type", family, "--rank", str(rank), "--j", csv]
                    code, out, _ = run(capsys, *argv)
                    assert code == EXIT_OK
                    payload = json.loads(out)
                    p = orbit_partition(t, j)
                    pi1, a_group = fundamental_groups(t, p)
                    assert payload["partition"] == list(p.parts)
                    z = center_fiber(t, j)
                    assert payload["z_j"] == {"kind": z.label, "order": z.order}
                    assert payload["pi1"] == {"kind": pi1.label, "order": pi1.order}
                    assert payload["a_group"] == {"kind": a_group.label, "order": a_group.order}
                    assert payload["kernel_identity_holds"] is kernel_check(t, j).holds
                    swept += 1
        assert swept == 238

    def test_exceptional_requires_j(self, capsys):
        code, _, err = run(capsys, "orbit", "--type", "E6")
        assert code == EXIT_INPUT
        assert "--j" in err


class TestPavingCommand:
    def test_staircase_json(self, capsys):
        code, out, _ = run(capsys, "paving", "--partition", "2,2,1")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["cell_count"] == 30
        assert payload["top_cell_count"] == 5
        assert payload["syt_count"] == 5
        assert payload["d_x"] == 4
        assert sum(payload["poincare"]) == 30
        assert "cells" not in payload

    def test_cells_flag(self, capsys):
        code, out, _ = run(capsys, "paving", "--partition", "2,1", "--cells")
        payload = json.loads(out)
        assert len(payload["cells"]) == 3
        assert payload["cells"][0]["dimension"] == 0

    def test_text_mode_renders_diagrams(self, capsys):
        code, out, _ = run(capsys, "paving", "--partition", "2,2,1", "--format", "text")
        assert code == EXIT_OK
        assert "Y^Tym rows: [3,5] [2,4] [1]" in out
        assert "sigma: (1 3 2 5)" in out
        assert "M^Std: E_{1,2} + E_{3,4}" in out
        assert "M^Tym: E_{2,4} + E_{3,5}" in out

    def test_resource_bound_exit(self, capsys):
        for partition in ("4,4,2", "99999999999999999999"):
            for fmt in ("json", "text"):
                code, _, err = run(capsys, "paving", "--partition", partition, "--format", fmt)
                assert code == EXIT_RESOURCE
                assert "bound" in err

    def test_bound_override(self, capsys):
        code, _, _ = run(capsys, "paving", "--partition", "2,2", "--bound", "4")
        assert code == EXIT_OK

    def test_rejects_bound_below_one(self, capsys):
        for value in ("0", "-1"):
            for fmt in ("json", "text"):
                code, out, err = run(
                    capsys, "paving", "--partition", "3,2", "--bound", value, "--format", fmt
                )
                assert code == EXIT_INPUT
                assert out == ""
                assert err == "error: --bound must be >= 1, got %s\n" % value

    def test_raised_bound_keeps_fixed_work_caps(self, capsys):
        # Twenty ones list 20! cells and walk 2^20 row states; --bound 20
        # must not start either, whatever the format.
        ones = ",".join(["1"] * 20)
        for extra in ((), ("--cells",)):
            for fmt in ("json", "text"):
                start = time.perf_counter()
                code, out, err = run(
                    capsys, "paving", "--partition", ones, "--bound", "20", *extra, "--format", fmt
                )
                assert time.perf_counter() - start < 1.0
                assert code == EXIT_RESOURCE
                assert out == ""
                assert "bound" in err

    def test_work_caps_split_listing_from_counting(self, capsys):
        # [1^10]: 1024 row states, so the summary runs; 10! cells, over
        # the listing cap of 9!, so --cells is refused.
        ones = ",".join(["1"] * 10)
        code, out, _ = run(capsys, "paving", "--partition", ones, "--bound", "10")
        assert code == EXIT_OK
        assert json.loads(out)["cell_count"] == 3628800
        code, out, err = run(capsys, "paving", "--partition", ones, "--bound", "10", "--cells")
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "362880 cells" in err
        code, out, _ = run(capsys, "paving", "--partition", "6,5,4,3,2,1", "--bound", "21")
        assert code == EXIT_OK
        assert json.loads(out)["syt_count"] == syt_count(Partition((6, 5, 4, 3, 2, 1)))

    def test_label_pieces_match_a_per_cell_rendering(self, capsys):
        # The renderer formats each label once and lets CellBlocks.blocks join
        # the pieces.  [1] and [1, 1] list their cells with an empty prefix;
        # in [3, 2, 1] one prefix heads blocks in two dimensions and one
        # suffix tuple is shared by two prefixes.
        formats = (
            (
                '    {\n      "dimension": %(d)d,\n      "w": [\n',
                "        %d,\n",
                "\n      ]\n    }",
                ",\n",
            ),
            ("cell: w=[", "%d, ", "] dim=%(d)d", "\n"),
        )
        for parts, count in (((1,), 1), ((1, 1), 2), ((3, 2, 1), 60)):
            cells = enumerate_cells(Partition(parts)).cells
            by_dim = cells.by_dim
            listed = [(d, p + s) for d, blocks in enumerate(by_dim) for p, ss in blocks for s in ss]
            assert len(cells) == len(listed) == count
            for lead, entry, close, sep in formats:
                _write_cells(cells, lead, entry, close, sep)
                per_cell = [
                    lead % {"d": d} + (entry * len(w))[:-2] % w + close % {"d": d}
                    for d, w in listed
                ]
                assert capsys.readouterr().out == sep.join(per_cell)
            _write_cells(cells, *formats[0])
            rendered = json.loads("[%s]" % capsys.readouterr().out)
            assert rendered == [{"dimension": d, "w": list(w)} for d, w in listed]
        heads = [prefix for blocks in by_dim for prefix, _ in blocks]
        assert len(set(heads)) < len(heads)
        suffix_ids = [id(suffixes) for blocks in by_dim for _, suffixes in blocks]
        assert len(set(suffix_ids)) < len(suffix_ids)

    def test_cells_are_written_without_the_tuple_listing(self, capsys, monkeypatch):
        # `paving --cells` never reads CellBlocks.by_dim, the listing in label
        # tuples; its bytes still equal a per-cell rendering of that listing,
        # taken before by_dim is patched to raise.
        shapes = [(p, 9) for m in range(1, 9) for p in partitions_of(m)]
        shapes.append((Partition((4, 4, 2)), 10))
        expected = []
        for p, bound in shapes:
            blocks = enumerate_cells(p).cells.by_dim
            cells = [(d, pre + s) for d, bs in enumerate(blocks) for pre, ss in bs for s in ss]
            argv = ["paving", "--partition", ",".join(map(str, p.parts)), "--bound", str(bound)]
            _, head, _ = run(capsys, *argv)
            payload = json.loads(head)
            payload["cells"] = [{"dimension": d, "w": list(w)} for d, w in cells]
            _, summary, _ = run(capsys, *argv, "--format", "text")
            lines = ["cell: w=[%s] dim=%d\n" % (", ".join(map(str, w)), d) for d, w in cells]
            as_json = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            expected.append((argv, as_json, summary + "".join(lines)))

        def refuse(self):
            raise AssertionError("the CLI read the tuple listing")

        monkeypatch.setattr(CellBlocks, "by_dim", property(refuse))
        for argv, as_json, as_text in expected:
            assert run(capsys, *argv, "--cells") == (EXIT_OK, as_json, "")
            assert run(capsys, *argv, "--cells", "--format", "text") == (EXIT_OK, as_text, "")
        with pytest.raises(AssertionError, match="tuple listing"):
            enumerate_cells(Partition((2, 1))).cells.by_dim

    def test_cells_json_matches_json_dumps(self, capsys):
        # The cell list is rendered block by block; it must match the bytes
        # json.dumps gives for the same payload with a dict per cell, and in
        # text the summary followed by one line per cell.  The partitions of
        # 8 hold many blocks per dimension; there, and at [5,5] and [4,4,2],
        # an even m splits its cells after (m - 1) // 2 labels, not m // 2.
        shapes = [(p, 9) for m in range(1, 8) for p in partitions_of(m)]
        shapes += [(Partition(parts), 9) for parts in ((3, 2, 1, 1, 1), (2, 2, 2, 1, 1))]
        shapes += [(Partition(parts), 9) for parts in ((8,), (7, 1), (6, 2), (4, 4), (6, 1, 1))]
        shapes += [(Partition((5, 5)), 10), (Partition((4, 4, 2)), 10)]
        shapes += [(Partition((12, 1)), 13), (Partition((1000,)), 1000)]
        for p, bound in shapes:
            paving = enumerate_cells(p)
            dims = [d for d, count in enumerate(paving.poincare) for _ in range(count)]
            listed = [
                prefix + s
                for blocks in paving.cells.by_dim
                for prefix, suffixes in blocks
                for s in suffixes
            ]
            cells = list(zip(dims, listed, strict=True))
            d_x = max_cell_dimension(p)
            payload = {
                "partition": list(p.parts),
                "d_x": d_x,
                "cell_count": len(cells),
                "poincare": list(paving.poincare),
                "top_cell_count": sum(1 for d, _ in cells if d == d_x),
                "syt_count": syt_count(p),
                "cells": [{"w": list(w), "dimension": d} for d, w in cells],
            }
            csv = ",".join(map(str, p.parts))
            argv = ["paving", "--partition", csv, "--bound", str(bound), "--cells"]
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == EXIT_OK
            assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
            code, summary, _ = run(capsys, *argv[:-1], "--format", "text")
            assert code == EXIT_OK
            code, out, _ = run(capsys, *argv, "--format", "text")
            assert code == EXIT_OK
            lines = ["cell: w=[%s] dim=%d\n" % (", ".join(map(str, w)), d) for d, w in cells]
            assert out == summary + "".join(lines)

    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, "paving", "--partition", "3,2", "--cells")
        _, second, _ = run(capsys, "paving", "--partition", "3,2", "--cells")
        assert first == second


class TestDecomposeCommand:
    def test_rank_3(self, capsys):
        code, out, _ = run(capsys, "decompose", "--rank", "3")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert len(payload) == 5
        assert sum(len(r["characters"]) for r in payload) == 9
        assert all(r["multiplicity_known"] is False for r in payload)

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "decompose", "--rank", "2", "--format", "text")
        assert code == EXIT_OK
        assert out.count("partition") == 3

    def test_json_answer_builds_no_text_line(self, capsys, monkeypatch):
        _, expected, _ = run(capsys, "decompose", "--rank", "3")

        def refuse(self):
            raise AssertionError("a JSON answer formatted a text line")

        monkeypatch.setattr(Partition, "__str__", refuse)
        assert run(capsys, "decompose", "--rank", "3") == (EXIT_OK, expected, "")
        with pytest.raises(AssertionError, match="text line"):
            main(["decompose", "--rank", "3", "--format", "text"])

    def test_answers_match_json_dumps_and_the_line_format(self, capsys):
        # Each record is written from one template per format; both must give
        # the bytes of json.dumps over a dict per record, and of one line per record.
        for rank in range(1, 21):
            report = summand_report(rank)
            payload = [
                {
                    "partition": list(r.partition.parts),
                    "orbit_dimension": r.orbit_dimension,
                    "fiber_dimension": r.fiber_dimension,
                    "c": r.c,
                    "characters": list(r.characters),
                    "multiplicity_known": False,
                }
                for r in report
            ]
            lines = [
                "partition %s  dim O = %d  d_x = %d  c = %d  characters %s\n"
                % (r.partition, r.orbit_dimension, r.fiber_dimension, r.c, list(r.characters))
                for r in report
            ]
            expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert run(capsys, "decompose", "--rank", str(rank)) == (EXIT_OK, expected, "")
            text = run(capsys, "decompose", "--rank", str(rank), "--format", "text")
            assert text == (EXIT_OK, "".join(lines), "")


# What an answer may hold, with the characters that escaping must get right.
_JSON_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", ""])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | _JSON_TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    @example({"b": [], "a": {}, "c": (-1, None, True, False)})
    @example(-(10**4000))
    def test_equals_json_dumps(self, value):
        assert _json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value", [1.5, {1, 2}, object(), {1: 2}, {"a": 1, 2: 3}, [0, {"x": float("nan")}]],
        ids=["float", "set", "object", "int-key", "mixed-keys", "nested-float"],
    )
    def test_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            _json(value)


class TestTablesCommand:
    def test_dump_text_is_tsv(self, capsys):
        code, out, _ = run(capsys, "tables", "--type", "E6", "--format", "text")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 17

    def test_dump_json(self, capsys):
        code, out, _ = run(capsys, "tables", "--type", "E7")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert sum(len(r["j_sets"]) for r in payload) == 128

    def test_validate(self, capsys):
        code, out, _ = run(capsys, "tables", "--type", "E6", "--validate")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["ok"] is True
        assert len(payload["checks"]) == 4

    def test_validate_text(self, capsys):
        code, out, _ = run(capsys, "tables", "--type", "E7", "--validate", "--format", "text")
        assert code == EXIT_OK
        assert out.count("PASS") == 4

    def test_rejects_classical(self, capsys):
        # No rank would give a classical family a table, so none is asked for.
        for family in ("A", "B", "C", "D", "a", "d"):
            code, out, err = run(capsys, "tables", "--type", family)
            assert code == EXIT_INPUT
            assert out == ""
            assert err == "error: no embedded orbit table for family %s (only E6, E7)\n" % (
                family.upper()
            )


class TestVerifyCommand:
    def test_small_rank_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-rank", "4")
        assert code == EXIT_OK
        assert "0 suites failed" in out
        assert out.count("PASS") == 15

    def test_reports_check_counts(self, capsys):
        _, out, _ = run(capsys, "verify", "--max-rank", "3")
        for name in ("formula-oracle", "kernel-identity", "table-validation", "paving-identities"):
            assert name in out

    def test_rejects_max_rank_below_one(self, capsys):
        for value in ("0", "-3"):
            code, out, err = run(capsys, "verify", "--max-rank", value)
            assert code == EXIT_INPUT
            assert out == ""
            assert "--max-rank must be >= 1" in err

    def test_suite_with_no_checks_fails(self, capsys, monkeypatch):
        assert not CheckResult("empty", 0, ()).ok
        assert CheckResult("one", 1, ()).ok
        empty = CheckResult("decomposition-report", 0, ())
        monkeypatch.setattr(checks, "check_decomposition", lambda max_rank: empty)
        code, out, _ = run(capsys, "verify", "--max-rank", "2")
        assert code == EXIT_VERIFY
        assert "FAIL decomposition-report: 0 checks, 0 failures" in out
        assert "1 suites failed" in out

    def test_rejects_max_rank_above_bound(self, capsys):
        for value in ("15", "30"):
            code, out, err = run(capsys, "verify", "--max-rank", value)
            assert code == EXIT_RESOURCE
            assert out == ""
            assert "verify bound 14" in err



def outcome(capsys, argv):
    """Exit code, or ("SystemExit", code), stdout and stderr of one ``main`` call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Help, argparse's refusals and the abbreviations it accepts: an unrecognized
# option (after every required one) prints the top-level usage line.  The
# last five are edge cases of plain vectors: a negative number and "-" as
# values, a value that argparse reads as an option, and repeated options.
PARSER_ARGVS = [
    *([name, "-h"] for name in COMMANDS),
    ["--help"],
    [],
    ["nope"],
    ["orbit", "--type", "A", "--rank", "2", "--j", "1", "--nope"],
    ["paving", "--partition", "2,1", "--nope"],
    ["decompose", "--rank", "2", "--nope"],
    ["tables", "--type", "E6", "--nope"],
    ["verify", "--nope"],
    ["verify", "x"],
    ["paving", "--partition", "2,1", "--format", "xml"],
    ["orbit", "--type", "A", "--rank", "two", "--j", "1"],
    ["tables"],
    ["paving", "--partition=2,1"],
    ["orbit", "--type", "A", "--rank", "3", "--partition", "2,2", "--form=text"],
    ["verify", "--max=3"],
    ["decompose", "--rank", "-3"],
    ["orbit", "--type", "A", "--rank", "3", "--j", "-"],
    ["orbit", "--type", "A", "--rank", "3", "--j", "-x"],
    ["paving", "--partition", "2,1", "--cells", "--cells"],
    ["decompose", "--rank", "3", "--rank", "4"],
]


# Exact, abbreviated and foreign option strings, "=" forms, -h and --, with
# values that argparse reads as values, as options or as neither.
FLAGS = sorted({flag for _, _, options in COMMANDS.values() for flag, _ in options})
VALUES = st.sampled_from(
    ["", "-", "-3", "-\u0663", "-3\n", "-x", " 3", "x", "JSON", "3.0", "3", "2,1", "E6", "json", "text"]
)


@st.composite
def argument_vectors(draw):
    """A command, its required options or not, and a few chunks of options and values.

    Half the vectors take only the command's own options, a switch alone
    and any other with a value, so that many of them are plain.
    """
    name = draw(st.sampled_from(list(COMMANDS)))
    options = COMMANDS[name][2]
    own = [flag for flag, _ in options]
    exact = st.sampled_from(options).flatmap(
        lambda option: st.just([option[0]])
        if option[1].get("action") == "store_true"
        else VALUES.map(lambda value: [option[0], value])
    )
    flags = st.one_of(
        st.sampled_from(own),
        st.sampled_from(own).map(lambda flag: flag[:-1]),
        st.sampled_from(FLAGS + ["-h", "--"]),
    )
    any_chunk = st.one_of(
        exact,
        st.tuples(flags, VALUES).map(list),
        st.tuples(flags, VALUES).map(lambda pair: ["=".join(pair)]),
        flags.map(lambda flag: [flag]),
        VALUES.map(lambda value: [value]),
    )
    argv = [name]
    if draw(st.booleans()):
        for flag, kwargs in options:
            if kwargs.get("required"):
                argv += [flag, draw(VALUES)]
    for chunk in draw(st.lists(draw(st.sampled_from([exact, any_chunk])), max_size=5)):
        argv += chunk
    return argv


def record_parsers(monkeypatch):
    """The list to which each ArgumentParser built from now on adds its prog."""
    progs = []
    parser_init = argparse.ArgumentParser.__init__

    def counted_parser(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        parser_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_parser)
    return progs


def reference_outcome(capsys, argv):
    """``outcome`` of ``argv`` when `_plain_args` reads nothing, so that `build_parser` parses it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_plain_args", lambda argv: None)
        return outcome(capsys, argv)


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_answers_as_the_five_command_parser(self, capsys, argv):
        assert outcome(capsys, argv) == reference_outcome(capsys, argv)

    def test_usage_and_errors_name_every_command(self, capsys):
        usage = "usage: nilorbits [-h] {orbit,paving,decompose,tables,verify} ...\n"
        _, _, err = outcome(capsys, [])
        assert err == usage + "nilorbits: error: the following arguments are required: command\n"
        _, _, err = outcome(capsys, ["nope"])
        assert err.startswith(usage + "nilorbits: error: argument command: invalid choice: 'nope'")
        _, _, err = outcome(capsys, ["verify", "--nope"])
        assert err == usage + "nilorbits: error: unrecognized arguments: --nope\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbit", "--type", "A", "--rank", "2", "--j", "1"],
            ["paving", "--partition", "2,1"],
            ["decompose", "--rank", "2"],
            ["tables", "--type", "E6"],
            ["verify", "--max-rank", "1"],
            [],
            ["--help"],
            ["nope"],
            ["verify", "--nope"],
        ],
    )
    def test_builds_the_subparser_of_the_named_command_only(self, capsys, monkeypatch, argv):
        # A plain vector builds no parser at all; every other one builds the
        # five-command tree of build_parser, and nothing more.
        progs = record_parsers(monkeypatch)
        subparser_actions = []
        action_init = argparse._SubParsersAction.__init__

        def counted_action(self, *args, **kwargs):
            subparser_actions.append(self)
            action_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "__init__", counted_action)
        outcome(capsys, argv)
        if argv and argv[0] in COMMANDS and argv[1:] != ["--nope"]:
            assert progs == [] and subparser_actions == []
        else:
            five = ["nilorbits"] + ["nilorbits " + name for name in COMMANDS]
            assert progs == five and len(subparser_actions) == 1

    @pytest.mark.parametrize("workload", ["query-mix", "paving", "verify"])
    def test_every_benchmark_request_is_plain(self, monkeypatch, workload):
        monkeypatch.syspath_prepend(str(BENCH))
        import workloads

        for seed in range(6):
            for req in workloads.requests(workload, seed):
                assert cli._plain_args(list(req.argv)) is not None, req.argv

    @settings(max_examples=400, deadline=None)
    @given(argv=argument_vectors())
    @example(argv=["decompose", "--rank", "-3"])
    @example(argv=["decompose", "--rank", "-\u0663"])
    @example(argv=["orbit", "--type", "A", "--rank", "3", "--j", "-"])
    @example(argv=["paving", "--partition", "2,1", "--cells", "--cells", "--bound", " 3"])
    @example(argv=["decompose", "--rank", "3", "--rank", "4"])
    @example(argv=["verify"])
    def test_plain_reader_agrees_with_the_five_command_parser(self, argv):
        args = cli._plain_args(argv)
        if args is not None:
            expected = vars(cli.build_parser().parse_args(argv))
            del expected["command"]
            assert vars(args) == expected


def replay_workload(monkeypatch, workload):
    """Run the benchmark's requests of ``workload`` at its default seed against bench/golden.json.

    Every request is plain, so the replay must build no argparse parser.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import client

    progs = record_parsers(monkeypatch)
    golden = json.loads((BENCH / "golden.json").read_text())[workload]
    result = client.run_pass(workload, client.DEFAULT_SEED, None, golden)
    assert result["attempted"] == len(golden)
    assert result["failed"] == 0, result["problems"]
    assert progs == []


def test_paving_workload_matches_recorded_stdout(monkeypatch):
    # Every exit code and stdout byte, cell order included, must match.
    replay_workload(monkeypatch, "paving")


def test_query_mix_workload_matches_recorded_stdout(monkeypatch):
    # Guards the bytes of orbit and decompose output, the users of the
    # closed-form orbit and cell dimensions, and the refused requests.
    replay_workload(monkeypatch, "query-mix")


def test_verify_workload_matches_recorded_stdout(monkeypatch):
    # Pins every suite's checked count at ranks 6, 7 and 10.
    replay_workload(monkeypatch, "verify")


def test_bench_wraps_every_suite_that_run_all_calls(monkeypatch):
    # bench/spans.py gives each suite in SUITES a span; a suite that run_all
    # calls but SUITES misses would file its time under its caller.
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    called = set()

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in [n for n in vars(checks) if n.startswith("check_")]:
        monkeypatch.setattr(checks, name, recorded(name, getattr(checks, name)))
    assert all(r.ok for r in checks.run_all(max_rank=3))
    assert called == {"check_" + suite for suite in spans.SUITES}
