import json


from nilorbits.cli import EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, main


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
        code, _, err = run(capsys, "tables", "--type", "A")
        assert code == EXIT_INPUT


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
