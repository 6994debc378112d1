import json

import pytest

from nilorbits.cli import main
from nilorbits.core import InputError, ResourceBoundError, partitions_of
from nilorbits.decomposition import summand_report


class TestSummandReport:
    def test_rank_3(self):
        report = summand_report(3)
        assert len(report) == 5
        by_partition = {r.partition.parts: r for r in report}
        assert by_partition[(4,)].c == 4
        assert by_partition[(3, 1)].c == 1
        assert by_partition[(2, 2)].c == 2
        assert by_partition[(2, 1, 1)].c == 1
        assert by_partition[(1, 1, 1, 1)].c == 1
        assert sum(len(r.characters) for r in report) == 9

    def test_rank_1(self):
        report = summand_report(1)
        assert [(r.partition.parts, r.c) for r in report] == [((2,), 2), ((1, 1), 1)]
        assert len(report[0].characters) == 2

    def test_rank_2(self):
        report = summand_report(2)
        assert sum(len(r.characters) for r in report) == 5

    def test_sorted_by_dimension_descending(self):
        report = summand_report(5)
        dims = [r.orbit_dimension for r in report]
        assert dims == sorted(dims, reverse=True)

    def test_trivial_character_everywhere(self):
        for n in range(1, 7):
            for record in summand_report(n):
                assert 0 in record.characters

    def test_character_count_matches_cover(self):
        for n in range(1, 7):
            for record in summand_report(n):
                assert len(record.characters) == record.partition.gcd()

    def test_records_with_one_c_share_their_characters(self):
        shared = {}
        for record in summand_report(20):
            assert record.characters == tuple(range(record.c))
            assert shared.setdefault(record.c, record.characters) is record.characters
        assert sorted(shared) == [1, 3, 7, 21]

    def test_dimension_sum_identity(self):
        for n in range(1, 8):
            report = summand_report(n)
            total = sum(2 * r.fiber_dimension + r.orbit_dimension for r in report)
            count = sum(1 for _ in partitions_of(n + 1))
            assert total == count * n * (n + 1)

    def test_multiplicities_never_claimed(self, capsys):
        assert main(["decompose", "--rank", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 7
        assert all(r["multiplicity_known"] is False for r in payload)

    def test_fiber_dimension_halves_codimension(self):
        for record in summand_report(6):
            assert 2 * record.fiber_dimension == 42 - record.orbit_dimension

    def test_bound_error(self):
        with pytest.raises(ResourceBoundError, match="bound 20"):
            summand_report(21)
        assert len(summand_report(20)) == 792  # the partitions of 21

    def test_rejects_bad_rank(self):
        with pytest.raises(InputError):
            summand_report(0)
