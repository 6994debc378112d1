"""Summand report for the type-A pushforward decomposition.

For sl_{n+1}, every adjoint orbit carries a cyclic fundamental group of
order c = gcd of its partition; the top cohomology of the covering fiber
contains a copy of the regular representation, so every one of the c
characters is certified to occur as a local-system summand.  The report
lists each (orbit, character) pair with the orbit and fiber dimensions.
Multiplicities are lower bounds only and are never fabricated.
"""

from __future__ import annotations

from .core import (
    InputError,
    ResourceBoundError,
    Value,
    echo_value,
    partitions_of,
    require_int,
)
from .orbits import orbit_dimension_type_a
from .paving import max_cell_dimension

DEFAULT_RANK_BOUND = 20


class SummandRecord(Value):
    """One orbit of sl_{n+1} with its certified character list.

    ``characters`` lists the c character labels 0..c-1 of the cyclic
    fundamental group.  Each occurs at least once; multiplicities are left
    open, so a JSON answer always writes ``"multiplicity_known": false``.
    """

    __slots__ = ("partition", "orbit_dimension", "fiber_dimension", "c", "characters")


def summand_report(n: int) -> list[SummandRecord]:
    """One record per partition of n+1, sorted by orbit dimension descending.

    Ties break on the partition tuple, so output order is deterministic.
    A non-int ``n`` (a bool too) raises InputError before any work, and
    an ``n`` above ``DEFAULT_RANK_BOUND`` raises ResourceBoundError.
    Each record is correct by construction and is built by
    ``SummandRecord._trusted``.
    """
    require_int(n, "rank")
    if n < 1:
        raise InputError("rank must be >= 1, got %s" % echo_value(n))
    if n > DEFAULT_RANK_BOUND:
        raise ResourceBoundError(
            "rank %s exceeds the report bound %d" % (echo_value(n), DEFAULT_RANK_BOUND)
        )
    trusted = SummandRecord._trusted
    # c -> the characters 0..c-1, one tuple shared by every record with that c.
    characters: dict[int, tuple[int, ...]] = {}
    records = []
    for p in partitions_of(n + 1):
        c = p.gcd()
        chars = characters.get(c)
        if chars is None:
            chars = characters[c] = tuple(range(c))
        records.append(
            trusted(p, orbit_dimension_type_a(n, p), max_cell_dimension(p), c, chars)
        )
    records.sort(key=lambda r: (-r.orbit_dimension, r.partition.parts))
    return records
