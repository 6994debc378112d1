"""Closed-form invariant maps for nilpotent orbits.

Per-family case rules for the covering-fiber group Z(J), the orbit
partition P(J), type-A orbit dimensions, orbit fundamental groups
pi1(O) and A(O) from the partition shape, and the kernel-order
consistency report |Z(J)| * |A(O)| = |pi1(O)|.
"""

from __future__ import annotations

from math import gcd
from operator import mul, sub

from .core import (
    InputError,
    LieType,
    Partition,
    SubsetJ,
    UnsupportedFamilyError,
    Value,
    check_subset_range,
    echo_text,
    echo_value,
    require_instance,
    require_int,
)


class FiniteGroupDescriptor(Value):
    """Order plus a structure tag for the small groups that occur.

    Kinds: trivial, cyclic (with its order), elementary_abelian_2 (with
    the exponent k, order 2^k), central_extension_2 (a central extension
    by Z/2 of (Z/2)^k, order 2^(k+1); the extension class is not pinned
    down), klein_four (Z/2 x Z/2), symmetric_2 (the component group
    labelled S_2, order 2).
    """

    __slots__ = ("kind", "parameter")

    # kind -> (least parameter, None for a kind that takes none; order; name)
    _KINDS = {
        "trivial": (None, lambda p: 1, lambda p: "1"),
        "cyclic": (2, lambda p: p, lambda p: "Z/%dZ" % p),
        "elementary_abelian_2": (
            1, lambda p: 2**p, lambda p: "Z/2Z" if p == 1 else "(Z/2Z)^%d" % p
        ),
        "central_extension_2": (
            0,
            lambda p: 2 ** (p + 1),
            lambda p: "central extension of (Z/2Z)^%d by Z/2Z" % p
            if p
            else "Z/2Z (central extension type)",
        ),
        "klein_four": (None, lambda p: 4, lambda p: "Z/2Z x Z/2Z"),
        "symmetric_2": (None, lambda p: 2, lambda p: "S_2"),
    }

    def __init__(self, kind: str, parameter: int | None = None) -> None:
        if require_instance(kind, str, "group kind") not in self._KINDS:
            raise InputError("unknown group kind %s" % echo_text(kind))
        least = self._KINDS[kind][0]
        if least is None:
            if parameter is not None:
                raise InputError("kind %s takes no parameter" % kind)
        elif parameter is None:
            raise InputError("kind %s needs a parameter" % kind)
        elif require_int(parameter, "%s parameter" % kind) < least:
            raise InputError(
                "%s parameter must be >= %d, got %s" % (kind, least, echo_value(parameter))
            )
        Value.__init__(self, kind, parameter)

    @property
    def order(self) -> int:
        return self._KINDS[self.kind][1](self.parameter)

    @property
    def label(self) -> str:
        if self.parameter is None:
            return self.kind
        return "%s(%d)" % (self.kind, self.parameter)

    def as_json(self) -> dict:
        """The group as the CLI and the table dump print it in JSON."""
        return {"kind": self.label, "order": self.order}

    @property
    def math_name(self) -> str:
        return self._KINDS[self.kind][2](self.parameter)

    # The three factories below check their int, then build unchecked;
    # order 1 and exponent 0 give the shared trivial group.
    @classmethod
    def cyclic(cls, c: int) -> "FiniteGroupDescriptor":
        if require_int(c, "cyclic order") < 1:
            raise InputError("cyclic order must be >= 1, got %s" % echo_value(c))
        return _TRIVIAL if c == 1 else cls._trusted("cyclic", c)

    @classmethod
    def elementary_abelian_2(cls, k: int) -> "FiniteGroupDescriptor":
        if require_int(k, "exponent") < 0:
            raise InputError("exponent must be >= 0, got %s" % echo_value(k))
        return _TRIVIAL if k == 0 else cls._trusted("elementary_abelian_2", k)

    @classmethod
    def central_extension_2(cls, k: int) -> "FiniteGroupDescriptor":
        if k is None:
            raise InputError("kind central_extension_2 needs a parameter")
        if require_int(k, "central_extension_2 parameter") < 0:
            raise InputError("exponent must be >= 0, got %s" % echo_value(k))
        return cls._trusted("central_extension_2", k)


class KernelReport(Value):
    __slots__ = ("zj_order", "pi1_order", "a_order", "holds")


# The fixed groups that center_fiber returns outside type A, built once and
# shared; values are immutable, so sharing one is safe.
_TRIVIAL = FiniteGroupDescriptor("trivial")
_Z2 = FiniteGroupDescriptor.cyclic(2)
_Z3 = FiniteGroupDescriptor.cyclic(3)
_Z4 = FiniteGroupDescriptor.cyclic(4)
_KLEIN_FOUR = FiniteGroupDescriptor("klein_four")


def center_fiber(t: LieType, j: SubsetJ) -> FiniteGroupDescriptor:
    """Covering-fiber group over the torus orbit indexed by J.

    Empty J is admitted in every family and evaluates each case rule
    vacuously (so e.g. "all j even" holds and type A reduces to
    gcd({n+1}) = n+1).  E8, F4 and G2 have trivial center, hence a
    trivial fiber for every J.  Outside type A the group is one of 1,
    Z/2, Z/3, Z/4 and Z/2 x Z/2, returned as a shared module-level
    descriptor that was built once at import; type A builds Z/c through
    ``FiniteGroupDescriptor.cyclic``, c being a gcd with n + 1 >= 2.
    """
    require_instance(t, LieType, "Lie type")
    check_subset_range(t, require_instance(j, SubsetJ, "subset"))
    fam, n = t.family, t.rank
    elems = j.elements
    if fam == "A":
        return FiniteGroupDescriptor.cyclic(gcd(n + 1, *elems))
    if fam == "B":
        return _Z2 if all(v % 2 == 0 for v in elems) else _TRIVIAL
    if fam == "C":
        return _TRIVIAL if n in j else _Z2
    if fam == "D":
        top = n in j
        second = (n - 1) in j
        if not top and not second:
            if all(v % 2 == 0 for v in elems):
                # full center of the spin group: Z/2 x Z/2 for n even, Z/4 for n odd
                return _KLEIN_FOUR if n % 2 == 0 else _Z4
            return _Z2
        if top != second and all(v % 2 == 0 for v in elems if v < n - 1) and n % 2 == 0:
            return _Z2
        return _TRIVIAL
    if fam == "E6":
        return _TRIVIAL if set(elems) & {1, 3, 5, 6} else _Z3
    if fam == "E7":
        return _TRIVIAL if set(elems) & {2, 5, 7} else _Z2
    # E8, F4, G2: the simply connected group is already adjoint
    return _TRIVIAL


def orbit_partition(t: LieType, j: SubsetJ) -> Partition:
    """Partition of the adjoint orbit containing the torus orbit of J.

    Type A lays the gaps between consecutive elements of J (and the ends
    0 and n+1) out as parts.  Types B, C and D double each gap and add a
    family-specific closing part; D splits into three cases according to
    how J meets {n-1, n}.  Parts are sorted descending here, so the doubled
    gaps may follow each other in any order; zero parts (type C with n in
    J) are dropped.  A very even partition in family D labels two distinct
    orbits; the partition does not pick one.
    """
    require_instance(t, LieType, "Lie type")
    require_instance(j, SubsetJ, "subset")
    if not t.is_classical:
        raise UnsupportedFamilyError(
            "no partition classification for family %s; use the orbit tables" % t.family
        )
    check_subset_range(t, j)
    fam, n = t.family, t.rank
    elems = j.elements
    last = elems[-1] if elems else 0
    gaps = list(map(sub, elems, (0,) + elems))
    if fam == "A":
        gaps.append(n + 1 - last)
    else:
        if fam == "D":
            top, second = n in elems, n - 1 in elems
            if top != second:
                # The one of n-1, n present is the largest element and is
                # replaced by n itself in the gap sequence.
                gaps[-1] += n - last
        gaps += gaps
        if fam == "B":
            gaps.append(2 * (n - last) + 1)
        elif fam == "C":
            gaps.append(2 * (n - last))
        elif not top and not second:
            gaps += (2 * (n - last) - 1, 1)
    # Every gap is a nonnegative int, so sorting and dropping the zeros
    # leaves exactly what Partition's checks would accept.
    return Partition._trusted(tuple(sorted(filter(None, gaps), reverse=True)))


def orbit_dimension_type_a(n: int, p: Partition) -> int:
    """dim O for a partition of n+1 in type A: (n+1)^2 minus the height squares.

    The sum of the squared column heights is computed over the rows, as
    the sum of (2i - 1) * lambda_i with i counted from 1, in O(#parts) work.
    """
    require_int(n, "rank")
    require_instance(p, Partition, "partition")
    if p.total != n + 1:
        raise InputError(
            "partition %s sums to %s, expected n+1 = %d"
            % (echo_value(p), echo_value(p.total), n + 1)
        )
    return (n + 1) ** 2 - sum(map(mul, range(1, 2 * len(p.parts), 2), p.parts))


def fundamental_groups(
    t: LieType, p: Partition
) -> tuple[FiniteGroupDescriptor, FiniteGroupDescriptor]:
    """(pi1(O), A(O)) for the orbit labelled by ``p`` in a classical type.

    Writing a for the number of distinct odd parts, b for the number of
    distinct even parts and c for the gcd of the parts:

      sl:        pi1 = Z/c,                         A = 1
      so odd:    pi1 = 2.(Z/2)^(a-1) if rather odd
                 else (Z/2)^(a-1),                  A = (Z/2)^(a-1)
      sp:        pi1 = (Z/2)^b,                     A = (Z/2)^b if every even
                                                    part has even multiplicity,
                                                    else (Z/2)^(b-1)
      so even:   as so odd with exponent max(0, a-1); A drops to
                 max(0, a-2) unless every odd part has even multiplicity

    A partition of the wrong total is refused first; then an so (sp)
    partition with an even (odd) part of odd multiplicity.
    """
    require_instance(t, LieType, "Lie type")
    require_instance(p, Partition, "partition")
    if not t.is_classical:
        raise UnsupportedFamilyError(
            "fundamental groups by partition exist only for classical families, not %s"
            % t.family
        )
    fam, total = t.family, t.matrix_dimension
    if p.total != total:
        raise InputError(
            "partition %s sums to %s, expected %d for %s"
            % (echo_value(p), echo_value(p.total), total, t)
        )
    counts = p.multiplicities()
    if fam != "A":
        parity, kind, algebra = (1, "odd", "sp") if fam == "C" else (0, "even", "so")
        # set(p.parts) fixes which offending part the message names.
        for v in set(p.parts):
            if v % 2 == parity and counts[v] % 2:
                raise InputError(
                    "%s part %d has odd multiplicity %d; %s_%d orbit partitions need "
                    "%s parts with even multiplicity" % (kind, v, counts[v], algebra, total, kind)
                )
    a = sum(v % 2 for v in counts)
    b = len(counts) - a
    # The checked partition is not empty, and an odd total (type B) has an
    # odd part, so each order and exponent below is in range.
    if fam == "A":
        return FiniteGroupDescriptor.cyclic(p.gcd()), _TRIVIAL
    elementary = FiniteGroupDescriptor.elementary_abelian_2
    if fam == "C":
        even_ok = all(m % 2 == 0 for v, m in counts.items() if v % 2 == 0)
        # An even part of odd multiplicity makes b >= 1.
        return elementary(b), elementary(b if even_ok else b - 1)
    # Rather odd (every odd part occurs exactly once), read off the same count.
    rather_odd = all(m == 1 for v, m in counts.items() if v % 2)
    # Type B has an odd part, so there k = a - 1.
    k = max(0, a - 1)
    pi1 = (FiniteGroupDescriptor.central_extension_2 if rather_odd else elementary)(k)
    if fam == "B":
        return pi1, elementary(k)
    odd_ok = all(m % 2 == 0 for v, m in counts.items() if v % 2)
    a_group = elementary(k if odd_ok else max(0, a - 2))
    return pi1, a_group


def kernel_check(t: LieType, j: SubsetJ) -> KernelReport:
    """Check |Z(J)| * |A(O)| = |pi1(O)| on the orbit attached to J.

    Orders only: the structure of a nonabelian pi1 candidate is not pinned
    down, so the comparison never inspects kinds.
    """
    if not t.is_classical:
        raise UnsupportedFamilyError(
            "kernel check by subset exists only for classical families; "
            "the orbit tables carry the analogous check for %s" % t.family
        )
    zj = center_fiber(t, j).order
    p = orbit_partition(t, j)
    pi1, a_group = fundamental_groups(t, p)
    return KernelReport(zj, pi1.order, a_group.order, zj * a_group.order == pi1.order)
