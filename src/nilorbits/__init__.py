"""Exact combinatorial invariants of nilpotent orbits.

Covering-fiber groups Z(J), orbit partitions P(J) with an independent
Jordan-form oracle, affine pavings of type-A Springer fibers, orbit
fundamental groups with the kernel-order identity, a type-A summand
report, and self-validating E6/E7 orbit tables.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each export and the module that defines it, which holds its only binding:
# ``__getattr__`` imports the module on first use and stores nothing here.
_EXPORTS = {
    "CellPaving": "paving",
    "ComponentLabel": "core",
    "DataIntegrityError": "core",
    "DynkinDiagram": "core",
    "FiniteGroupDescriptor": "orbits",
    "InputError": "core",
    "IntMatrix": "jordan",
    "KernelReport": "orbits",
    "LabeledDiagram": "paving",
    "LieType": "core",
    "OrbitRecord": "tables",
    "Partition": "core",
    "ResourceBoundError": "core",
    "SubsetJ": "core",
    "SummandRecord": "decomposition",
    "TableauPermutation": "paving",
    "UnsupportedFamilyError": "core",
    "center_fiber": "orbits",
    "classify_subdiagram": "core",
    "conjugate_heights": "core",
    "dump_tsv": "tables",
    "dynkin_diagram": "core",
    "enumerate_cells": "paving",
    "fundamental_groups": "orbits",
    "kernel_check": "orbits",
    "labeled_diagrams": "paving",
    "max_cell_dimension": "paving",
    "orbit_dimension_type_a": "orbits",
    "orbit_partition": "orbits",
    "partitions_of": "core",
    "phi_w": "paving",
    "phi_w_x": "paving",
    "records": "tables",
    "records_as_dicts": "tables",
    "representative_matrix": "jordan",
    "summand_report": "decomposition",
    "syt_count": "core",
    "table_lookup": "tables",
    "validate_tables": "tables",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _EXPORTS[name], __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
