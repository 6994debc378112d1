"""Exact combinatorial invariants of nilpotent orbits.

Covering-fiber groups Z(J), orbit partitions P(J) with an independent
Jordan-form oracle, affine pavings of type-A Springer fibers, orbit
fundamental groups with the kernel-order identity, a type-A summand
report, and self-validating E6/E7 orbit tables.
"""

from .core import (
    ComponentLabel,
    DataIntegrityError,
    DynkinDiagram,
    InputError,
    LieType,
    Partition,
    ResourceBoundError,
    SubsetJ,
    UnsupportedFamilyError,
    classify_subdiagram,
    conjugate_heights,
    dynkin_diagram,
    gcd_of_set,
    partitions_of,
    syt_count,
)
from .decomposition import SummandRecord, summand_report
from .jordan import IntMatrix, jordan_partition, rank_sequence, representative_matrix
from .orbits import (
    FiniteGroupDescriptor,
    KernelReport,
    OrbitPartitionResult,
    center_fiber,
    fundamental_groups,
    kernel_check,
    orbit_dimension_type_a,
    orbit_partition,
)
from .paving import (
    CellPaving,
    LabeledDiagram,
    PavingCell,
    TableauPermutation,
    enumerate_cells,
    labeled_diagrams,
    max_cell_dimension,
    pair_matrix,
    phi_w,
    phi_w_x,
    phi_x,
)
from .tables import (
    OrbitRecord,
    TableValidationReport,
    dump_tsv,
    records,
    records_as_dicts,
    table_lookup,
    validate_tables,
)

__version__ = "0.1.0"

__all__ = [
    "CellPaving",
    "ComponentLabel",
    "DataIntegrityError",
    "DynkinDiagram",
    "FiniteGroupDescriptor",
    "InputError",
    "IntMatrix",
    "KernelReport",
    "LabeledDiagram",
    "LieType",
    "OrbitPartitionResult",
    "OrbitRecord",
    "Partition",
    "PavingCell",
    "ResourceBoundError",
    "SubsetJ",
    "SummandRecord",
    "TableValidationReport",
    "TableauPermutation",
    "UnsupportedFamilyError",
    "center_fiber",
    "classify_subdiagram",
    "conjugate_heights",
    "dump_tsv",
    "dynkin_diagram",
    "enumerate_cells",
    "fundamental_groups",
    "gcd_of_set",
    "jordan_partition",
    "kernel_check",
    "labeled_diagrams",
    "max_cell_dimension",
    "orbit_dimension_type_a",
    "orbit_partition",
    "pair_matrix",
    "partitions_of",
    "phi_w",
    "phi_w_x",
    "phi_x",
    "rank_sequence",
    "records",
    "records_as_dicts",
    "representative_matrix",
    "summand_report",
    "syt_count",
    "table_lookup",
    "validate_tables",
]
