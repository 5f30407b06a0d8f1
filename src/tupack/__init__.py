"""Air-cargo transport unit consolidation toolkit.

Pack heterogeneous boxes onto pallet-style transport units, minimizing a
volume + TU-count + center-of-gravity objective with an extreme-point
constructive heuristic inside an iterated local search; generate benchmark
instances whose covering lower bound certifies a reachable optimum.
"""

from .geometry import (
    BoxSpec,
    BoxUnpackableError,
    CgReport,
    EmptyTuError,
    LoadedTu,
    ObjectiveParams,
    Orientation,
    Placement,
    Solution,
    TuType,
    boxes_overlap,
    center_of_gravity,
    enumerate_orientations,
    fill_rate,
    fitness,
    shipment_cost,
    taxable_weight,
    validate_tu,
    volumetric_weight,
    within_bounds,
)
from .packer import (
    CostParams,
    ExtremePoint,
    PackResult,
    SortParams,
    can_fit,
    eps_of_layout,
    pack_3dbp,
    placement_cost,
    sort_boxes,
)
from .lowerbound import DemandPoint, LowerBound, solve_lower_bound
from .generator import (
    DEFAULT_CATALOG,
    Instance,
    PartitionBounds,
    generate_instance,
    partition_scheme1,
    partition_scheme2,
    partition_scheme3,
    validate_solution,
)
from .search import SearchParams, SolveStats, TypePointer, solve

__version__ = "0.1.0"

__all__ = [
    "BoxSpec", "BoxUnpackableError", "CgReport", "EmptyTuError", "LoadedTu",
    "ObjectiveParams", "Orientation", "Placement", "Solution", "TuType",
    "boxes_overlap", "center_of_gravity", "enumerate_orientations", "fill_rate",
    "fitness", "shipment_cost", "taxable_weight", "validate_tu",
    "volumetric_weight", "within_bounds",
    "CostParams", "ExtremePoint", "PackResult", "SortParams", "can_fit",
    "eps_of_layout", "pack_3dbp", "placement_cost", "sort_boxes",
    "DemandPoint", "LowerBound", "solve_lower_bound",
    "DEFAULT_CATALOG", "Instance", "PartitionBounds", "generate_instance",
    "partition_scheme1", "partition_scheme2", "partition_scheme3", "validate_solution",
    "SearchParams", "SolveStats", "TypePointer", "solve",
]
