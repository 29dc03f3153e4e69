"""Transport network slice controller simulator.

Evaluates transport-slice requests against a modeled network, scores how
feasible each request's isolation demands are to keep satisfied, and drives
admission and failure-triggered reconfiguration by feasibility ranking.
"""

from .controller import (
    Controller,
    Event,
    EventKind,
    FailurePolicy,
    ReconfigEntry,
    ReconfigPolicy,
    ReconfigOrder,
    ResourceLedger,
)
from .feasibility import (
    DimensionComparison,
    FeasibilityIndex,
    FeasibilityVector,
    TraitValue,
    assess,
    build_vector,
    compare_dimension,
    group_by_boolean,
    harmonic_index,
    merge_index,
    normalize_falling,
    normalize_rising,
    rank,
    rank_key,
)
from .model import (
    DERIVED_BOUNDS,
    DIMENSIONS,
    AllocationRecord,
    AllocationState,
    Bound,
    BoundsMode,
    DeviceProfile,
    Link,
    NetworkTopology,
    Path,
    PortSpec,
    Rejection,
    SliceRequest,
    TraitBounds,
    bounds_from_dict,
    derive_bounds,
    request_from_dict,
    validate_topology,
    weights_from_dict,
)
from .pathfind import (
    DisjointnessMode,
    DisjointSearch,
    k_disjoint_paths,
    max_disjoint_count,
    verify_disjoint,
)
from .scenario import (
    Scenario,
    ScenarioReport,
    canonical_json,
    evaluate,
    load_scenario,
    parse_scenario,
    play_event,
    rank_rows,
    report_to_json,
    rows_to_csv,
    rows_to_json,
    run_scenario,
    scenario_from_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
