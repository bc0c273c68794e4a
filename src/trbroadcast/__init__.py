"""Exact toolkit for (t,r) broadcast domination.

Towers of strength t are placed on vertices; signal decays by one per
unit of distance and every vertex demands at least r. The package
computes and audits minimum tower counts on finite graph families,
accounts for signal excess on periodic configurations of the integer
grid, and cross-checks closed-form counts against an exact solver.
"""

from .errors import InputError
from .formulas import (
    construct_cycle_towers,
    construct_path_towers,
    gamma_cycle_power,
    gamma_path_power,
)
from .graphs import (
    Family,
    GraphSpec,
    ball,
    bfs_distances_from,
    distance,
    format_graph_spec,
    near,
    neighbors,
    parse_graph_spec,
)
from .lattice import (
    DiagonalExcess,
    ExcessReport,
    LatticeConfig,
    PeriodicCheck,
    PromotionProfile,
    axis_periods,
    centered_t1_frame,
    config_from_json_dict,
    density,
    excess_at,
    excess_report,
    fundamental_domain,
    promote_check,
    promotion_excess_profile,
    reduce_point,
    t1_tiling,
    t3_tiling,
    verify_periodic,
    window_excess,
)
from .signal import (
    BroadcastCheck,
    SignalParams,
    TowerSet,
    is_broadcasting,
    towers_from_json_dict,
)
from .solver import DEFAULT_NODE_BUDGET, SolveResult, solve

__version__ = "0.1.0"

__all__ = [
    "BroadcastCheck",
    "DEFAULT_NODE_BUDGET",
    "DiagonalExcess",
    "ExcessReport",
    "Family",
    "GraphSpec",
    "InputError",
    "LatticeConfig",
    "PeriodicCheck",
    "PromotionProfile",
    "SignalParams",
    "SolveResult",
    "TowerSet",
    "axis_periods",
    "ball",
    "bfs_distances_from",
    "centered_t1_frame",
    "config_from_json_dict",
    "construct_cycle_towers",
    "construct_path_towers",
    "density",
    "distance",
    "excess_at",
    "excess_report",
    "format_graph_spec",
    "fundamental_domain",
    "gamma_cycle_power",
    "gamma_path_power",
    "is_broadcasting",
    "near",
    "neighbors",
    "parse_graph_spec",
    "promote_check",
    "promotion_excess_profile",
    "reduce_point",
    "solve",
    "t1_tiling",
    "t3_tiling",
    "towers_from_json_dict",
    "verify_periodic",
    "window_excess",
]
