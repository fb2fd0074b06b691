"""Core bill-capping algorithms (the paper's primary contribution).

* :class:`CostMinimizer` — Section IV's price-maker-aware cost
  minimization MILP;
* :class:`ThroughputMaximizer` — Section V's throughput maximization
  within a cost budget;
* :class:`Budgeter` — monthly -> hourly budgets with weekly carryover;
* :class:`BillCapper` — the two-step orchestration;
* :class:`MinOnlyDispatcher` — the Min-Only (Avg/Low) baselines;
* :class:`Site` / :class:`SiteHour` — a data center bound to its local
  power market.
"""

from .allocation import Allocation, CappingStep, HourlyDecision
from .baselines import MinOnlyDispatcher, PriceMode, server_only_affine_slope
from .bill_capper import BillCapper
from .budgeter import Budgeter
from .cost_min import CostMinimizer
from .decomposition import (
    DecompositionOutcome,
    DecompositionSolver,
    decomposition_auto_sites,
    partition_market_regions,
)
from .dispatch_model import (
    DispatchModel,
    SiteVars,
    build_dispatch_model,
    piecewise_widths,
)
from .linearize import LinearizedCost, add_stepped_cost, reachable_segments
from .model_cache import DispatchModelCache
from .hierarchical import (
    HierarchicalBillCapper,
    HierarchicalDispatcher,
    Region,
    RegionalBid,
    regions_of,
)
from .robust_budgeter import AdaptiveBudgeter
from .site import Site, SiteHour
from .storage import StorageSchedule, evaluate_schedule, plan_storage_schedule
from .throughput_max import ThroughputMaximizer

__all__ = [
    "Site",
    "SiteHour",
    "Allocation",
    "CappingStep",
    "HourlyDecision",
    "LinearizedCost",
    "add_stepped_cost",
    "reachable_segments",
    "DispatchModel",
    "SiteVars",
    "build_dispatch_model",
    "piecewise_widths",
    "DispatchModelCache",
    "DecompositionSolver",
    "DecompositionOutcome",
    "decomposition_auto_sites",
    "partition_market_regions",
    "CostMinimizer",
    "ThroughputMaximizer",
    "Budgeter",
    "BillCapper",
    "MinOnlyDispatcher",
    "PriceMode",
    "server_only_affine_slope",
    "StorageSchedule",
    "plan_storage_schedule",
    "evaluate_schedule",
    "AdaptiveBudgeter",
    "Region",
    "RegionalBid",
    "HierarchicalDispatcher",
    "HierarchicalBillCapper",
    "regions_of",
]
