"""repro — reproduction of "Electricity Bill Capping for Cloud-Scale
Data Centers that Impact the Power Markets" (ICPP 2012).

Subpackages
-----------
- :mod:`repro.solver` — self-contained LP/MILP optimization stack;
- :mod:`repro.powermarket` — grids, DC-OPF/LMP, stepped pricing;
- :mod:`repro.datacenter` — server/queueing/network/cooling models;
- :mod:`repro.workload` — traces, synthetic generation, prediction;
- :mod:`repro.core` — the bill-capping algorithms and baselines;
- :mod:`repro.sim` — month-scale simulation;
- :mod:`repro.experiments` — the paper's Section VI setup;
- :mod:`repro.telemetry` — metrics, tracing and solver instrumentation;
- :mod:`repro.resilience` — fault injection and graceful degradation.

The most common entry points are re-exported here.
"""

from .core import (
    BillCapper,
    Budgeter,
    CostMinimizer,
    MinOnlyDispatcher,
    PriceMode,
    Site,
    ThroughputMaximizer,
)
from .experiments import PaperWorld, paper_world
from .resilience import DegradationPolicy, FaultInjector, FaultSpec
from .sim import Engine, SimulationResult
from .telemetry import Telemetry, get_telemetry, use_telemetry

__version__ = "1.2.0"

__all__ = [
    "BillCapper",
    "Budgeter",
    "CostMinimizer",
    "ThroughputMaximizer",
    "MinOnlyDispatcher",
    "PriceMode",
    "Site",
    "Engine",
    "SimulationResult",
    "PaperWorld",
    "paper_world",
    "Telemetry",
    "get_telemetry",
    "use_telemetry",
    "FaultSpec",
    "FaultInjector",
    "DegradationPolicy",
    "__version__",
]
