"""Simulation of dispatch strategies over workload months.

The hourly control loop lives in :class:`~repro.sim.engine.Engine`;
strategies resolve by name through :mod:`repro.sim.registry`
(:func:`register_strategy` / :func:`get_strategy` /
:func:`available_strategies`), and ``Engine.run`` takes either a
name or a strategy instance.
"""

from .analysis import (
    BudgetAdherence,
    budget_adherence,
    compare,
    format_comparison,
    price_level_occupancy,
    savings,
    site_breakdown,
)
from .engine import DispatchStrategy, Engine, HourContext
from .montecarlo import SeedStudy, run_study, savings_study
from .parallel import (
    STRATEGIES,
    compare_strategies,
    resolve_monthly_budget,
    run_one_strategy,
)
from .records import HourRecord, SimulationResult, SiteRecord
from .endogenous import EndogenousPriceMiddleware, EndogenousPrices
from .registry import available_strategies, get_strategy, register_strategy
from .sweep import closedloop_metric, derive_seed, run_sweep, sweep_grid

__all__ = [
    "Engine",
    "DispatchStrategy",
    "HourContext",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "SimulationResult",
    "HourRecord",
    "SiteRecord",
    "savings",
    "BudgetAdherence",
    "budget_adherence",
    "price_level_occupancy",
    "site_breakdown",
    "compare",
    "format_comparison",
    "SeedStudy",
    "run_study",
    "savings_study",
    "STRATEGIES",
    "compare_strategies",
    "resolve_monthly_budget",
    "run_one_strategy",
    "sweep_grid",
    "run_sweep",
    "derive_seed",
    "closedloop_metric",
    "EndogenousPrices",
    "EndogenousPriceMiddleware",
]
