"""Built-in dispatch strategies, registered with :mod:`repro.sim.registry`.

Each class adapts one of the repo's dispatchers to the
:class:`~repro.sim.engine.DispatchStrategy` protocol the engine drives:

* :class:`CappingStrategy` — the paper's two-step
  :class:`~repro.core.BillCapper` (``capping``);
* :class:`MinOnlyStrategy` — the Min-Only price-taker baseline in its
  three price modes (``min-only-avg`` / ``min-only-low`` /
  ``min-only-current``);
* :class:`HierarchicalStrategy` — the Section IX two-level
  :class:`~repro.core.HierarchicalBillCapper` (``hierarchical``).

Importing this module populates the registry; entry points go through
:func:`repro.sim.registry.get_strategy` and never instantiate these
directly. A custom strategy needs only the protocol plus one
``register_strategy`` call — see ``docs/TUTORIAL.md`` for a worked
example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import (
    BillCapper,
    CappingStep,
    HierarchicalBillCapper,
    HourlyDecision,
    MinOnlyDispatcher,
    PriceMode,
    regions_of,
)
from .engine import Engine, HourContext
from .registry import register_strategy

__all__ = ["CappingStrategy", "MinOnlyStrategy", "HierarchicalStrategy"]


@dataclass
class CappingStrategy:
    """The paper's two-step Cost Capping algorithm as an engine strategy.

    A demand charge in the run's tariff exposes its linearized peak
    term (``(cycle peak, $/MW penalty)``) to the capper; the energy-only
    default yields ``None`` and the capper's flow is untouched.
    """

    name = "capping"
    result_name = "cost-capping"
    wants_budget = True

    capper: BillCapper = field(default_factory=BillCapper)

    def prepare(self, world: Engine) -> None:
        pass

    def decide(self, ctx: HourContext) -> HourlyDecision:
        return self.capper.decide(
            ctx.site_hours,
            ctx.demand_premium_rps,
            ctx.demand_ordinary_rps,
            ctx.budget,
            peak_term=(
                ctx.ledger.peak_term(ctx.hour)
                if ctx.ledger is not None else None
            ),
        )


@dataclass
class MinOnlyStrategy:
    """A Min-Only price-taker baseline as an engine strategy.

    The dispatcher is built in :meth:`prepare` from the world's sites
    (server-only affine slopes) unless one is supplied. Min-Only is
    class-blind; the decision is re-wrapped with the true customer mix
    so throughput comparisons stay apples to apples.
    """

    mode: PriceMode
    dispatcher: MinOnlyDispatcher | None = None

    wants_budget = False

    @property
    def name(self) -> str:
        return f"min-only-{self.mode.value}"

    @property
    def result_name(self) -> str:
        return f"min-only-{self.mode.value}"

    def prepare(self, world: Engine) -> None:
        if self.dispatcher is None:
            self.dispatcher = MinOnlyDispatcher.for_sites(
                world.sites, self.mode
            )

    def decide(self, ctx: HourContext) -> HourlyDecision:
        decision = self.dispatcher.solve(ctx.site_hours, ctx.total_rps)
        return HourlyDecision(
            step=CappingStep.BASELINE,
            allocations=decision.allocations,
            served_premium_rps=ctx.demand_premium_rps,
            served_ordinary_rps=ctx.demand_ordinary_rps,
            demand_premium_rps=ctx.demand_premium_rps,
            demand_ordinary_rps=ctx.demand_ordinary_rps,
            predicted_cost=decision.predicted_cost,
        )


@dataclass
class HierarchicalStrategy:
    """The Section IX hierarchical bill capper as an engine strategy.

    Sites are grouped into fixed contiguous regions of
    ``sites_per_region``; each hour the regions bid sampled cost curves
    and the coordinator splits the load (see
    :mod:`repro.core.hierarchical`). Far more expensive per hour than
    the flat capper — meant for short comparative runs, not full months.
    """

    capper: HierarchicalBillCapper = field(
        default_factory=HierarchicalBillCapper
    )
    sites_per_region: int = 3

    name = "hierarchical"
    result_name = "hierarchical"
    wants_budget = True

    def prepare(self, world: Engine) -> None:
        pass

    def decide(self, ctx: HourContext) -> HourlyDecision:
        regions = regions_of(ctx.site_hours, self.sites_per_region)
        return self.capper.decide(
            regions,
            ctx.demand_premium_rps,
            ctx.demand_ordinary_rps,
            ctx.budget,
        )


register_strategy("capping", CappingStrategy)
register_strategy("min-only-avg", lambda: MinOnlyStrategy(PriceMode.AVG))
register_strategy("min-only-low", lambda: MinOnlyStrategy(PriceMode.LOW))
register_strategy(
    "min-only-current", lambda: MinOnlyStrategy(PriceMode.CURRENT)
)
register_strategy("hierarchical", HierarchicalStrategy)
