"""The bill capper: the paper's two-step hourly control loop.

Section III: every invocation period the bill capper

1. solves *cost minimization* (Section IV) for the full offered load;
2. compares the minimized cost with the budgeter's hourly budget. If it
   fits, the step-1 allocation is enforced. Otherwise it solves
   *throughput maximization within budget* (Section V), which admits
   requests best-effort:

   * if the achievable throughput covers all premium requests, premium
     QoS is guaranteed and ordinary customers get the remainder
     (admission control on ordinary requests only);
   * if the budget cannot even cover premium requests, cost
     minimization is re-solved for the premium load alone and the
     budget is knowingly violated — "the QoS of premium customers must
     be guaranteed" (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry import get_telemetry
from .allocation import CappingStep, HourlyDecision
from .cost_min import CostMinimizer
from .site import SiteHour
from .throughput_max import ThroughputMaximizer

__all__ = ["BillCapper"]

#: Relative slack when comparing cost to budget, avoiding spurious
#: step-2 invocations on solver round-off.
_BUDGET_RTOL = 1e-9


@dataclass
class BillCapper:
    """Two-step electricity-bill-capping dispatcher.

    A :class:`~repro.solver.SolverError` escaping the whole solver
    stack (past the fallback chain) propagates out of :meth:`decide`;
    the engine's dispatch stage (:mod:`repro.sim.engine`) turns it into
    a degraded hour.

    Parameters
    ----------
    cost_minimizer, throughput_maximizer:
        The two optimizers; defaults use the HiGHS backend.
    shed_beyond_capacity:
        When the offered load exceeds the sites' combined servable
        capacity, clamp it (serving as much as physically possible)
        instead of raising. Premium demand is clamped first only after
        ordinary demand is fully shed.
    budget_safety:
        Fraction of the hourly budget handed to the throughput
        maximizer. Step 2 spends right up to its limit, and the
        realized bill (exact stepped models) runs slightly above the
        smooth decision estimate; reserving a small headroom keeps
        realized spending under the true budget.
    """

    cost_minimizer: CostMinimizer = field(default_factory=CostMinimizer)
    throughput_maximizer: ThroughputMaximizer = field(
        default_factory=ThroughputMaximizer
    )
    shed_beyond_capacity: bool = True
    budget_safety: float = 0.98

    def decide(
        self,
        site_hours: list[SiteHour],
        premium_rps: float,
        ordinary_rps: float,
        budget: float,
        *,
        peak_term: tuple[float, float] | None = None,
    ) -> HourlyDecision:
        """Run the two-step algorithm for one invocation period.

        Parameters
        ----------
        site_hours:
            Market/power snapshot of every site.
        premium_rps, ordinary_rps:
            Offered load per customer class (requests/second).
        budget:
            The budgeter's hourly budget Cs ($); ``inf`` disables
            capping (pure cost minimization).
        peak_term:
            ``(cycle_peak_mw, penalty_per_mw)`` when a demand charge is
            in force (see :class:`repro.billing.DemandCharge`). Step
            1's acceptance test then reserves headroom for the demand
            charge the candidate dispatch would incur, and step 2
            prices peak excess inside the budget row so the maximizer
            actively shaves peaks. ``None`` (the default, and always
            under the ``energy`` tariff) preserves the paper's
            energy-only flow bit for bit.
        """
        if premium_rps < 0 or ordinary_rps < 0:
            raise ValueError("offered rates must be >= 0")
        if budget < 0:
            raise ValueError("budget must be >= 0")
        tel = get_telemetry()
        if not tel.enabled:
            return self._decide(
                site_hours, premium_rps, ordinary_rps, budget, peak_term
            )
        with tel.span("capper.decide") as sp:
            decision = self._decide(
                site_hours, premium_rps, ordinary_rps, budget, peak_term
            )
            sp.set(step=decision.step.value, predicted_cost=decision.predicted_cost)
        tel.counter(f"capper.step.{decision.step.value}").inc()
        tel.histogram("capper.predicted_cost").observe(decision.predicted_cost)
        return decision

    def _decide(
        self,
        site_hours: list[SiteHour],
        premium_rps: float,
        ordinary_rps: float,
        budget: float,
        peak_term: tuple[float, float] | None = None,
    ) -> HourlyDecision:
        demand_premium = premium_rps
        demand_ordinary = ordinary_rps
        if self.shed_beyond_capacity:
            capacity = sum(sh.max_rate_rps for sh in site_hours)
            premium_rps = min(premium_rps, capacity)
            ordinary_rps = min(ordinary_rps, capacity - premium_rps)
        total = premium_rps + ordinary_rps

        # Step 1: cost minimization for the full load. The same safety
        # factor guards the acceptance test: the realized bill runs
        # slightly above the smooth decision estimate. Under a demand
        # charge the acceptance compares the *projected hour bill* —
        # energy plus the demand charge the candidate's power peak
        # would incur — so headroom is reserved for both terms.
        step1 = self.cost_minimizer.solve(site_hours, total)
        projected = step1.predicted_cost
        if peak_term is not None:
            cycle_peak_mw, penalty_per_mw = peak_term
            step1_power = sum(
                a.predicted_power_mw for a in step1.allocations
            )
            projected += penalty_per_mw * max(0.0, step1_power - cycle_peak_mw)
        if projected <= budget * self.budget_safety * (1 + _BUDGET_RTOL) + 1e-12:
            return self._classed(
                step1,
                CappingStep.COST_MIN,
                served_premium=premium_rps,
                served_ordinary=ordinary_rps,
                demand_premium=demand_premium,
                demand_ordinary=demand_ordinary,
                budget=budget,
            )

        # Step 2: throughput maximization within the budget (shaved by
        # the safety factor so realized spending lands under the true
        # budget despite the smooth-vs-stepped model gap). The peak
        # term, when in force, rides into the budget row so the
        # maximizer shaves peaks instead of merely paying for them.
        if peak_term is None:
            # No kwargs: caller-supplied maximizers (and test stubs)
            # predating the peak term keep working under `energy`.
            step2 = self.throughput_maximizer.solve(
                site_hours, total, budget * self.budget_safety
            )
        else:
            step2 = self.throughput_maximizer.solve(
                site_hours, total, budget * self.budget_safety,
                peak_mw=peak_term[0], peak_penalty=peak_term[1],
            )
        throughput = step2.served_total_rps
        if throughput >= premium_rps * (1 - 1e-9):
            # The tolerance admits throughput a hair below premium_rps;
            # report what the maximizer actually achieved, never more.
            served_premium = min(premium_rps, throughput)
            return self._classed(
                step2,
                CappingStep.THROUGHPUT_MAX,
                served_premium=served_premium,
                served_ordinary=max(0.0, throughput - served_premium),
                demand_premium=demand_premium,
                demand_ordinary=demand_ordinary,
                budget=budget,
            )

        # Insufficient budget even for premium: guarantee premium QoS,
        # serve no ordinary requests, knowingly violate the budget.
        step3 = self.cost_minimizer.solve(site_hours, premium_rps)
        return self._classed(
            step3,
            CappingStep.PREMIUM_ONLY,
            served_premium=premium_rps,
            served_ordinary=0.0,
            demand_premium=demand_premium,
            demand_ordinary=demand_ordinary,
            budget=budget,
        )

    @staticmethod
    def _classed(
        decision: HourlyDecision,
        step: CappingStep,
        served_premium: float,
        served_ordinary: float,
        demand_premium: float,
        demand_ordinary: float,
        budget: float,
    ) -> HourlyDecision:
        return HourlyDecision(
            step=step,
            allocations=decision.allocations,
            served_premium_rps=served_premium,
            served_ordinary_rps=served_ordinary,
            demand_premium_rps=demand_premium,
            demand_ordinary_rps=demand_ordinary,
            predicted_cost=decision.predicted_cost,
            budget=budget,
        )
