"""Step 2 of the bill-capping algorithm: throughput maximization.

Implements the paper's Section V optimization (eq. 8-9): when the
minimized cost would bust the hourly budget ``Cs``, maximize the served
request rate subject to the *cost* staying below the budget (and the
same power-cap / QoS constraints as step 1). The served rate can fall
short of the offered load; the bill capper layers the premium/ordinary
admission policy on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..solver import InfeasibleError, quicksum
from .allocation import CappingStep, HourlyDecision
from .cost_min import (
    _use_decomposition,
    _zero_decision,
    resolve_solver_backend,
)
from .decomposition import DecompositionSolver
from .dispatch_model import RATE_SCALE, _decision_from, build_dispatch_model
from .model_cache import DispatchModelCache
from .site import SiteHour

__all__ = ["ThroughputMaximizer"]


@dataclass
class ThroughputMaximizer:
    """Budget-constrained throughput maximization (the paper's eq. 8-9).

    Parameters
    ----------
    backend:
        Solver backend name or object; default HiGHS.
    solver_backend:
        Registered backend name for the compiled hot path, with the
        same semantics as :class:`~repro.core.cost_min.CostMinimizer`
        (``REPRO_SOLVER_BACKEND`` env default, ``"decomposition"``
        for the region-decomposed solver, size-based auto-activation).
    cost_tiebreak_weight:
        Among maximum-throughput solutions, prefer cheaper ones: the
        objective is ``sum lambda_i - w * total_cost`` with ``w`` small
        enough (in rate-per-dollar units) never to trade throughput for
        money. Set to 0 to disable.
    """

    backend: object | None = None
    solver_backend: str | None = None
    cost_tiebreak_weight: float = 1e-6
    step_margin_frac: float = 0.01
    model_cache: DispatchModelCache | None = field(
        default=None, repr=False, compare=False
    )

    def solve(
        self,
        site_hours: list[SiteHour],
        offered_rate_rps: float,
        budget: float,
        *,
        peak_mw: float | None = None,
        peak_penalty: float = 0.0,
    ) -> HourlyDecision:
        """Serve as much of ``offered_rate_rps`` as ``budget`` allows.

        Returns a decision whose ``served_total_rps`` is the achievable
        throughput ``lambda_throughput`` of Section V-A; all of it is
        reported as a single class (the bill capper splits classes).

        With a demand charge in force (``peak_mw`` = the billing
        cycle's peak average power so far, ``peak_penalty`` = its $/MW
        rate), the hour's bill inside the budget row and the cost
        tiebreak becomes ``energy + penalty * max(0, total_power -
        peak_mw)``, linearized with one ``peak_excess`` variable — the
        maximizer then shaves new peaks whenever throughput permits.
        The region decomposition and the enumeration kernel assume a
        site-separable bill, so the peak term routes around both.
        """
        if offered_rate_rps < 0:
            raise ValueError("offered rate must be >= 0")
        if budget < 0:
            raise ValueError("budget must be >= 0")
        peak_active = peak_mw is not None and peak_penalty > 0.0
        if offered_rate_rps == 0:
            decision = _zero_decision(site_hours, CappingStep.THROUGHPUT_MAX)
            return _with_budget(decision, budget)

        backend, solver_backend = resolve_solver_backend(
            self.backend, self.solver_backend
        )
        if not peak_active and _use_decomposition(
            backend, solver_backend, len(site_hours)
        ):
            out = DecompositionSolver().solve_throughput_max(
                site_hours, offered_rate_rps, budget,
                self.step_margin_frac, self.cost_tiebreak_weight,
            )
            if out is not None:
                decision = out.to_decision(
                    site_hours, CappingStep.THROUGHPUT_MAX
                )
                return _with_budget(decision, budget)
            # Uncertified gap: fall through to the monolithic solve.

        if backend is None:
            if self.model_cache is None:
                cache_backend = (
                    None if solver_backend == "decomposition" else solver_backend
                )
                self.model_cache = DispatchModelCache(
                    solver_backend=cache_backend
                )
            decision = self.model_cache.solve_throughput_max(
                site_hours, offered_rate_rps, budget,
                self.step_margin_frac, self.cost_tiebreak_weight,
                peak_mw=peak_mw if peak_active else None,
                peak_penalty=peak_penalty if peak_active else 0.0,
            )
            return _with_budget(decision, budget)

        dm = build_dispatch_model(
            site_hours, name="throughput-max", step_margin_frac=self.step_margin_frac
        )
        dm.model.add(
            dm.total_rate_scaled <= offered_rate_rps / RATE_SCALE, name="demand"
        )
        total_bill = dm.total_cost
        if peak_active:
            peak_excess = dm.model.var("peak_excess", lb=0.0)
            dm.model.add(
                quicksum(s.power for s in dm.sites) - peak_excess <= peak_mw,
                name="peak",
            )
            total_bill = total_bill + peak_penalty * peak_excess
        dm.model.add(total_bill <= budget, name="budget")
        objective = dm.total_rate_scaled
        if self.cost_tiebreak_weight > 0:
            objective = objective - self.cost_tiebreak_weight * total_bill
        dm.model.maximize(objective)
        # All-zero dispatch is always feasible (cost 0 <= budget), so a
        # failure here is a solver error rather than a modeling outcome.
        res = dm.model.solve(backend=backend, raise_on_failure=True)
        decision = _decision_from(dm, res, CappingStep.THROUGHPUT_MAX)
        return _with_budget(decision, budget)


def _with_budget(decision: HourlyDecision, budget: float) -> HourlyDecision:
    return HourlyDecision(
        step=decision.step,
        allocations=decision.allocations,
        served_premium_rps=decision.served_premium_rps,
        served_ordinary_rps=decision.served_ordinary_rps,
        demand_premium_rps=decision.demand_premium_rps,
        demand_ordinary_rps=decision.demand_ordinary_rps,
        predicted_cost=decision.predicted_cost,
        budget=budget,
    )
