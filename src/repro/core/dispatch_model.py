"""Shared MILP skeleton for the two hourly dispatch problems.

Both of the paper's optimization problems — cost minimization (eq. 1-2)
and throughput maximization within budget (eq. 8-9) — share the same
physics: per-site request rates ``lambda_i``, the affine power model
``p_i = a_i lambda_i + b_i z_i``, power caps, and the stepped-cost
linearization. :func:`build_dispatch_model` constructs that skeleton
once; the two problem classes differ only in objective and in whether
total cost is minimized or budget-constrained.

Scaling note
------------
Cloud-scale rates reach 1e9 requests/second while power slopes sit near
1e-7 MW per request/second; mixing those magnitudes in one constraint
matrix makes HiGHS's MILP presolve declare feasible models infeasible.
The skeleton therefore carries rates internally in **mega-requests per
second** (:data:`RATE_SCALE`), keeping every coefficient within a few
orders of magnitude of 1; :class:`SiteVars` converts back to
requests/second when results are read.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..solver import LinExpr, Model, SolveResult, Variable, quicksum
from .allocation import Allocation, CappingStep, HourlyDecision
from .linearize import LinearizedCost, add_stepped_cost
from .site import SiteHour

__all__ = [
    "RATE_SCALE",
    "SiteVars",
    "DispatchModel",
    "build_dispatch_model",
    "piecewise_widths",
    "single_class_decision",
]

#: Requests/second per internal rate unit (1 unit = 1 Mrps).
RATE_SCALE = 1e6


@dataclass(frozen=True)
class SiteVars:
    """Decision variables attached to one site in the hourly MILP.

    ``rate`` is in scaled units (Mrps); use :meth:`rate_rps` to read a
    solution in requests/second.
    """

    site: SiteHour
    rate: Variable  # lambda_i / RATE_SCALE
    active: Variable  # z_i: site serves any load this hour
    power: Variable  # p_i, MW
    cost: LinearizedCost

    @property
    def cost_expr(self) -> LinExpr:
        return self.cost.cost

    def rate_rps(self, res: SolveResult) -> float:
        """Dispatched rate in requests/second at the solution."""
        return max(0.0, res.value(self.rate)) * RATE_SCALE


@dataclass(frozen=True)
class DispatchModel:
    """The compiled hourly dispatch skeleton."""

    model: Model
    sites: list[SiteVars]

    @property
    def total_cost(self) -> LinExpr:
        """Sum of the sites' hourly bills ($)."""
        return quicksum(s.cost_expr for s in self.sites)

    @property
    def total_rate_scaled(self) -> LinExpr:
        """Total served rate in scaled units (Mrps).

        Compare against ``offered_rps / RATE_SCALE`` — keeping the
        demand row in scaled units preserves the solver-friendly
        conditioning.
        """
        return quicksum(s.rate for s in self.sites)


def single_class_decision(step: CappingStep, readings) -> HourlyDecision:
    """An HourlyDecision from per-site ``(site_hour, rate, power, bill)``.

    ``rate`` is scaled (Mrps), ``power`` in MW, ``bill`` in $. Negative
    round-off reads as zero, and the reported price is bill over power,
    or the background price for a site that draws nothing. Premium and
    ordinary accounting is filled in by the callers that know the class
    mix; here everything is reported as a single class.
    """
    allocs = []
    for sh, rate, power, bill in readings:
        power = max(0.0, power)
        bill = max(0.0, bill)
        price = bill / power if power > 1e-12 else sh.policy.price(
            sh.background_mw
        )
        allocs.append(Allocation(
            sh.name, max(0.0, rate) * RATE_SCALE, power, price, bill
        ))
    total = sum(a.rate_rps for a in allocs)
    return HourlyDecision(
        step=step,
        allocations=tuple(allocs),
        served_premium_rps=total,
        served_ordinary_rps=0.0,
        demand_premium_rps=total,
        demand_ordinary_rps=0.0,
        predicted_cost=sum(a.predicted_cost for a in allocs),
    )


def _decision_from(
    dm: DispatchModel, res: SolveResult, step: CappingStep
) -> HourlyDecision:
    """Translate a solved dispatch model into an HourlyDecision.

    The bill is the sum of the per-site bills, not ``res.objective``:
    the objective is the cost only for cost-min, and this also decodes
    the throughput-max problem, whose objective is the rate.
    """
    return single_class_decision(step, [
        (sv.site, res.value(sv.rate), res.value(sv.power),
         res.value(sv.cost_expr))
        for sv in dm.sites
    ])


def build_dispatch_model(
    site_hours: list[SiteHour],
    name: str = "dispatch",
    step_margin_frac: float = 0.0,
) -> DispatchModel:
    """Create the shared MILP skeleton for one invocation period.

    Per site *i* this adds:

    * ``lambda_i in [0, max_rate_i]`` (scaled) — the dispatched rate;
    * ``z_i in {0, 1}`` with ``lambda_i <= max_rate_i * z_i`` — whether
      the site is active (gates the affine intercept so an idle site
      draws nothing);
    * ``p_i = a_i lambda_i + b_i z_i`` with ``p_i <= Ps_i`` — the power
      model and the supplier cap (constraint (b) of both problems);
    * the stepped-cost linearization of
      :func:`repro.core.linearize.add_stepped_cost`.

    The QoS constraint (c) is satisfied by construction: the affine
    power model was derived from the minimum-server provisioning that
    meets the response-time target, so any ``lambda_i`` within
    ``max_rate_i`` is served within ``Rs_i``.

    ``step_margin_frac`` scales each site's reachable power into the
    breakpoint safety margin of
    :func:`repro.core.linearize.add_stepped_cost` (decision power is
    smooth, realized power is stepped and slightly larger).
    """
    if not site_hours:
        raise ValueError("at least one site required")
    m = Model(name)
    site_vars: list[SiteVars] = []
    for sh in site_hours:
        max_rate_scaled = sh.max_rate_rps / RATE_SCALE
        rate = m.var(f"lam[{sh.name}]", lb=0.0, ub=max_rate_scaled)
        active = m.binary(f"z[{sh.name}]")
        power = m.var(f"p[{sh.name}]", lb=0.0, ub=sh.max_power_mw)
        m.add(rate <= max_rate_scaled * active, name=f"gate[{sh.name}]")
        _add_power_model(m, sh, rate, active, power)
        if sh.power_cap_mw < float("inf"):
            m.add(power <= sh.power_cap_mw, name=f"cap[{sh.name}]")
        cost = add_stepped_cost(
            m, power, sh, margin_mw=step_margin_frac * sh.max_power_mw
        )
        site_vars.append(SiteVars(sh, rate, active, power, cost))
    return DispatchModel(m, site_vars)


def piecewise_widths(sh: SiteHour) -> list[tuple[float, float]]:
    """Active piecewise power segments as ``(width_scaled, slope)``.

    Truncates each segment at the site's max servable rate and stops at
    the first empty one, exactly as the LP-split construction in
    :func:`_add_power_model` does — the compiled-model cache uses this
    to patch segment bounds and slopes without rebuilding the model.
    """
    out: list[tuple[float, float]] = []
    prev_cap = 0.0
    for cap_rps, slope in sh.power_segments or ():
        width = (min(cap_rps, sh.max_rate_rps) - prev_cap) / RATE_SCALE
        prev_cap = min(cap_rps, sh.max_rate_rps)
        if width <= 0:
            break
        out.append((width, slope))
    return out


def _add_power_model(m: Model, sh: SiteHour, rate, active, power) -> None:
    """Tie ``power`` to ``rate`` with the site's decision power model.

    Homogeneous sites use the single affine slope. Sites exposing a
    piecewise-linear *convex* curve (heterogeneous fleets) get one rate
    variable per efficiency segment: because slopes are non-decreasing
    and power only ever hurts (it costs money and consumes caps), the
    optimizer fills cheaper segments first without any binaries — the
    classic convex piecewise-linear LP construction.
    """
    if not sh.power_segments:
        m.add(
            power
            == (sh.affine.slope_mw_per_rps * RATE_SCALE) * rate
            + sh.affine.intercept_mw * active,
            name=f"power[{sh.name}]",
        )
        return
    seg_rates = []
    terms = []
    for k, (width, slope) in enumerate(piecewise_widths(sh)):
        r_k = m.var(f"lamseg[{sh.name},{k}]", lb=0.0, ub=width)
        seg_rates.append(r_k)
        terms.append((slope * RATE_SCALE) * r_k)
    m.add(quicksum(seg_rates) == rate, name=f"rate_split[{sh.name}]")
    m.add(
        power == quicksum(terms) + sh.affine.intercept_mw * active,
        name=f"power[{sh.name}]",
    )
