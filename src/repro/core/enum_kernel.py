"""Exact segment-enumeration solver for the hourly dispatch MILPs.

Profiling a simulated capping month puts ~85% of wall time inside
branch-and-bound LP solves. Yet for the common homogeneous-fleet case
the MILP's combinatorial core is tiny: per site, exactly one price
segment binary is selected (``one_segment``), the active gate ``z``
either holds the site at zero or admits the affine power model
``p = a lam + b``, and *for a fixed selection* the continuous problem
collapses to a one- or two-constraint LP over boxed per-site rates
whose greedy solution is exact:

* **cost-min** — minimize ``sum m_i lam_i`` subject to
  ``sum lam_i = L`` and ``lam_i in [lo_i, hi_i]``, with marginal cost
  ``m_i = price_i * a_i``. Forcing every ``lam_i`` to its lower bound
  and filling the remainder in ascending-marginal order is the classic
  transportation greedy (exchange argument: moving load from a larger
  to a smaller marginal never increases cost).
* **throughput-max** — maximize ``sum lam_i - w * cost`` subject to a
  demand row and a budget row. Ascending-marginal filling is again
  exact because a smaller ``m_i`` simultaneously has the larger
  objective gain ``1 - w m_i`` *and* the smaller budget consumption
  per unit of rate — the two greedy orders coincide.

This module enumerates every per-site choice combination (one array
axis per combination, solved simultaneously with NumPy), evaluates each
fixed-selection subproblem in closed form, and returns the best — the
exact MILP optimum — from the site hours alone: no MILP is compiled,
and no simplex runs. :func:`to_decision` reads the winning choices into
an :class:`~repro.core.allocation.HourlyDecision` exactly as the MILP
path reads a solution with the same choices; the decomposition solver
decodes through it too. Decision equivalence with the branch-and-bound
and SciPy engines is pinned by ``tests/core/test_enum_kernel.py``
(objective and served totals; per-site splits may legitimately differ
between engines at alternate optima).

The kernel *bails out* (returns ``None``; the caller proceeds with the
compiled MILP) whenever its assumptions don't hold: piecewise-power
(heterogeneous) sites, non-positive slopes, negative prices or
intercepts, a tie-break weight large enough to make rate unprofitable,
or more than :data:`MAX_COMBOS` combinations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..telemetry import get_telemetry
from ..telemetry.instrument import record_solver_result
from .allocation import CappingStep, HourlyDecision
from .dispatch_model import RATE_SCALE, single_class_decision
from .linearize import reachable_segments
from .site import SiteHour

__all__ = [
    "MAX_COMBOS",
    "SiteChoices",
    "site_choices",
    "combo_index",
    "cost_min_fill",
    "throughput_max_fill",
    "solve_cost_min",
    "solve_throughput_max",
    "to_decision",
    "counted",
]

#: Enumeration ceiling: beyond this many per-site choice combinations
#: the branch-and-bound MILP (whose search is *not* exhaustive) wins.
MAX_COMBOS = 4096

#: Constraint-feasibility slack, matching MILP feasibility tolerances.
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SiteChoices:
    """One site's admissible (segment | inactive) choices.

    Arrays are aligned per choice: ``lo``/``hi`` bound the scaled rate,
    ``m`` is the marginal cost per scaled rate unit, ``f`` the fixed
    cost of being active in that segment, ``price`` the segment price.
    ``pos[j] >= 0`` indexes the site's reachable segments (and so the
    MILP's segment variables); a negative ``pos`` encodes the inactive
    choice, selecting segment ``-pos - 1`` with zero power.
    """

    a: float  # MW per scaled rate unit
    b: float  # intercept MW
    lo: np.ndarray
    hi: np.ndarray
    m: np.ndarray
    f: np.ndarray
    price: np.ndarray
    pos: tuple[int, ...]


def site_choices(sh: SiteHour, step_margin_frac: float) -> SiteChoices | None:
    """One site's choice set, or None on any per-site bail condition.

    Shared by the enumeration kernel and the dual-decomposition solver
    (:mod:`repro.core.decomposition`) so both price segment geometry
    identically — :func:`~repro.core.linearize.reachable_segments` is
    the single source of truth.
    """
    if sh.power_segments:
        return None
    a = sh.affine.slope_mw_per_rps * RATE_SCALE
    b = sh.affine.intercept_mw
    if not a > 0.0 or b < 0.0:
        return None
    mrs = sh.max_rate_rps / RATE_SCALE
    segs = reachable_segments(
        sh, sh.max_power_mw, step_margin_frac * sh.max_power_mw
    )
    lo, hi, m, f, price, pos = [], [], [], [], [], []
    inactive_at = None
    for j, (_, seg_price, p_lo, p_hi) in enumerate(segs):
        if seg_price < 0.0:
            return None
        if inactive_at is None and p_lo == 0.0:
            inactive_at = j
        lam_lo = max(0.0, (p_lo - b) / a)
        lam_hi = min(mrs, (p_hi - b) / a)
        if lam_hi < lam_lo:
            continue
        lo.append(lam_lo)
        hi.append(lam_hi)
        m.append(seg_price * a)
        f.append(seg_price * b)
        price.append(seg_price)
        pos.append(j)
    if inactive_at is not None:
        # z = 0: rate and power pinned at zero, the slack segment's
        # binary absorbs the one_segment equality at no cost.
        lo.append(0.0)
        hi.append(0.0)
        m.append(0.0)
        f.append(0.0)
        price.append(0.0)
        pos.append(-(inactive_at + 1))
    if not lo:
        return None
    return SiteChoices(
        a=a, b=b,
        lo=np.array(lo), hi=np.array(hi),
        m=np.array(m), f=np.array(f), price=np.array(price),
        pos=tuple(pos),
    )


def combo_index(
    sites: list[SiteChoices], max_combos: int = MAX_COMBOS
) -> np.ndarray | None:
    """The (n_combos, n_sites) choice-index matrix, or None above the cap.

    Rows run in mixed-radix order, the last site's choice fastest. The
    digits are computed rather than taken from a per-site meshgrid, so
    a fleet of any size works (a grid would need one array axis per
    site, and NumPy caps those at 64).
    """
    n_combos = 1
    for sc in sites:
        n_combos *= sc.lo.size
        if n_combos > max_combos:
            return None
    idx = np.empty((n_combos, len(sites)), dtype=np.intp)
    rest = np.arange(n_combos)
    for i in range(len(sites) - 1, -1, -1):
        idx[:, i] = rest % sites[i].lo.size
        rest //= sites[i].lo.size
    return idx


def _prepare(
    site_hours: list[SiteHour], step_margin_frac: float
) -> tuple[list[SiteChoices], np.ndarray] | None:
    """Per-site choice sets and the combination index matrix.

    Returns None when any bail-out condition triggers, including a site
    with *no* admissible choice (the MILP then owns the infeasibility
    diagnosis).
    """
    sites: list[SiteChoices] = []
    for sh in site_hours:
        sc = site_choices(sh, step_margin_frac)
        if sc is None:
            return None
        sites.append(sc)
    idx = combo_index(sites)
    if idx is None:
        return None
    return sites, idx


def _gather(sites: list[SiteChoices], idx: np.ndarray, field: str) -> np.ndarray:
    """(n_combos, n_sites) matrix of one choice attribute."""
    return np.stack(
        [getattr(sc, field)[idx[:, i]] for i, sc in enumerate(sites)], axis=1
    )


def _unsort(order_row: np.ndarray, values_row: np.ndarray) -> np.ndarray:
    out = np.empty_like(values_row)
    out[order_row] = values_row
    return out


def _exact_cost(
    sites: list[SiteChoices], idx: np.ndarray, best: int, lam: np.ndarray
) -> float:
    """Re-derive the bill exactly as the MILP prices it:
    ``sum_i price_i * (a_i lam_i + b_i)`` over active sites."""
    cost = 0.0
    for i, sc in enumerate(sites):
        j = idx[best, i]
        if sc.pos[j] >= 0:
            cost += float(sc.price[j]) * (sc.a * float(lam[i]) + sc.b)
    return cost


def cost_min_fill(
    sites: list[SiteChoices], idx: np.ndarray, total_rate_scaled: float
) -> tuple[int, np.ndarray, float] | None:
    """Exact min-cost fill over the enumerated combinations.

    Returns ``(best_combo_row, lam_per_site, exact_cost)``; None when no
    combination can serve ``total_rate_scaled``. The decomposition
    solver runs it per region, and Min-Only over one choice per site.
    """
    LO, HI, M, F = (_gather(sites, idx, k) for k in ("lo", "hi", "m", "f"))
    sum_lo = LO.sum(axis=1)
    feasible = (sum_lo <= total_rate_scaled + _FEAS_TOL) & (
        HI.sum(axis=1) >= total_rate_scaled - _FEAS_TOL
    )
    if not feasible.any():
        return None
    remaining = np.maximum(total_rate_scaled - sum_lo, 0.0)
    order = np.argsort(M, axis=1, kind="stable")
    caps = np.take_along_axis(HI - LO, order, axis=1)
    m_sorted = np.take_along_axis(M, order, axis=1)
    before = np.concatenate(
        [np.zeros((caps.shape[0], 1)), np.cumsum(caps, axis=1)[:, :-1]], axis=1
    )
    take = np.clip(remaining[:, None] - before, 0.0, caps)
    cost = F.sum(axis=1) + (M * LO).sum(axis=1) + (m_sorted * take).sum(axis=1)
    cost = np.where(feasible, cost, np.inf)
    best = int(np.argmin(cost))
    lam = LO[best] + _unsort(order[best], take[best])
    return best, lam, _exact_cost(sites, idx, best, lam)


def solve_cost_min(
    site_hours: list[SiteHour], total_rate_scaled: float,
    step_margin_frac: float,
) -> tuple | None:
    """Exact minimum-cost dispatch of ``total_rate_scaled`` (Mrps).

    Returns the winning ``(choices, choice_idx, lam)`` — every site's
    choice set, the chosen row of each, the per-site scaled rates — or
    None to bail.
    """
    prep = _prepare(site_hours, step_margin_frac)
    if prep is None:
        return None
    sites, idx = prep
    fill = cost_min_fill(sites, idx, total_rate_scaled)
    if fill is None:
        return None  # the MILP owns the infeasibility diagnosis
    best, lam, _ = fill
    return sites, idx[best], lam


def throughput_max_fill(
    sites: list[SiteChoices], idx: np.ndarray, demand_scaled: float,
    budget: float, weight: float,
) -> tuple[int, np.ndarray, float, float] | None:
    """Exact budget-capped throughput fill over the combinations.

    Returns ``(best_combo_row, lam_per_site, served, exact_cost)``; None
    when no combination is admissible (or the tie-break weight breaks
    the greedy order). The decomposition solver runs it per region.
    """
    LO, HI, M, F = (_gather(sites, idx, k) for k in ("lo", "hi", "m", "f"))
    if weight < 0.0 or (weight > 0.0 and weight * M.max(initial=0.0) >= 1.0):
        return None  # rate would be unprofitable: greedy order invalid
    base_cost = F.sum(axis=1) + (M * LO).sum(axis=1)
    sum_lo = LO.sum(axis=1)
    feasible = (base_cost <= budget + _FEAS_TOL) & (
        sum_lo <= demand_scaled + _FEAS_TOL
    )
    if not feasible.any():
        return None
    order = np.argsort(M, axis=1, kind="stable")
    caps = np.take_along_axis(HI - LO, order, axis=1)
    m_sorted = np.take_along_axis(M, order, axis=1)
    budget_left = np.maximum(budget - base_cost, 0.0)
    demand_left = np.maximum(demand_scaled - sum_lo, 0.0)
    take = np.zeros_like(caps)
    for j in range(caps.shape[1]):
        m_j = m_sorted[:, j]
        by_budget = np.divide(
            budget_left, m_j, out=np.full_like(m_j, np.inf), where=m_j > 0.0
        )
        t = np.minimum(caps[:, j], np.minimum(demand_left, by_budget))
        take[:, j] = t
        demand_left = np.maximum(demand_left - t, 0.0)
        budget_left = np.maximum(budget_left - m_j * t, 0.0)
    served = sum_lo + take.sum(axis=1)
    cost = base_cost + (m_sorted * take).sum(axis=1)
    value = np.where(feasible, served - weight * cost, -np.inf)
    best = int(np.argmax(value))
    lam = LO[best] + _unsort(order[best], take[best])
    return best, lam, float(lam.sum()), _exact_cost(sites, idx, best, lam)


def solve_throughput_max(
    site_hours: list[SiteHour], demand_scaled: float, budget: float,
    step_margin_frac: float, weight: float,
) -> tuple | None:
    """Exact budget-capped throughput maximization (rates in Mrps).

    Returns ``(choices, choice_idx, lam)`` as :func:`solve_cost_min`
    does, or None to bail.
    """
    prep = _prepare(site_hours, step_margin_frac)
    if prep is None:
        return None
    sites, idx = prep
    fill = throughput_max_fill(sites, idx, demand_scaled, budget, weight)
    if fill is None:
        return None
    best, lam, _, _ = fill
    return sites, idx[best], lam


def to_decision(
    site_hours: list[SiteHour], choices: list[SiteChoices],
    choice_idx: np.ndarray, lam: np.ndarray, step: CappingStep,
) -> HourlyDecision:
    """The decision for one chosen row per site at scaled rates ``lam``.

    Each site reads as the MILP solution with the same choices reads
    (rate, power ``a lam + b`` and bill ``price * power``, through
    :func:`~repro.core.dispatch_model.single_class_decision`), so the
    reported price is bill over power, which can differ from the
    segment price in the last bit.
    """
    readings = []
    for sh, sc, j, li in zip(site_hours, choices, choice_idx, lam):
        if sc.pos[j] < 0:
            readings.append((sh, 0.0, 0.0, 0.0))
            continue
        li = float(li)
        power = sc.a * li + sc.b
        readings.append((sh, li, power, float(sc.price[j]) * power))
    return single_class_decision(step, readings)


def counted(kernel_fn, *args):
    """Call one kernel entry point, recorded like a solver backend.

    An answer records under ``solver.enum-kernel.*`` alongside the
    LP/MILP engines (so per-backend telemetry tables stay uniform) plus
    ``core.enum_kernel.solved``; a ``None`` records only
    ``core.enum_kernel.bail``.
    """
    tel = get_telemetry()
    t0 = time.perf_counter()
    out = kernel_fn(*args)
    if tel.enabled:
        if out is not None:
            tel.counter("core.enum_kernel.solved").inc()
            record_solver_result(
                tel, "enum-kernel", "optimal", 0, time.perf_counter() - t0
            )
        else:
            tel.counter("core.enum_kernel.bail").inc()
    return out
