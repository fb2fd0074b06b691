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
row per combination, solved simultaneously with NumPy), evaluates each
fixed-selection subproblem in closed form, and returns the best — the
exact MILP optimum — from the site hours alone: no MILP is compiled,
and no simplex runs.

The work is split in two. A :class:`ComboTable` holds everything a
fill reads that the load, budget and tie-break weight leave alone: the
combination rows, each row's lower bounds, bound sums and fixed cost,
and its ascending-marginal fill order. The fills
(:func:`cost_min_fill`, :func:`throughput_max_fill`) read a table and
do only the load-dependent greedy. :func:`table_for` memoizes tables
by the *value* of the site hours in one small process-wide LRU
(:data:`TABLE_MEMO_SIZE` entries), so every solve of an hour, and
every serve re-dispatch on the same snapshot, reuses one table. A hit
returns exactly what a rebuild would, so the memo changes no answer.

:func:`to_decision` reads the winning choices into
an :class:`~repro.core.allocation.HourlyDecision` exactly as the MILP
path reads a solution with the same choices; the decomposition solver
decodes through it too. Decision equivalence with the branch-and-bound
and SciPy engines is pinned by ``tests/core/test_enum_kernel.py``
(objective and served totals; per-site splits may legitimately differ
between engines at alternate optima), and bit equality with the
single-pass fills this split replaced by
``tests/core/test_enum_kernel_reference.py``.

The kernel *bails out* (returns ``None``; the caller proceeds with the
compiled MILP) whenever its assumptions don't hold: piecewise-power
(heterogeneous) sites, non-positive slopes, negative prices or
intercepts, a tie-break weight large enough to make rate unprofitable,
or more than :data:`MAX_COMBOS` combinations.
"""

from __future__ import annotations

import threading
import time
from functools import lru_cache

import numpy as np

from ..telemetry import get_telemetry
from ..telemetry.instrument import record_solver_result
from .allocation import CappingStep, HourlyDecision
from .dispatch_model import RATE_SCALE, single_class_decision
from .linearize import reachable_segments
from .site import SiteHour

__all__ = [
    "MAX_COMBOS",
    "TABLE_MEMO_SIZE",
    "SiteChoices",
    "ComboTable",
    "site_choices",
    "table_for",
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

#: Combination tables :func:`table_for` keeps, least recently used out
#: first: enough for a process driving every region of a serve plan to
#: keep each region's current table.
TABLE_MEMO_SIZE = 16

#: Fleets of more sites than this bypass the memos. A kept table holds
#: at most ``MAX_COMBOS * _MEMO_SITES`` (combination, site) cells at 40
#: bytes each, so a full table memo stays under ~42 MB, and the
#: combination-index memo (16 bytes a cell) under ~17 MB.
_MEMO_SITES = 16

#: Constraint-feasibility slack, matching MILP feasibility tolerances.
_FEAS_TOL = 1e-9


class SiteChoices:
    """One site's admissible (segment | inactive) choices.

    ``vals`` stacks five rows aligned per choice, also readable as
    ``lo``, ``hi``, ``m``, ``f`` and ``price``: ``lo``/``hi`` bound the
    scaled rate, ``m`` is the marginal cost per scaled rate unit, ``f``
    the fixed cost of being active in that segment, ``price`` the
    segment price. ``pos[j] >= 0`` indexes the site's reachable
    segments (and so the MILP's segment variables); a negative ``pos``
    encodes the inactive choice, selecting segment ``-pos - 1`` with
    zero power. ``vals`` is made read-only, as memoized tables share
    their choice sets with every caller.
    """

    __slots__ = ("a", "b", "vals", "lo", "hi", "m", "f", "price", "pos")

    def __init__(self, a: float, b: float, vals: np.ndarray,
                 pos: tuple[int, ...]):
        self.a = a  # MW per scaled rate unit
        self.b = b  # intercept MW
        vals.flags.writeable = False
        self.vals = vals
        self.lo, self.hi, self.m, self.f, self.price = vals
        self.pos = pos


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
        a, b, np.array([lo, hi, m, f, price], dtype=float), tuple(pos)
    )


@lru_cache(maxsize=TABLE_MEMO_SIZE)
def _combo_rows(counts: tuple[int, ...]):
    """``(idx, flat, rows)`` for per-site choice counts ``counts``.

    ``idx`` is the (n_combos, n_sites) choice-index matrix, its rows in
    mixed-radix order, the last site's choice fastest. The digits are
    computed rather than taken from a per-site meshgrid, so a fleet of
    any size works (a grid would need one array axis per site, and
    NumPy caps those at 64). ``flat`` holds the same choices as columns
    of the sites' concatenated ``vals``, ``rows`` the combination
    numbers as a column. Memoized by the counts, which repeat hour to
    hour, so the arrays are read-only.
    """
    n_combos = 1
    for k in counts:
        n_combos *= k
    idx = np.empty((n_combos, len(counts)), dtype=np.intp)
    rest = np.arange(n_combos)
    for i in range(len(counts) - 1, -1, -1):
        idx[:, i] = rest % counts[i]
        rest //= counts[i]
    flat = idx + np.cumsum((0,) + counts[:-1])
    rows = np.arange(n_combos)[:, None]
    for arr in (idx, flat, rows):
        arr.flags.writeable = False
    return idx, flat, rows


class ComboTable:
    """The load-independent half of the kernel for one set of sites.

    Built once per distinct site-hour set; :func:`cost_min_fill` and
    :func:`throughput_max_fill` read it for any load, budget or weight.
    Per combination row: ``idx`` (each site's choice), ``LO`` (the
    choices' rate lower bounds), ``sum_lo``/``sum_hi``, ``base_cost``
    (fixed costs plus every rate at its lower bound), ``order`` (the
    stable ascending-marginal site order) with ``caps`` and
    ``m_sorted`` (fill widths and marginals in that order). Every
    array is read-only, as tables are shared through :func:`table_for`.
    """

    __slots__ = (
        "sites", "idx", "LO", "sum_lo", "sum_hi", "order", "caps",
        "m_sorted", "base_cost", "_before", "_m_max",
    )

    @classmethod
    def build(
        cls, sites: list[SiteChoices], max_combos: int = MAX_COMBOS
    ) -> ComboTable | None:
        """The table over ``sites``, or None above ``max_combos`` rows."""
        counts = []
        n_combos = 1
        for sc in sites:
            k = len(sc.pos)
            n_combos *= k
            if n_combos > max_combos:
                return None
            counts.append(k)
        counts = tuple(counts)
        rows_for = _combo_rows if len(counts) <= _MEMO_SITES else (
            _combo_rows.__wrapped__
        )
        return cls(sites, *rows_for(counts))

    def __init__(self, sites, idx, flat, rows):
        vals = np.concatenate([sc.vals for sc in sites], axis=1)
        LO, HI, M, F = np.take(vals[:4], flat, axis=1)
        order = np.argsort(M, axis=1, kind="stable")
        self.sites = tuple(sites)
        self.idx = idx
        self.LO = LO.copy()  # a view would keep HI, M and F alive
        self.sum_lo = LO.sum(axis=1)
        self.sum_hi = HI.sum(axis=1)
        self.order = order
        # Exactly take_along_axis(x, order, axis=1).
        self.caps = (HI - LO)[rows, order]
        self.m_sorted = M[rows, order]
        self.base_cost = F.sum(axis=1) + (M * LO).sum(axis=1)
        for arr in (self.LO, self.sum_lo, self.sum_hi, order, self.caps,
                    self.m_sorted, self.base_cost):
            arr.flags.writeable = False
        self._before = None
        self._m_max = None

    @property
    def before(self) -> np.ndarray:
        """Exclusive running sum of ``caps``: each row's fill already
        placed ahead of every site (computed on first use)."""
        before = self._before
        if before is None:
            before = np.zeros_like(self.caps)
            np.cumsum(self.caps[:, :-1], axis=1, out=before[:, 1:])
            before.flags.writeable = False
            self._before = before
        return before

    @property
    def m_max(self) -> float:
        """The largest marginal cost over every choice (0 when none)."""
        m_max = self._m_max
        if m_max is None:
            m_max = self._m_max = self.m_sorted.max(initial=0.0)
        return m_max


_built = threading.local()


@lru_cache(maxsize=TABLE_MEMO_SIZE)
def _table_from(
    site_hours: tuple[SiteHour, ...], step_margin_frac: float
) -> ComboTable | None:
    """Build the table for ``site_hours``; None on any bail condition,
    including a site with *no* admissible choice (the MILP then owns
    the infeasibility diagnosis)."""
    _built.miss = True
    sites: list[SiteChoices] = []
    for sh in site_hours:
        sc = site_choices(sh, step_margin_frac)
        if sc is None:
            return None
        sites.append(sc)
    return ComboTable.build(sites)


def table_for(
    site_hours: list[SiteHour], step_margin_frac: float
) -> ComboTable | None:
    """The combination table for one hour's site snapshots, memoized.

    Keyed by the *values* of the site hours (``SiteHour`` is a frozen
    dataclass) and the margin, in a process-wide LRU of
    :data:`TABLE_MEMO_SIZE` entries shared by every optimizer and safe
    for concurrent callers; a bail (``None``) is remembered too. With
    telemetry on, each lookup counts as ``core.enum_kernel.table.hit``
    or ``core.enum_kernel.table.miss``.
    """
    key = tuple(site_hours)
    build = _table_from if len(key) <= _MEMO_SITES else _table_from.__wrapped__
    tel = get_telemetry()
    if not tel.enabled:
        return build(key, step_margin_frac)
    _built.miss = False
    table = build(key, step_margin_frac)
    tel.counter(
        "core.enum_kernel.table.miss" if _built.miss
        else "core.enum_kernel.table.hit"
    ).inc()
    return table


def _unsort(order_row: np.ndarray, values_row: np.ndarray) -> np.ndarray:
    out = np.empty_like(values_row)
    out[order_row] = values_row
    return out


def _exact_cost(table: ComboTable, best: int, lam: np.ndarray) -> float:
    """Re-derive the bill exactly as the MILP prices it:
    ``sum_i price_i * (a_i lam_i + b_i)`` over active sites."""
    cost = 0.0
    for sc, j, li in zip(table.sites, table.idx[best].tolist(), lam.tolist()):
        if sc.pos[j] >= 0:
            cost += float(sc.price[j]) * (sc.a * li + sc.b)
    return cost


def cost_min_fill(
    table: ComboTable, total_rate_scaled: float
) -> tuple[int, np.ndarray, float] | None:
    """Exact min-cost fill over the table's combinations.

    Returns ``(best_combo_row, lam_per_site, exact_cost)``; None when no
    combination can serve ``total_rate_scaled``. Ties go to the first
    row. The decomposition solver runs it per region, and Min-Only over
    one choice per site.
    """
    sum_lo = table.sum_lo
    feasible = (sum_lo <= total_rate_scaled + _FEAS_TOL) & (
        table.sum_hi >= total_rate_scaled - _FEAS_TOL
    )
    if not feasible.any():
        return None
    remaining = np.maximum(total_rate_scaled - sum_lo, 0.0)
    take = np.clip(remaining[:, None] - table.before, 0.0, table.caps)
    cost = table.base_cost + (table.m_sorted * take).sum(axis=1)
    cost = np.where(feasible, cost, np.inf)
    best = int(np.argmin(cost))
    lam = table.LO[best] + _unsort(table.order[best], take[best])
    return best, lam, _exact_cost(table, best, lam)


def solve_cost_min(
    site_hours: list[SiteHour], total_rate_scaled: float,
    step_margin_frac: float,
) -> tuple | None:
    """Exact minimum-cost dispatch of ``total_rate_scaled`` (Mrps).

    Returns the winning ``(choices, choice_idx, lam)`` — every site's
    choice set, the chosen row of each, the per-site scaled rates — or
    None to bail.
    """
    table = table_for(site_hours, step_margin_frac)
    if table is None:
        return None
    fill = cost_min_fill(table, total_rate_scaled)
    if fill is None:
        return None  # the MILP owns the infeasibility diagnosis
    best, lam, _ = fill
    return table.sites, table.idx[best], lam


def throughput_max_fill(
    table: ComboTable, demand_scaled: float, budget: float, weight: float,
) -> tuple[int, np.ndarray, float, float] | None:
    """Exact budget-capped throughput fill over the table's combinations.

    Returns ``(best_combo_row, lam_per_site, served, exact_cost)``; None
    when no combination is admissible (or the tie-break weight breaks
    the greedy order). Ties go to the first row. The decomposition
    solver runs it per region.
    """
    if weight < 0.0 or (weight > 0.0 and weight * table.m_max >= 1.0):
        return None  # rate would be unprofitable: greedy order invalid
    base_cost, sum_lo = table.base_cost, table.sum_lo
    feasible = (base_cost <= budget + _FEAS_TOL) & (
        sum_lo <= demand_scaled + _FEAS_TOL
    )
    if not feasible.any():
        return None
    caps, m_sorted = table.caps, table.m_sorted
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
    lam = table.LO[best] + _unsort(table.order[best], take[best])
    return best, lam, float(lam.sum()), _exact_cost(table, best, lam)


def solve_throughput_max(
    site_hours: list[SiteHour], demand_scaled: float, budget: float,
    step_margin_frac: float, weight: float,
) -> tuple | None:
    """Exact budget-capped throughput maximization (rates in Mrps).

    Returns ``(choices, choice_idx, lam)`` as :func:`solve_cost_min`
    does, or None to bail.
    """
    table = table_for(site_hours, step_margin_frac)
    if table is None:
        return None
    fill = throughput_max_fill(table, demand_scaled, budget, weight)
    if fill is None:
        return None
    best, lam, _, _ = fill
    return table.sites, table.idx[best], lam


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
