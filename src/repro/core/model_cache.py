"""Hot path of the hourly dispatch programs: kernel first, then a
compiled-structure MILP cache.

Each solve first asks the enumeration kernel
(:mod:`repro.core.enum_kernel`), which answers separable hours exactly
from the site hours alone. Only when it bails is a MILP looked up. The
kernel's combination table comes from one process-wide memo keyed by
the site hours' values (:func:`~repro.core.enum_kernel.table_for`),
which the cost-min and throughput-max caches share; a hit returns what
a rebuild would.

The MILP skeleton built by :func:`~repro.core.dispatch_model.
build_dispatch_model` has identical *structure* every hour for a fixed
site network: same variables, same rows, same sparsity. Only a handful
of coefficients move hour to hour — backgrounds shift the reachable
price segments' bounds, weather scales the power model, and the offered
load / budget land in right-hand sides. Yet the cold path re-runs the
whole ``Model`` → ``StandardForm`` pipeline (Python dict arithmetic per
constraint) every invocation period.

This module compiles each structure once, remembers where every
hour-varying coefficient lives in the compiled arrays, and patches
fresh values into copies of those arrays on subsequent hours — the
modeling layer is bypassed entirely on the hot path. The cache key *is*
the structure signature (site names, reachable-segment pattern,
piecewise segment count, cap presence, prices), so any change of
network shape is automatically a miss that rebuilds from scratch;
an LRU bound keeps alternating patterns from growing the cache.

Each entry also owns a branch-and-bound solver over the pure-NumPy
simplex, whose child nodes re-solve from their parent's basis (see
:mod:`repro.solver.simplex`). No basis or incumbent carries from one
hour to the next, so a resumed run solves every hour exactly as an
uninterrupted one did. Any limit/error outcome falls back to the
SciPy/HiGHS backend on the exact same arrays, so the hot path can never
be *less* reliable than the cold one. Equivalence of the patched arrays
with a fresh compile, and of hot results with cold SciPy solves, is
pinned by ``tests/core/test_model_cache.py``.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..solver import (
    InfeasibleError,
    Model,
    SolveResult,
    SolverLimitError,
    StandardForm,
    UnboundedError,
    quicksum,
)
from ..solver.branch_bound import BranchBoundSolver
from ..solver.registry import env_int
from ..solver.result import SolveStatus
from ..solver.revised_simplex import lp_solver_for_size
from ..telemetry import get_telemetry
from . import enum_kernel
from .allocation import CappingStep, HourlyDecision
from .dispatch_model import (
    RATE_SCALE,
    DispatchModel,
    _decision_from,
    build_dispatch_model,
    piecewise_widths,
)
from .linearize import reachable_segments
from .site import SiteHour

__all__ = ["DispatchModelCache"]

_INF = float("inf")


@dataclass(frozen=True)
class _SiteSlots:
    """Where one site's hour-varying coefficients live in the arrays."""

    rate: int  # variable indices
    active: int
    power: int
    lamseg: tuple[int, ...]  # piecewise rate variables (empty: homogeneous)
    pseg: tuple[int, ...]  # per reachable segment: power variable
    yseg: tuple[int, ...]  # per reachable segment: selection binary
    gate_row: int  # A_ub rows
    cap_row: int | None
    seg_ub_rows: tuple[int, ...]
    seg_lb_rows: tuple[int | None, ...]  # None where p_lo == 0 (no row)
    power_row: int  # A_eq row


class _PatchIndex:
    """Fancy-index arrays for vectorized per-hour patching.

    Precomputed once per compiled entry from the slot layout, so
    :meth:`DispatchModelCache._patched` writes whole coefficient groups
    with single NumPy fancy-indexed assignments instead of a per-site
    Python loop. Flattened segment arrays iterate site-major in slot
    order — the same order the per-hour geometry is collected in.
    """

    __slots__ = (
        "rate", "active", "power", "gate",
        "cap_sites", "cap_rows",
        "hom_sites", "hom_rows", "hom_rate", "hom_active",
        "seg_site", "seg_pseg", "seg_yseg", "seg_ub_rows",
        "lb_rows", "lb_pos",
    )

    def __init__(self, slots: list[_SiteSlots]):
        idx = lambda xs: np.asarray(xs, dtype=np.intp)
        self.rate = idx([sl.rate for sl in slots])
        self.active = idx([sl.active for sl in slots])
        self.power = idx([sl.power for sl in slots])
        self.gate = idx([sl.gate_row for sl in slots])
        cap = [i for i, sl in enumerate(slots) if sl.cap_row is not None]
        self.cap_sites = idx(cap)
        self.cap_rows = idx([slots[i].cap_row for i in cap])
        hom = [i for i, sl in enumerate(slots) if not sl.lamseg]
        self.hom_sites = idx(hom)
        self.hom_rows = idx([slots[i].power_row for i in hom])
        self.hom_rate = idx([slots[i].rate for i in hom])
        self.hom_active = idx([slots[i].active for i in hom])
        seg_site, pseg, yseg, ub_rows, lb_rows, lb_pos = [], [], [], [], [], []
        for i, sl in enumerate(slots):
            for p_i, y_i, r_ub, r_lb in zip(
                sl.pseg, sl.yseg, sl.seg_ub_rows, sl.seg_lb_rows
            ):
                if r_lb is not None:
                    lb_rows.append(r_lb)
                    lb_pos.append(len(seg_site))
                seg_site.append(i)
                pseg.append(p_i)
                yseg.append(y_i)
                ub_rows.append(r_ub)
        self.seg_site = idx(seg_site)
        self.seg_pseg = idx(pseg)
        self.seg_yseg = idx(yseg)
        self.seg_ub_rows = idx(ub_rows)
        self.lb_rows = idx(lb_rows)
        self.lb_pos = idx(lb_pos)


class _Entry:
    """One compiled structure: template arrays, slots, private solver."""

    __slots__ = (
        "dm", "base", "sense_max", "slots", "patch",
        "serve_all_row", "demand_row", "budget_row", "peak_row",
        "solver",
    )

    def __init__(self, dm: DispatchModel, base: StandardForm, sense_max: bool,
                 slots: list[_SiteSlots], serve_all_row, demand_row, budget_row,
                 peak_row=None, solver_backend: str | None = None):
        self.dm = dm
        self.base = base
        self.sense_max = sense_max
        self.slots = slots
        self.patch = _PatchIndex(slots)
        self.serve_all_row = serve_all_row
        self.demand_row = demand_row
        self.budget_row = budget_row
        self.peak_row = peak_row
        # Private engine so its structure cache is never thrashed by
        # other problems. The LP engine is picked by problem size: dense
        # tableau for small fleets, the sparse-pricing revised simplex
        # once the tableau would not fit the cell budget.
        if solver_backend is None:
            n_rows = base.A_ub.shape[0] + base.A_eq.shape[0]
            self.solver = BranchBoundSolver(
                lp_solver=lp_solver_for_size(base.c.size, n_rows),
                # Peak-row (demand charge) entries solve every node LP
                # cold. Warm node re-solves move their optima by ULPs,
                # and the pinned demand-tariff serve log
                # (tests/fixtures/service_v2) was written by retired
                # code, so it cannot be re-pinned to the moved bits.
                warm_start=peak_row is None,
            )
        else:
            from ..solver.registry import get_backend

            self.solver = get_backend(solver_backend)


class DispatchModelCache:
    """The enumeration kernel, then an LRU cache of compiled dispatch
    MILPs patched per hour for the solves the kernel bails on.

    One instance per optimizer (each :class:`~repro.core.cost_min.
    CostMinimizer` / :class:`~repro.core.throughput_max.
    ThroughputMaximizer` creates its own lazily); safe to share across
    hours and strategies for the same process, not across processes.
    """

    def __init__(self, maxsize: int | None = None,
                 use_enum_kernel: bool = True,
                 solver_backend: str | None = None):
        if maxsize is None:
            maxsize = env_int("REPRO_MODEL_CACHE_SIZE", 32)
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        if solver_backend is not None:
            from ..solver.registry import backend_spec

            spec = backend_spec(solver_backend)
            if not spec.milp:
                raise ValueError(
                    f"solver backend {solver_backend!r} lacks the milp "
                    "capability; the dispatch program has integer variables"
                )
            if spec.dispatch:
                raise ValueError(
                    f"solver backend {solver_backend!r} has the dispatch "
                    "capability; it solves site hours, not the compiled "
                    "standard forms this cache holds"
                )
        #: Registered backend name each compiled entry solves with; None
        #: picks the size-adaptive default (dense simplex B&B for small
        #: fleets, revised simplex above the tableau cell budget).
        self.solver_backend = solver_backend
        #: Try the exact segment-enumeration kernel before any MILP is
        #: looked up (see :mod:`repro.core.enum_kernel`). It bails to
        #: the MILP whenever its assumptions don't hold; set False to
        #: force the branch-and-bound path (fallback tests, baseline
        #: comparisons).
        self.use_enum_kernel = use_enum_kernel
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()

    # -- public API -------------------------------------------------------------

    def solve_cost_min(
        self,
        site_hours: list[SiteHour],
        total_rate_rps: float,
        step_margin_frac: float,
    ) -> HourlyDecision:
        """Hot-path equivalent of ``CostMinimizer``'s build-and-solve.

        The kernel answers first; only when it bails is the MILP looked
        up (compiled on a miss), patched and solved. Raises the same
        errors as ``raise_on_failure=True``.
        """
        step = CappingStep.COST_MIN
        if self.use_enum_kernel:
            decision = self._try_kernel(
                enum_kernel.solve_cost_min, step,
                site_hours, total_rate_rps / RATE_SCALE, step_margin_frac,
            )
            if decision is not None:
                return decision
        entry = self._entry("cost-min", site_hours, step_margin_frac)
        sf = self._patched(entry, site_hours, step_margin_frac)
        sf.b_eq[entry.serve_all_row] = total_rate_rps / RATE_SCALE
        res = self._solve(entry, sf, "cost-min")
        return _decision_from(self._rebound(entry, site_hours), res, step)

    def solve_throughput_max(
        self,
        site_hours: list[SiteHour],
        offered_rate_rps: float,
        budget: float,
        step_margin_frac: float,
        cost_tiebreak_weight: float,
        peak_mw: float | None = None,
        peak_penalty: float = 0.0,
    ) -> HourlyDecision:
        """Hot-path equivalent of ``ThroughputMaximizer``'s solve.

        With a demand charge in force (``peak_mw`` is the billing
        cycle's peak so far, ``peak_penalty`` its $/MW rate), the
        compiled structure gains a ``peak_excess`` variable priced at
        the penalty inside the budget row and (tiebreak-weighted)
        objective, plus a ``peak`` row ``sum(p_i) - peak_excess <=
        peak_mw`` whose RHS is patched per solve. The penalty is part
        of the structure key, so energy-only callers hit the exact
        pre-existing entry — and the enumeration kernel, which assumes
        a separable bill, only runs for them.
        """
        step = CappingStep.THROUGHPUT_MAX
        peak_active = peak_mw is not None and peak_penalty > 0.0
        if self.use_enum_kernel and not peak_active:
            decision = self._try_kernel(
                enum_kernel.solve_throughput_max, step,
                site_hours, offered_rate_rps / RATE_SCALE, budget,
                step_margin_frac, cost_tiebreak_weight,
            )
            if decision is not None:
                return decision
        extra: tuple = (float(cost_tiebreak_weight),)
        if peak_active:
            extra = (float(cost_tiebreak_weight), float(peak_penalty))
        entry = self._entry(
            "throughput-max", site_hours, step_margin_frac, extra=extra
        )
        sf = self._patched(entry, site_hours, step_margin_frac)
        sf.b_ub[entry.demand_row] = offered_rate_rps / RATE_SCALE
        sf.b_ub[entry.budget_row] = budget
        if peak_active:
            sf.b_ub[entry.peak_row] = peak_mw
        res = self._solve(entry, sf, "throughput-max")
        return _decision_from(self._rebound(entry, site_hours), res, step)

    @staticmethod
    def _try_kernel(
        kernel_fn, step: CappingStep, site_hours: list[SiteHour], *args
    ) -> HourlyDecision | None:
        """One enumeration-kernel attempt, decoded; None when it bails.

        Counted by :func:`~repro.core.enum_kernel.counted`; the MILP
        that takes over after a bail does its own solver accounting.
        """
        won = enum_kernel.counted(kernel_fn, site_hours, *args)
        if won is None:
            return None
        return enum_kernel.to_decision(site_hours, *won, step)

    def __len__(self) -> int:
        return len(self._entries)

    # -- structure lookup -------------------------------------------------------

    def _entry(self, kind: str, site_hours: list[SiteHour],
               step_margin_frac: float, extra: tuple = ()) -> _Entry:
        key = self._structure_key(kind, site_hours, step_margin_frac, extra)
        tel = get_telemetry()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            if tel.enabled:
                tel.counter("core.model_cache.hit").inc()
            return entry
        entry = self._build(kind, site_hours, step_margin_frac, extra)
        self._entries[key] = entry
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            if tel.enabled:
                tel.counter("core.model_cache.evict").inc()
        if tel.enabled:
            tel.counter("core.model_cache.miss").inc()
        return entry

    @staticmethod
    def _structure_key(kind: str, site_hours: list[SiteHour],
                       step_margin_frac: float, extra: tuple) -> tuple:
        parts: list = [kind, float(step_margin_frac), extra]
        for sh in site_hours:
            segs = reachable_segments(
                sh, sh.max_power_mw, step_margin_frac * sh.max_power_mw
            )
            parts.append((
                sh.name,
                sh.power_cap_mw < _INF,
                len(piecewise_widths(sh)) if sh.power_segments else -1,
                # Which price levels are reachable, at what price, and
                # whether each carries a lower-bound row — everything
                # that decides rows/columns; the numeric bounds are
                # patched per hour.
                tuple((k, price, p_lo > 0.0) for k, price, p_lo, _ in segs),
            ))
        return tuple(parts)

    # -- compilation ------------------------------------------------------------

    def _build(self, kind: str, site_hours: list[SiteHour],
               step_margin_frac: float, extra: tuple) -> _Entry:
        dm = build_dispatch_model(
            site_hours, name=kind, step_margin_frac=step_margin_frac
        )
        m = dm.model
        if kind == "cost-min":
            # Placeholder RHS; patched every solve.
            m.add(dm.total_rate_scaled == 0.0, name="serve_all")
            m.minimize(dm.total_cost)
        else:
            m.add(dm.total_rate_scaled <= 0.0, name="demand")
            total_bill = dm.total_cost
            if len(extra) == 2:
                # Demand-charge structure: the hour's bill is energy
                # plus the penalty on power above the cycle peak. The
                # peak row's RHS (the peak itself) is patched per
                # solve; its coefficients are constant.
                weight, penalty = extra
                peak_excess = m.var("peak_excess", lb=0.0)
                m.add(
                    quicksum(s.power for s in dm.sites) - peak_excess <= 0.0,
                    name="peak",
                )
                total_bill = total_bill + penalty * peak_excess
            else:
                (weight,) = extra
            m.add(total_bill <= 0.0, name="budget")
            objective = dm.total_rate_scaled
            if weight > 0:
                objective = objective - weight * total_bill
            m.maximize(objective)

        base = m.to_standard_form()
        ub_rows, eq_rows = self._row_maps(m)
        var_idx = {v.name: v.index for v in m.variables}

        slots = []
        for sv in dm.sites:
            name = sv.site.name
            k_list = [int(v.name[v.name.rindex(",") + 1 : -1])
                      for v in sv.cost.segment_active]
            slots.append(_SiteSlots(
                rate=sv.rate.index,
                active=sv.active.index,
                power=sv.power.index,
                lamseg=tuple(
                    var_idx[f"lamseg[{name},{k}]"]
                    for k in range(len(piecewise_widths(sv.site)))
                ) if sv.site.power_segments else (),
                pseg=tuple(v.index for v in sv.cost.segment_power),
                yseg=tuple(v.index for v in sv.cost.segment_active),
                gate_row=ub_rows[f"gate[{name}]"],
                cap_row=ub_rows.get(f"cap[{name}]"),
                seg_ub_rows=tuple(ub_rows[f"seg_ub[{name},{k}]"] for k in k_list),
                seg_lb_rows=tuple(
                    ub_rows.get(f"seg_lb[{name},{k}]") for k in k_list
                ),
                power_row=eq_rows[f"power[{name}]"],
            ))
        return _Entry(
            dm=dm,
            base=base,
            sense_max=m.sense.value == "max",
            slots=slots,
            serve_all_row=eq_rows.get("serve_all"),
            demand_row=ub_rows.get("demand"),
            budget_row=ub_rows.get("budget"),
            peak_row=ub_rows.get("peak"),
            solver_backend=self.solver_backend,
        )

    @staticmethod
    def _row_maps(m: Model) -> tuple[dict[str, int], dict[str, int]]:
        """Constraint name → row index, per kind, in compile order."""
        ub_rows: dict[str, int] = {}
        eq_rows: dict[str, int] = {}
        for con in m.constraints:
            rows = ub_rows if con.kind == "<=" else eq_rows
            rows[con.name] = len(rows)
        return ub_rows, eq_rows

    # -- per-hour patching ------------------------------------------------------

    @staticmethod
    def _patched(entry: _Entry, site_hours: list[SiteHour],
                 step_margin_frac: float) -> StandardForm:
        """Copy the template arrays and write this hour's coefficients.

        The written values mirror, constraint for constraint, what
        ``build_dispatch_model`` + ``to_standard_form`` would produce
        (canonical ``<=`` orientation: a ``>=`` row is stored negated).
        ``c``, ``lb`` and ``integrality`` never vary and are shared.
        """
        base = entry.base
        pi = entry.patch
        A_ub = base.A_ub.copy()
        b_ub = base.b_ub.copy()
        A_eq = base.A_eq.copy()
        ub = base.ub.copy()

        # Whole-fleet coefficient groups in single fancy-indexed writes.
        # Every value is produced by the same elementwise expression the
        # old per-site loop used, so the arrays stay bit-identical.
        mrs = np.array([sh.max_rate_rps for sh in site_hours]) / RATE_SCALE
        max_power = np.array([sh.max_power_mw for sh in site_hours])
        ub[pi.rate] = mrs
        A_ub[pi.gate, pi.active] = -mrs  # rate <= mrs*z
        ub[pi.power] = max_power
        if pi.cap_rows.size:
            b_ub[pi.cap_rows] = [
                site_hours[i].power_cap_mw for i in pi.cap_sites
            ]
        if pi.hom_rows.size:
            slopes = np.array(
                [site_hours[i].affine.slope_mw_per_rps for i in pi.hom_sites]
            )
            A_eq[pi.hom_rows, pi.hom_rate] = (-slopes) * RATE_SCALE
            A_eq[pi.hom_rows, pi.hom_active] = [
                -site_hours[i].affine.intercept_mw for i in pi.hom_sites
            ]
        # Piecewise (heterogeneous) sites: per-segment widths and slopes.
        for sl, sh in zip(entry.slots, site_hours):
            if sl.lamseg:
                for idx, (width, slope) in zip(sl.lamseg, piecewise_widths(sh)):
                    ub[idx] = width
                    A_eq[sl.power_row, idx] = -slope * RATE_SCALE
        # Price-segment geometry, flattened site-major in slot order
        # (the same order _PatchIndex was built in).
        p_lo_flat: list[float] = []
        p_hi_flat: list[float] = []
        for sh in site_hours:
            for _, _, p_lo, p_hi in reachable_segments(
                sh, sh.max_power_mw, step_margin_frac * sh.max_power_mw
            ):
                p_lo_flat.append(p_lo)
                p_hi_flat.append(p_hi)
        p_hi_arr = np.array(p_hi_flat)
        ub[pi.seg_pseg] = np.maximum(p_hi_arr, 0.0)
        A_ub[pi.seg_ub_rows, pi.seg_yseg] = -p_hi_arr  # p <= p_hi*y
        if pi.lb_rows.size:
            # p >= p_lo*y, stored negated.
            A_ub[pi.lb_rows, pi.seg_yseg[pi.lb_pos]] = np.array(
                p_lo_flat
            )[pi.lb_pos]
        return StandardForm(
            c=base.c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=base.b_eq.copy(),
            lb=base.lb,
            ub=ub,
            integrality=base.integrality,
            obj_constant=base.obj_constant,
        )

    # -- solving ----------------------------------------------------------------

    def _solve(self, entry: _Entry, sf: StandardForm, name: str) -> SolveResult:
        res = entry.solver.solve(sf)
        if not res.ok and res.status not in (
            SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED
        ):
            # Limit/error outcome: re-solve cold with the default
            # SciPy/HiGHS MILP backend on the exact same arrays.
            tel = get_telemetry()
            if tel.enabled:
                tel.counter("core.model_cache.fallback").inc()
            from ..solver.scipy_backend import ScipyBackend

            res = ScipyBackend().solve(sf)
        if res.ok:
            value = res.objective + sf.obj_constant
            if entry.sense_max:
                value = -value
            res.objective = value
            return res
        if res.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(f"model {name!r} is infeasible")
        if res.status is SolveStatus.UNBOUNDED:
            raise UnboundedError(f"model {name!r} is unbounded")
        raise SolverLimitError(
            f"model {name!r}: {res.status.value} ({res.message})"
        )

    @staticmethod
    def _rebound(entry: _Entry, site_hours: list[SiteHour]) -> DispatchModel:
        """Rebind the cached SiteVars to *this* hour's SiteHours.

        Decision decoding reads current-hour data (e.g. the zero-power
        price at the hour's background demand) off ``SiteVars.site``.
        """
        return DispatchModel(
            entry.dm.model,
            [dataclasses.replace(sv, site=sh)
             for sv, sh in zip(entry.dm.sites, site_hours)],
        )
