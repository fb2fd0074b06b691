"""Closed-loop DC-OPF co-simulation: endogenous locational prices.

The paper's premise is that cloud-scale data centers are price
*makers*: the stepped policies ``F_i(P_i)`` of Figure 1 exist because
the DC's own draw moves the market. The exogenous pipeline still treats
those curves as fixed per hour. This module closes the loop:

1. after an hour's dispatch, inject every site's realized power at its
   grid bus and re-run :class:`~repro.powermarket.dcopf.DcOpf`;
2. extract fresh LMPs and regenerate each coupled bus's
   :class:`~repro.powermarket.pricing.SteppedPricingPolicy` from an
   :meth:`~repro.powermarket.dcopf.DcOpf.lmp_sweep` around the current
   operating point;
3. re-dispatch against the regenerated curves and iterate to a damped
   fixed point (plain relaxation or Anderson(1) acceleration).

Because LMPs are a *step function* of injected power, the undamped
iteration is a best-response dynamic that can cycle: when an operator
chases the cheap side of a congestion step, its own load re-congests
the line, the price jumps, the operator backs off, the price falls
back — a period-2 oscillation (cf. "When Market Prices Drive the
Load", PAPERS.md). The solver detects such cycles (``lmp_k ~ lmp_{k-2}
!= lmp_{k-1}``), counts them, and falls back to the exogenous path
when the iteration budget runs out, so a closed-loop run never stalls.

Telemetry counters: ``closedloop.iterations`` (every OPF re-clear),
``closedloop.converged`` / ``closedloop.oscillated`` /
``closedloop.fallback`` (per hour).

Scenario axes for the sweep engine: N-1 line outages via
:func:`line_outage` (a grid mutation hook), renewable-shaped background
demand (:func:`repro.powermarket.demand.renewable_background`), and
multi-operator competition (``ClosedLoopConfig.operators`` models K
symmetric operators chasing the same cheap buses).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from ..telemetry import get_telemetry
from .dcopf import DcOpf
from .network import Grid
from .pjm5bus import _compress_steps
from .pricing import SteppedPricingPolicy, flat_policy

__all__ = [
    "ClosedLoopConfig",
    "FixedPointResult",
    "MarketCoupling",
    "EndogenousPricer",
    "register_grid",
    "get_grid",
    "available_grids",
    "line_outage",
    "compress_steps",
    "policies_from_sweep",
]

#: Public alias of the PJM helper: collapse a swept LMP curve into
#: ``(breakpoints, prices)`` step-policy data.
compress_steps = _compress_steps


# -- grid registry -----------------------------------------------------------

_GRID_FACTORIES: dict[str, Callable[[], Grid]] = {}
_BUILTINS_LOADED = False


def register_grid(
    name: str, factory: Callable[[], Grid], *, replace: bool = False
) -> None:
    """Register a named grid factory for CLI/sweep resolution."""
    _ensure_builtins()
    if not replace and name in _GRID_FACTORIES:
        raise ValueError(f"grid {name!r} already registered")
    if not callable(factory):
        raise TypeError("factory must be callable")
    _GRID_FACTORIES[name] = factory


def _ensure_builtins() -> None:
    """Register the built-in grids exactly once, lazily."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from .grids import ieee9_like, two_zone
    from .pjm5bus import pjm5bus

    _GRID_FACTORIES["pjm5bus"] = pjm5bus
    _GRID_FACTORIES["two-zone"] = two_zone
    _GRID_FACTORIES["ieee9"] = ieee9_like


def available_grids() -> tuple[str, ...]:
    """Names of all registered grids."""
    _ensure_builtins()
    return tuple(sorted(_GRID_FACTORIES))


def get_grid(
    grid: "str | Grid",
    *,
    mutate: Callable[[Grid], Grid] | None = None,
) -> Grid:
    """Resolve a grid by registry name (or pass one through).

    ``mutate`` is an optional grid-mutation hook applied after
    resolution — e.g. :func:`line_outage` for N-1 contingency studies.
    """
    _ensure_builtins()
    if isinstance(grid, str):
        try:
            grid = _GRID_FACTORIES[grid]()
        except KeyError:
            raise ValueError(
                f"unknown grid {grid!r}; available: "
                f"{', '.join(available_grids())}"
            ) from None
    if mutate is not None:
        grid = mutate(grid)
    return grid


def line_outage(key: str) -> Callable[[Grid], Grid]:
    """Grid mutation hook removing line ``key`` (N-1 contingency).

    The returned callable builds a new :class:`Grid` without the line;
    :class:`Grid` validation rejects outages that island the network.
    """

    def mutate(grid: Grid) -> Grid:
        keep = [l for l in grid.lines if l.key != key]
        if len(keep) == len(grid.lines):
            raise KeyError(
                f"no line {key!r} in grid; lines: "
                f"{', '.join(l.key for l in grid.lines)}"
            )
        return Grid(
            buses=list(grid.buses),
            lines=keep,
            generators=list(grid.generators),
            base_mva=grid.base_mva,
        )

    return mutate


# -- coupling ----------------------------------------------------------------


@dataclass(frozen=True)
class MarketCoupling:
    """Binds simulation sites to grid buses.

    Attributes
    ----------
    grid:
        The transmission network whose DC-OPF clears the market.
    site_buses:
        ``{site name: bus name}`` — where each data center injects its
        load. Several sites may share a bus.
    """

    grid: Grid
    site_buses: dict[str, str]

    def __post_init__(self):
        names = {b.name for b in self.grid.buses}
        for site, bus in self.site_buses.items():
            if bus not in names:
                raise ValueError(
                    f"site {site!r} mapped to unknown bus {bus!r}"
                )
        if not self.site_buses:
            raise ValueError("coupling needs at least one site")

    @property
    def buses(self) -> tuple[str, ...]:
        """Coupled buses, in grid order (deduplicated)."""
        mapped = set(self.site_buses.values())
        return tuple(b.name for b in self.grid.buses if b.name in mapped)

    @classmethod
    def infer(cls, sites: Iterable, grid: "str | Grid") -> "MarketCoupling":
        """Map sites to buses by their pricing policy's region name.

        The paper's worlds name each site's policy after its market
        region (policy ``B`` prices bus ``B`` of the PJM system), so
        the policy name doubles as the bus assignment. Sites whose
        policy names no grid bus need an explicit ``site_buses``
        mapping instead.
        """
        grid = get_grid(grid)
        names = {b.name for b in grid.buses}
        mapping = {}
        for site in sites:
            region = site.policy.name
            if region not in names:
                raise ValueError(
                    f"cannot infer a bus for site {site.name!r}: policy "
                    f"region {region!r} is not a bus of the grid; pass "
                    "an explicit site_buses mapping"
                )
            mapping[site.name] = region
        return cls(grid=grid, site_buses=mapping)


# -- configuration / result --------------------------------------------------


@dataclass(frozen=True)
class ClosedLoopConfig:
    """Tuning for the dispatch <-> OPF fixed-point iteration.

    Attributes
    ----------
    damping:
        Relaxation weight on the *new* injected-power iterate:
        ``p <- (1 - damping) * p + damping * p_new``. ``1.0`` is the
        undamped best-response dynamic (which can oscillate across
        congestion steps); ``0.5`` is a robust default.
    acceleration:
        ``"relaxation"`` (plain damped iteration) or ``"anderson"``
        (depth-1 Anderson mixing on the injected-power residual).
    max_iterations:
        OPF re-clears allowed per hour before falling back.
    tol_lmp:
        Convergence threshold on the max LMP change ($/MWh) between
        successive iterations.
    sweep_halfwidth_mw, sweep_step_mw:
        Window (system MW) of the ``lmp_sweep`` used to regenerate the
        stepped policies around the current operating point.
    operators:
        K symmetric operators chasing the same buses: nodal injections
        are ``K * p`` and each operator sees the other ``K - 1`` fleets
        as additional background demand. ``1`` is the single-operator
        paper setting.
    """

    damping: float = 0.5
    acceleration: str = "relaxation"
    max_iterations: int = 8
    tol_lmp: float = 1e-6
    sweep_halfwidth_mw: float = 150.0
    sweep_step_mw: float = 5.0
    operators: int = 1

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.acceleration not in ("relaxation", "anderson"):
            raise ValueError(
                f"unknown acceleration {self.acceleration!r}; "
                "use 'relaxation' or 'anderson'"
            )
        if self.max_iterations < 2:
            raise ValueError("max_iterations must be >= 2")
        if self.tol_lmp <= 0 or self.sweep_step_mw <= 0:
            raise ValueError("tolerances and steps must be positive")
        if self.operators < 1:
            raise ValueError("operators must be >= 1")


@dataclass
class FixedPointResult:
    """Outcome of one hour's dispatch <-> OPF iteration.

    ``policies`` / ``lmps`` are keyed by bus; ``injections`` by site
    (the damped per-operator MW). ``fallback`` means the hour should be
    settled on the exogenous path (``policies`` then holds the last
    regenerated curves for diagnosis only).
    """

    converged: bool
    oscillated: bool
    fallback: bool
    iterations: int
    lmps: dict[str, float]
    policies: dict[str, SteppedPricingPolicy]
    injections: dict[str, float]
    lmp_history: list[dict[str, float]] = field(default_factory=list)


# -- policy regeneration -----------------------------------------------------


def policies_from_sweep(
    opf: DcOpf,
    shares: Mapping[str, float],
    system_loads: np.ndarray,
    *,
    fallback_lmp: Mapping[str, float] | None = None,
) -> dict[str, SteppedPricingPolicy]:
    """Regenerate stepped policies from an LMP sweep.

    Mirrors :func:`repro.powermarket.pjm5bus.derive_step_policies` but
    for arbitrary shares and load windows: each bus's swept LMP curve
    is compressed into steps and expressed over *locational* load
    (``share * system load``), which is how the policies consume
    ``P_i = p_i + d_i``. Zero-share buses (no locational axis to sweep)
    and all-infeasible sweeps get a flat policy at ``fallback_lmp``.
    """
    fallback_lmp = fallback_lmp or {}
    live = {b: s for b, s in shares.items() if s > 1e-12}
    out: dict[str, SteppedPricingPolicy] = {}
    sweep = opf.lmp_sweep(live, system_loads) if live else {}
    for bus, share in shares.items():
        if bus not in sweep:
            out[bus] = flat_policy(bus, float(fallback_lmp.get(bus, 0.0)))
            continue
        try:
            breakpoints, prices = compress_steps(
                np.asarray(system_loads, dtype=float), sweep[bus]
            )
        except ValueError:  # every sweep point infeasible
            out[bus] = flat_policy(bus, float(fallback_lmp.get(bus, 0.0)))
            continue
        locational = tuple(bp * share for bp in breakpoints)
        out[bus] = SteppedPricingPolicy(bus, locational, prices)
    return out


# -- the fixed point ---------------------------------------------------------


class EndogenousPricer:
    """Per-hour dispatch <-> DC-OPF fixed point for one market region.

    The pricer owns the grid and the iteration scheme but knows nothing
    about dispatch strategies: callers hand it a ``redispatch``
    callback that re-runs their dispatcher against regenerated policies
    and returns the sites' realized power. That keeps the power-market
    layer free of simulation imports (the engine adapter lives in
    :mod:`repro.sim.endogenous`).
    """

    def __init__(
        self,
        coupling: MarketCoupling,
        config: ClosedLoopConfig | None = None,
        *,
        mutate: Callable[[Grid], Grid] | None = None,
    ):
        self.config = config or ClosedLoopConfig()
        if mutate is not None:
            coupling = replace(coupling, grid=mutate(coupling.grid))
        self.coupling = coupling
        self.opf = DcOpf(self.coupling.grid)

    # -- pieces ------------------------------------------------------------

    def nodal_loads(
        self,
        background: Mapping[str, float],
        injections: Mapping[str, float],
    ) -> dict[str, float]:
        """Bus loads from per-site background + K x injected DC power."""
        k = self.config.operators
        loads: dict[str, float] = {}
        for site, bus in self.coupling.site_buses.items():
            loads[bus] = (
                loads.get(bus, 0.0)
                + float(background.get(site, 0.0))
                + k * max(0.0, float(injections.get(site, 0.0)))
            )
        return loads

    def regenerate(
        self,
        nodal_loads: Mapping[str, float],
        lmps: Mapping[str, float],
    ) -> dict[str, SteppedPricingPolicy]:
        """Fresh stepped policies from a sweep around the operating point."""
        cfg = self.config
        buses = self.coupling.buses
        total = sum(max(0.0, nodal_loads.get(b, 0.0)) for b in buses)
        if total > 0:
            shares = {b: max(0.0, nodal_loads.get(b, 0.0)) / total for b in buses}
        else:
            shares = {b: 1.0 / len(buses) for b in buses}
            total = cfg.sweep_step_mw
        lo = max(cfg.sweep_step_mw, total - cfg.sweep_halfwidth_mw)
        hi = total + cfg.sweep_halfwidth_mw
        window = np.arange(lo, hi + cfg.sweep_step_mw / 2, cfg.sweep_step_mw)
        return policies_from_sweep(
            self.opf, shares, window, fallback_lmp=lmps
        )

    # -- the iteration -----------------------------------------------------

    def solve_hour(
        self,
        background: Mapping[str, float],
        initial_injections: Mapping[str, float],
        redispatch: Callable[
            [dict[str, SteppedPricingPolicy], dict[str, float], dict[str, float]],
            Mapping[str, float],
        ],
    ) -> FixedPointResult:
        """Iterate dispatch <-> OPF to a damped fixed point.

        Parameters
        ----------
        background:
            ``{site: MW}`` non-DC demand at each site's bus.
        initial_injections:
            ``{site: MW}`` realized DC power of the exogenous dispatch
            (the iteration's starting point).
        redispatch:
            ``(policies_by_bus, injections_by_site, rivals_by_site) ->
            {site: MW}`` — re-run the dispatcher against regenerated
            policies. ``injections_by_site`` is the current damped
            iterate (spot-price takers read their operating point from
            it); ``rivals_by_site`` carries the rival operators' load
            (``(K - 1) * p``) so multi-operator competition prices
            correctly — all zeros for ``operators=1``.

        Returns
        -------
        FixedPointResult
        """
        cfg = self.config
        tel = get_telemetry()
        sites = tuple(self.coupling.site_buses)
        p = {s: max(0.0, float(initial_injections.get(s, 0.0))) for s in sites}
        policies: dict[str, SteppedPricingPolicy] = {}
        history: list[dict[str, float]] = []
        oscillated = False
        p_prev: dict[str, float] | None = None
        f_prev: dict[str, float] | None = None

        for it in range(1, cfg.max_iterations + 1):
            tel.counter("closedloop.iterations").inc()
            loads = self.nodal_loads(background, p)
            res = self.opf.dispatch(loads)
            if not res.feasible:
                # The damped operating point left the feasible region
                # (e.g. an N-1 outage shrank it): settle exogenously.
                tel.counter("closedloop.fallback").inc()
                return FixedPointResult(
                    converged=False,
                    oscillated=oscillated,
                    fallback=True,
                    iterations=it,
                    lmps=history[-1] if history else {},
                    policies=policies,
                    injections=p,
                    lmp_history=history,
                )
            lmps = {b: res.lmp_at(b) for b in self.coupling.buses}
            history.append(lmps)
            if len(history) >= 2 and self._delta(lmps, history[-2]) < cfg.tol_lmp:
                tel.counter("closedloop.converged").inc()
                return FixedPointResult(
                    converged=True,
                    oscillated=oscillated,
                    fallback=False,
                    iterations=it,
                    lmps=lmps,
                    policies=policies,
                    injections=p,
                    lmp_history=history,
                )
            if (
                not oscillated
                and len(history) >= 3
                and self._delta(lmps, history[-3]) < cfg.tol_lmp
                and self._delta(lmps, history[-2]) >= cfg.tol_lmp
            ):
                # Period-2 best-response cycle across a congestion step.
                oscillated = True
                tel.counter("closedloop.oscillated").inc()
            policies = self.regenerate(loads, lmps)
            rivals = {s: (cfg.operators - 1) * p[s] for s in sites}
            p_new = self._clean(redispatch(policies, dict(p), rivals), sites)
            p, p_prev, f_prev = self._mix(p, p_new, p_prev, f_prev)

        tel.counter("closedloop.fallback").inc()
        return FixedPointResult(
            converged=False,
            oscillated=oscillated,
            fallback=True,
            iterations=cfg.max_iterations,
            lmps=history[-1] if history else {},
            policies=policies,
            injections=p,
            lmp_history=history,
        )

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _clean(
        injections: Mapping[str, float], sites: tuple[str, ...]
    ) -> dict[str, float]:
        return {s: max(0.0, float(injections.get(s, 0.0))) for s in sites}

    @staticmethod
    def _delta(a: Mapping[str, float], b: Mapping[str, float]) -> float:
        return max(abs(a[k] - b.get(k, float("nan"))) for k in a) if a else 0.0

    def _mix(
        self,
        p: dict[str, float],
        p_new: dict[str, float],
        p_prev: dict[str, float] | None,
        f_prev: dict[str, float] | None,
    ) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """One damped/accelerated update of the injected-power iterate."""
        beta = self.config.damping
        f = {s: p_new[s] - p[s] for s in p}
        if self.config.acceleration == "anderson" and f_prev is not None:
            # Anderson(1): mix the two most recent damped steps with the
            # least-squares weight on the residual difference.
            df = {s: f[s] - f_prev[s] for s in f}
            denom = sum(v * v for v in df.values())
            theta = (
                sum(f[s] * df[s] for s in f) / denom if denom > 1e-18 else 0.0
            )
            theta = min(2.0, max(-2.0, theta))
            nxt = {
                s: max(
                    0.0,
                    (1.0 - theta) * (p[s] + beta * f[s])
                    + theta * (p_prev[s] + beta * f_prev[s]),
                )
                for s in p
            }
        else:
            nxt = {s: max(0.0, p[s] + beta * f[s]) for s in p}
        return nxt, dict(p), f
