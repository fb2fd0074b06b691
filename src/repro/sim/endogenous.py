"""Engine adapter for closed-loop endogenous pricing.

:mod:`repro.powermarket.closedloop` owns the dispatch <-> DC-OPF fixed
point but knows nothing about strategies; this module binds it into the
stage pipeline. :class:`EndogenousPrices` is the shared runtime — it
re-runs the hour's dispatch through
:func:`~repro.sim.engine.dispatch_with_degradation` against regenerated
policies and, on convergence, installs a per-site policy override so
:meth:`Engine._realize` bills the hour at the endogenous prices.
:class:`EndogenousPriceMiddleware` wraps it as a
:class:`~repro.sim.engine.StageMiddleware` for ``Engine.run`` /
``Engine.resume``; the streaming control plane
(:class:`repro.service.ControlLoop`) calls the runtime directly.

When the fixed point falls back (iteration budget exhausted, e.g. a
genuine price oscillation, or an infeasible operating point under an
N-1 outage), the hour settles on the unchanged exogenous path: original
decision, original policies, no override. Runs without the feature
never construct any of this and stay bit-identical.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable

from ..powermarket.closedloop import (
    ClosedLoopConfig,
    EndogenousPricer,
    FixedPointResult,
    MarketCoupling,
    get_grid,
)
from ..powermarket.network import Grid
from .engine import (
    Engine,
    HourContext,
    RunState,
    StageMiddleware,
    dispatch_with_degradation,
)

__all__ = ["EndogenousPrices", "EndogenousPriceMiddleware"]


class EndogenousPrices:
    """Closed-loop pricing runtime bound to one engine.

    Parameters
    ----------
    engine:
        The engine whose sites inject power into the grid.
    grid:
        Registry name or :class:`Grid`; resolved through
        :func:`repro.powermarket.closedloop.get_grid`.
    config:
        Fixed-point tuning (damping, iteration budget, sweep window,
        operators). Defaults to :class:`ClosedLoopConfig`.
    site_buses:
        Explicit ``{site: bus}`` mapping; when omitted it is inferred
        from each site's pricing-policy region name
        (:meth:`MarketCoupling.infer`).
    mutate:
        Optional grid mutation hook (e.g.
        :func:`repro.powermarket.closedloop.line_outage`) applied
        before coupling — the N-1 contingency axis.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        grid: "str | Grid" = "pjm5bus",
        config: ClosedLoopConfig | None = None,
        site_buses: dict[str, str] | None = None,
        mutate: Callable[[Grid], Grid] | None = None,
    ):
        resolved = get_grid(grid, mutate=mutate)
        if site_buses is not None:
            coupling = MarketCoupling(grid=resolved, site_buses=site_buses)
        else:
            coupling = MarketCoupling.infer(engine.sites, resolved)
        self.engine = engine
        self.pricer = EndogenousPricer(coupling, config)
        self._sites = {s.name: s for s in engine.sites}
        self.last: FixedPointResult | None = None

    @classmethod
    def from_spec(
        cls, engine: Engine, spec: dict | None
    ) -> "EndogenousPrices | None":
        """The runtime a ``{"grid": name, "damping": beta}`` spec asks
        for — the form checkpoints and serve specs record — or ``None``
        for exogenous prices."""
        if not spec:
            return None
        return cls(
            engine,
            grid=spec["grid"],
            config=ClosedLoopConfig(damping=float(spec["damping"])),
        )

    # -- the per-hour pass -------------------------------------------------

    def apply(self, ctx: HourContext, state: RunState) -> FixedPointResult:
        """Run the hour's fixed point; install the realize override.

        Must be called after the exogenous dispatch has set
        ``ctx.decision``. On convergence ``ctx.decision`` holds the
        re-dispatched allocation and ``engine.policy_override`` the
        endogenous policies (the caller clears the override once the
        hour is realized); on fallback both are restored to the
        exogenous state.
        """
        t = ctx.hour
        coupled = self.pricer.coupling.site_buses
        background = {
            name: float(self._sites[name].background_mw[t]) for name in coupled
        }
        exo_decision = ctx.decision
        exo_site_hours = list(ctx.site_hours)

        def realized(decision) -> dict[str, float]:
            return {
                name: float(
                    self._sites[name].datacenter_at(t).power_mw(
                        decision.rate_for(name)
                    )
                )
                for name in coupled
            }

        def redispatch(policies, injections, rivals):
            hours = []
            for sh in exo_site_hours:
                bus = coupled.get(sh.name)
                if bus is None or bus not in policies:
                    hours.append(sh)
                    continue
                extra = rivals.get(sh.name, 0.0)
                hours.append(
                    dataclasses.replace(
                        sh,
                        policy=policies[bus],
                        background_mw=sh.background_mw + extra,
                    )
                )
            ctx.site_hours = hours
            return realized(dispatch_with_degradation(ctx, state))

        result = self.pricer.solve_hour(
            background, realized(exo_decision), redispatch
        )
        self.last = result
        if result.converged:
            # Bill at the endogenous prices the converged dispatch saw.
            self.engine.policy_override = {
                name: result.policies[bus]
                for name, bus in coupled.items()
                if bus in result.policies
            }
        else:
            # Exogenous fallback: the hour proceeds as if the loop were off.
            ctx.decision = exo_decision
            self.engine.policy_override = None
        ctx.site_hours = exo_site_hours
        if ctx.span is not None:
            ctx.span.set(
                closedloop_iterations=result.iterations,
                closedloop_converged=result.converged,
                closedloop_oscillated=result.oscillated,
            )
        return result

    def clear(self) -> None:
        """Drop the realize override (call after the hour is billed)."""
        self.engine.policy_override = None


class EndogenousPriceMiddleware(StageMiddleware):
    """Stage middleware running the fixed point after each dispatch.

    Compose into ``Engine.run(..., middleware=[mw])``; the override is
    installed right after the ``dispatch`` stage (so ``realize`` bills
    endogenously) and dropped when the hour closes, whether or not the
    hour settled cleanly.
    """

    def __init__(self, runtime: EndogenousPrices):
        self.runtime = runtime

    @classmethod
    def for_engine(
        cls,
        engine: Engine,
        *,
        grid: "str | Grid" = "pjm5bus",
        config: ClosedLoopConfig | None = None,
        site_buses: dict[str, str] | None = None,
        mutate: Callable[[Grid], Grid] | None = None,
    ) -> "EndogenousPriceMiddleware":
        return cls(
            EndogenousPrices(
                engine,
                grid=grid,
                config=config,
                site_buses=site_buses,
                mutate=mutate,
            )
        )

    @contextlib.contextmanager
    def hour(self, ctx: HourContext, state: RunState):
        try:
            yield
        finally:
            self.runtime.clear()

    @contextlib.contextmanager
    def stage(self, name: str, ctx: HourContext, state: RunState):
        yield
        if name == "dispatch":
            self.runtime.apply(ctx, state)
