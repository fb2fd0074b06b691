"""Min-Only: the state-of-the-art cost-minimization baseline.

Section VII-A: Min-Only "is an optimization-based cost minimization
algorithm designed for Internet-scale data centers [Rao et al.,
INFOCOM 2010]". It differs from Cost Capping in exactly three ways, all
reproduced here:

1. **Price taker** — it assumes its dispatch does not move prices, so
   each site has a *constant* price. Two variants simulate how such an
   algorithm would be parameterized against a stepped real market:
   ``Min-Only (Avg)`` uses the mean of the step prices and
   ``Min-Only (Low)`` the lowest step price.
2. **Servers only** — its decision model ignores cooling and networking
   power.
3. **No budget** — it always serves the full offered load, however
   expensive.

With constant prices and affine power, the baseline's problem is an LP.
The *realized* bill is later evaluated by the simulator against the
true stepped prices and the full power model — which is where the
baseline underperforms, exactly as in the paper's Figures 3-4 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..datacenter import DataCenter, WATTS_PER_MW
from ..solver import Model, quicksum
from .allocation import Allocation, CappingStep, HourlyDecision
from .site import SiteHour

__all__ = ["PriceMode", "MinOnlyDispatcher"]


class PriceMode(Enum):
    """How Min-Only summarizes a stepped policy into one constant price.

    ``AVG`` and ``LOW`` are the paper's two variants (Section VII-A).
    ``CURRENT`` is an extension: the most informed price taker
    possible — it observes the *current* market price at the hour's
    background demand, but still assumes its own dispatch cannot move
    it. Even this best-case price taker loses to the price-maker
    formulation whenever its concentrated dispatch crosses a step.
    """

    AVG = "avg"
    LOW = "low"
    CURRENT = "current"

    def constant_price(self, site: SiteHour) -> float:
        if self is PriceMode.AVG:
            return site.policy.average_price
        if self is PriceMode.CURRENT:
            return site.policy.price(site.background_mw)
        return site.policy.lowest_price


def server_only_affine_slope(dc) -> float:
    """MW per (request/second) counting *server* power only.

    The baseline's decision model (difference 2 above): the affine
    slope without the networking share and without the cooling
    overhead factor. Heterogeneous sites get the capacity-weighted
    (secant) server slope across their pools.
    """
    u = dc.utilization_cap
    servers = getattr(dc, "servers", None)
    if servers is not None:
        return servers.power_w(u) / (u * servers.service_rate) / WATTS_PER_MW
    # Heterogeneous: total server watts over total capacity.
    total_w = sum(p.count * p.spec.power_w(u) for p in dc.pools)
    capacity = sum(p.capacity_rps(u) for p in dc.pools)
    return total_w / capacity / WATTS_PER_MW


@dataclass
class MinOnlyDispatcher:
    """The Min-Only baseline dispatcher.

    Parameters
    ----------
    price_mode:
        ``PriceMode.AVG`` or ``PriceMode.LOW``.
    server_slopes:
        Per-site server-only power slopes (MW per rps), in site order —
        build them with :func:`server_only_affine_slope`. These define
        the baseline's *decision* model; realized cost still uses the
        full physics.
    backend:
        Solver backend; the problem is an LP, any backend works.
    solver_backend:
        LP engine for the compiled hot path: ``"simplex"``,
        ``"revised-simplex"`` or ``None`` (size-adaptive default).
    """

    price_mode: PriceMode
    server_slopes: dict[str, float]
    backend: object | None = None
    solver_backend: str | None = None
    model_cache: object | None = field(default=None, repr=False, compare=False)

    @classmethod
    def for_sites(cls, sites, mode: PriceMode, **kwargs) -> "MinOnlyDispatcher":
        """A dispatcher parameterized against ``sites``.

        Builds the per-site server-only slopes the baseline's decision
        model needs — the one piece of world-dependent configuration.
        """
        return cls(
            price_mode=mode,
            server_slopes={
                s.name: server_only_affine_slope(s.datacenter) for s in sites
            },
            **kwargs,
        )

    def solve(
        self, site_hours: list[SiteHour], total_rate_rps: float
    ) -> HourlyDecision:
        """Serve the full offered load at (believed) minimum cost."""
        if total_rate_rps < 0:
            raise ValueError("total rate must be >= 0")
        from .dispatch_model import RATE_SCALE

        if self.backend is None:
            return self._solve_cached(site_hours, total_rate_rps)

        m = Model("min-only")
        rates = []
        costs = []
        for sh in site_hours:
            if sh.name not in self.server_slopes:
                raise KeyError(f"no server slope for site {sh.name!r}")
            slope = self.server_slopes[sh.name] * RATE_SCALE  # MW per Mrps
            price = self.price_mode.constant_price(sh)
            # The baseline converts the contractual power cap to a rate
            # bound with its *own* (servers-only) model — difference 2
            # of Section VII-A. Underestimating power, it believes the
            # cap admits more load than it physically does; the local
            # optimizers shed the excess at dispatch time.
            believed_max = sh.physical_rate_rps
            if sh.power_cap_mw < float("inf"):
                believed_max = min(
                    believed_max, sh.power_cap_mw / self.server_slopes[sh.name]
                )
            rate = m.var(f"lam[{sh.name}]", lb=0.0, ub=believed_max / RATE_SCALE)
            if sh.power_cap_mw < float("inf"):
                m.add(slope * rate <= sh.power_cap_mw, name=f"cap[{sh.name}]")
            rates.append(rate)
            costs.append(price * slope * rate)
        m.add(quicksum(rates) == total_rate_rps / RATE_SCALE, name="serve_all")
        m.minimize(quicksum(costs))
        res = m.solve(backend=self.backend, raise_on_failure=True)

        lams = [max(0.0, res.value(rate)) * RATE_SCALE for rate in rates]
        return self._decision(site_hours, total_rate_rps, lams)

    def _solve_cached(
        self, site_hours: list[SiteHour], total_rate_rps: float
    ) -> HourlyDecision:
        """Hot path: patch the compiled baseline LP instead of rebuilding.

        Same LP, same result (the equivalence is pinned by tests); the
        modeling layer is skipped, and each hour's LP is solved from its
        own inputs alone.
        """
        from .dispatch_model import RATE_SCALE
        from .model_cache import MinOnlyCache

        for sh in site_hours:
            if sh.name not in self.server_slopes:
                raise KeyError(f"no server slope for site {sh.name!r}")
        if self.model_cache is None:
            self.model_cache = MinOnlyCache(lp_solver=self.solver_backend)
        prices = [self.price_mode.constant_price(sh) for sh in site_hours]
        res = self.model_cache.solve(
            site_hours, total_rate_rps, prices, self.server_slopes
        )
        lams = [max(0.0, float(res.x[i])) * RATE_SCALE
                for i in range(len(site_hours))]
        return self._decision(site_hours, total_rate_rps, lams)

    def _decision(
        self,
        site_hours: list[SiteHour],
        total_rate_rps: float,
        lams: list[float],
    ) -> HourlyDecision:
        allocs = []
        for sh, lam in zip(site_hours, lams):
            slope = self.server_slopes[sh.name]
            price = self.price_mode.constant_price(sh)
            power = slope * lam
            allocs.append(Allocation(sh.name, lam, power, price, price * power))
        return HourlyDecision(
            step=CappingStep.BASELINE,
            allocations=tuple(allocs),
            served_premium_rps=total_rate_rps,
            served_ordinary_rps=0.0,
            demand_premium_rps=total_rate_rps,
            demand_ordinary_rps=0.0,
            predicted_cost=sum(a.predicted_cost for a in allocs),
        )
