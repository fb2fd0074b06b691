"""Property and edge-case tests for the simulator's invariants."""

import numpy as np
import pytest

from repro.core import Site
from repro.datacenter import (
    CoolingModel,
    DataCenter,
    ServerSpec,
    SwitchPowers,
)
from repro.powermarket import SteppedPricingPolicy, flat_policy
from repro.sim import Engine
from repro.workload import CustomerMix, Trace


def tiny_site(name="DC", max_servers=20_000, power_cap=float("inf"), seed=0):
    rng = np.random.default_rng(seed)
    dc = DataCenter(
        name=name,
        servers=ServerSpec.from_operating_point(f"{name}-srv", 90.0, 500.0),
        max_servers=max_servers,
        switch_powers=SwitchPowers(184.0, 184.0, 240.0),
        cooling=CoolingModel(1.9),
        target_response_s=0.5,
        power_cap_mw=power_cap,
    )
    policy = SteppedPricingPolicy(name, (1.0, 2.0), (10.0, 20.0, 40.0))
    bg = rng.uniform(0.3, 0.9, size=48)
    return Site(dc, policy, bg)


def run_tiny(workload_rates, **site_kwargs):
    site = tiny_site(**site_kwargs)
    wl = Trace(np.asarray(workload_rates, dtype=float))
    engine = Engine([site], wl, CustomerMix())
    return engine.run("capping", hours=len(workload_rates))


class TestInvariants:
    def test_served_never_exceeds_demand(self):
        res = run_tiny([1e6, 3e6, 5e6, 2e6])
        for h in res.hours:
            assert h.served_total_rps <= h.demand_total_rps * (1 + 1e-9)

    def test_costs_nonnegative_and_finite(self):
        res = run_tiny([0.0, 1e6, 7e6, 0.0])
        assert np.all(res.hourly_costs >= 0.0)
        assert np.all(np.isfinite(res.hourly_costs))

    def test_zero_demand_hours_cost_nothing(self):
        res = run_tiny([0.0, 0.0])
        assert res.total_cost == 0.0
        assert res.hourly_power_mw.tolist() == [0.0, 0.0]

    def test_demand_beyond_capacity_clamped_not_crashed(self):
        # A single small site offered far more than it can serve.
        res = run_tiny([1e9, 1e9], max_servers=1_000)
        assert res.premium_throughput_fraction <= 1.0
        for h in res.hours:
            assert h.served_total_rps < 1e9

    def test_power_cap_respected_every_hour(self):
        res = run_tiny([5e6, 6e6, 7e6], power_cap=0.8)
        assert np.all(res.hourly_power_mw <= 0.8 + 1e-6)

    def test_flat_policy_cost_proportional_to_energy(self):
        site = tiny_site()
        site = Site(site.datacenter, flat_policy("DC", 12.0), site.background_mw)
        wl = Trace(np.array([2e6, 4e6]))
        res = Engine([site], wl, CustomerMix()).run("capping", hours=2)
        for h in res.hours:
            assert h.realized_cost == pytest.approx(12.0 * h.total_power_mw, rel=1e-9)

    def test_records_are_per_site_complete(self):
        site_a = tiny_site("A", seed=1)
        site_b = tiny_site("B", seed=2)
        wl = Trace(np.full(3, 2e6))
        res = Engine([site_a, site_b], wl, CustomerMix()).run("capping", hours=3)
        for h in res.hours:
            assert {rec.site for rec in h.sites} == {"A", "B"}
            assert h.realized_cost == pytest.approx(
                sum(rec.cost for rec in h.sites)
            )

    def test_monotone_workload_monotone_power(self):
        rates = [1e6, 2e6, 4e6, 8e6]
        res = run_tiny(rates)
        powers = res.hourly_power_mw
        # Background varies, but power is driven by load on a single site.
        assert powers.tolist() == sorted(powers.tolist())


class TestBaselineInvariants:
    def test_min_only_capping_cost_ordering(self):
        from repro.core import PriceMode
        from repro.sim.strategies import MinOnlyStrategy

        site = tiny_site(seed=3)
        wl = Trace(np.full(6, 5e6))
        engine = Engine([site], wl, CustomerMix())
        capping = engine.run("capping", hours=6)
        for mode in (PriceMode.AVG, PriceMode.LOW, PriceMode.CURRENT):
            baseline = engine.run(MinOnlyStrategy(mode), hours=6)
            # With one site there is no routing freedom: realized bills
            # coincide — the guarantee is capping is never *worse*.
            assert capping.total_cost <= baseline.total_cost * (1 + 1e-9)
