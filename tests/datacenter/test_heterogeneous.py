"""Tests for heterogeneous data centers (Section IX extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import (
    CapacityError,
    CoolingModel,
    HeterogeneousDataCenter,
    LocalOptimizer,
    ServerPool,
    ServerSpec,
    SwitchPowers,
)


def make_pool(watts=100.0, rate=500.0, count=1000, name="pool"):
    return ServerPool(
        spec=ServerSpec.from_operating_point(name, watts, rate), count=count
    )


def make_hdc(pools=None, **overrides):
    pools = pools or (
        make_pool(100.0, 500.0, 1000, "old"),
        make_pool(50.0, 725.0, 1000, "new"),  # much more efficient
    )
    kwargs = dict(
        name="HDC",
        pools=tuple(pools),
        switch_powers=SwitchPowers(184.0, 184.0, 240.0),
        cooling=CoolingModel(1.94),
        target_response_s=0.5,
    )
    kwargs.update(overrides)
    return HeterogeneousDataCenter(**kwargs)


class TestValidation:
    def test_empty_pools_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousDataCenter(
                name="empty",
                pools=(),
                switch_powers=SwitchPowers(184.0, 184.0, 240.0),
                cooling=CoolingModel(1.94),
                target_response_s=0.5,
            )

    def test_zero_count_pool_rejected(self):
        with pytest.raises(ValueError):
            ServerPool(ServerSpec("s", 10.0, 10.0, 100.0), count=0)

    def test_unattainable_response_rejected(self):
        with pytest.raises(ValueError, match="unattainable"):
            make_hdc(target_response_s=0.001)


class TestGreedySplit:
    def test_efficiency_order(self):
        hdc = make_hdc()
        ordered = hdc.pools_by_efficiency()
        assert ordered[0].spec.name == "new"
        assert ordered[1].spec.name == "old"

    def test_low_load_goes_to_efficient_pool(self):
        hdc = make_hdc()
        split = dict(
            (pool.spec.name, rate) for pool, rate in hdc.split_load(1e5)
        )
        assert split["new"] == pytest.approx(1e5)
        assert split["old"] == 0.0

    def test_spillover(self):
        hdc = make_hdc()
        new_cap = hdc.pools_by_efficiency()[0].capacity_rps(hdc.utilization_cap)
        split = dict(
            (pool.spec.name, rate) for pool, rate in hdc.split_load(new_cap + 1e4)
        )
        assert split["new"] == pytest.approx(new_cap)
        assert split["old"] == pytest.approx(1e4)

    def test_mass_conserved(self):
        hdc = make_hdc()
        lam = 6e5
        assert sum(r for _, r in hdc.split_load(lam)) == pytest.approx(lam)

    def test_capacity_error(self):
        hdc = make_hdc()
        with pytest.raises(CapacityError):
            hdc.split_load(1e9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_hdc().split_load(-1.0)


class TestPower:
    def test_zero_load(self):
        p = make_hdc().provision(0.0)
        assert p.total_power_w == 0.0

    def test_greedy_cheaper_than_single_old_pool(self):
        # Same total capacity, but the heterogeneous site can put the
        # load on its efficient half.
        hdc = make_hdc()
        old_only = make_hdc(pools=(make_pool(100.0, 500.0, 2000, "old"),))
        lam = 2e5
        assert hdc.power_w(lam) < old_only.power_w(lam)

    def test_power_monotone(self):
        hdc = make_hdc()
        lams = np.linspace(1e4, 8e5, 12)
        powers = [hdc.power_w(l) for l in lams]
        assert powers == sorted(powers)

    def test_components_consistent(self):
        p = make_hdc().provision(3e5)
        assert p.total_power_w == pytest.approx(
            p.server_power_w + p.network_power_w + p.cooling_power_w
        )
        assert p.n_servers > 0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=7e5))
    def test_secant_affine_upper_bounds_exact(self, lam):
        # The affine decision model must never underestimate (convexity
        # of the greedy curve). Allow pod-granularity fuzz at low load.
        hdc = make_hdc()
        exact = hdc.power_mw(lam)
        modeled = hdc.affine_power().power_mw(lam)
        assert modeled >= exact * 0.95 - 0.02

    def test_piecewise_power_structure(self):
        hdc = make_hdc()
        segments = hdc.piecewise_power()
        assert len(segments) == 2
        caps = [c for c, _ in segments]
        slopes = [s for _, s in segments]
        assert caps == sorted(caps)
        assert slopes == sorted(slopes)  # efficiency order: slopes rise


class TestIntegration:
    def test_local_optimizer_compatible(self):
        hdc = make_hdc(power_cap_mw=0.15)
        opt = LocalOptimizer(hdc)
        d = opt.decide(9e5)
        assert d.power_mw <= 0.15 + 1e-6
        assert d.served_rps > 0

    def test_site_and_cost_min_compatible(self):
        from repro.core import CostMinimizer, Site

        pol_cls = __import__(
            "repro.powermarket", fromlist=["SteppedPricingPolicy"]
        ).SteppedPricingPolicy
        policy = pol_cls("H", (0.5, 1.0), (10.0, 20.0, 40.0))
        site = Site(make_hdc(), policy, np.full(24, 0.2))
        d = CostMinimizer().solve([site.hour(0)], 4e5)
        assert d.predicted_cost > 0

    def test_simulator_accepts_heterogeneous_sites(self):
        from repro.core import Site
        from repro.powermarket import SteppedPricingPolicy
        from repro.sim import Engine
        from repro.workload import CustomerMix, Trace

        policy = SteppedPricingPolicy("H", (0.5, 1.0), (10.0, 20.0, 40.0))
        site = Site(make_hdc(), policy, np.full(24, 0.2))
        wl = Trace(np.full(24, 3e5))
        engine = Engine([site], wl, CustomerMix())
        res = engine.run("capping", hours=6)
        assert res.total_cost > 0
        assert res.premium_throughput_fraction == pytest.approx(1.0)
