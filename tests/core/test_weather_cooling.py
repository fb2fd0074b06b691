"""Tests for the weather-varying cooling extension."""

import numpy as np
import pytest

from repro.core import CostMinimizer, Site
from repro.datacenter import synthetic_coe_trace
from repro.powermarket import SteppedPricingPolicy

from .conftest import small_datacenter


def make_weather_site(hours=48, amplitude=0.3):
    dc = small_datacenter()
    policy = SteppedPricingPolicy("W", (100.0, 200.0), (10.0, 20.0, 40.0))
    coe = synthetic_coe_trace(hours, 1.94, daily_amplitude=amplitude, noise=0.0)
    return Site(dc, policy, np.full(hours, 50.0), coe_trace=coe)


class TestSyntheticCoeTrace:
    def test_shape_and_positivity(self):
        t = synthetic_coe_trace(72, 1.5, seed=1)
        assert t.shape == (72,)
        assert np.all(t > 0)

    def test_mean_near_base(self):
        t = synthetic_coe_trace(24 * 30, 1.94, noise=0.0)
        assert t.mean() == pytest.approx(1.94, rel=0.01)

    def test_night_more_efficient_than_afternoon(self):
        t = synthetic_coe_trace(24, 2.0, noise=0.0)
        assert t[5] > t[15]  # 5am cold vs 3pm heat

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_coe_trace(0, 1.0)
        with pytest.raises(ValueError):
            synthetic_coe_trace(10, -1.0)
        with pytest.raises(ValueError):
            synthetic_coe_trace(10, 1.0, daily_amplitude=1.5)


class TestWeatherSite:
    def test_trace_length_validated(self):
        dc = small_datacenter()
        policy = SteppedPricingPolicy("W", (100.0,), (10.0, 20.0))
        with pytest.raises(ValueError, match="length"):
            Site(dc, policy, np.full(48, 50.0), coe_trace=np.full(24, 1.9))
        with pytest.raises(ValueError, match="positive"):
            Site(dc, policy, np.full(4, 50.0), coe_trace=np.zeros(4))

    def test_datacenter_at_swaps_cooling(self):
        site = make_weather_site()
        dc5 = site.datacenter_at(5)
        dc15 = site.datacenter_at(15)
        assert dc5.cooling.coe != dc15.cooling.coe
        # Base object untouched.
        assert site.datacenter.cooling.coe == pytest.approx(1.94)

    def test_power_cheaper_at_night(self):
        site = make_weather_site(amplitude=0.3)
        lam = 1e6
        p_night, _, _ = site.evaluate_hour(5, lam)
        p_day, _, _ = site.evaluate_hour(15, lam)
        assert p_night < p_day

    def test_hour_snapshot_uses_hourly_coe(self):
        site = make_weather_site(amplitude=0.3)
        slope_night = site.hour(5).affine.slope_mw_per_rps
        slope_day = site.hour(15).affine.slope_mw_per_rps
        assert slope_night < slope_day

    def test_dispatch_prefers_cold_site(self):
        # Two identical sites, opposite weather phases: the optimizer
        # should favour whichever is colder (more efficient) that hour.
        hours = 24
        dc_a = small_datacenter(name="A")
        dc_b = small_datacenter(name="B")
        policy = lambda n: SteppedPricingPolicy(n, (1000.0,), (10.0, 20.0))
        coe = synthetic_coe_trace(hours, 1.94, daily_amplitude=0.4, noise=0.0)
        a = Site(dc_a, policy("A"), np.full(hours, 10.0), coe_trace=coe)
        b = Site(dc_b, policy("B"), np.full(hours, 10.0), coe_trace=coe[::-1].copy())
        lam = 5e6
        d = CostMinimizer().solve([a.hour(5), b.hour(5)], lam)
        # At 5am site A is cold (efficient); it should carry the load.
        assert d.rate_for("A") > d.rate_for("B")

    def test_simulator_with_weather(self):
        from repro.sim import Engine
        from repro.workload import CustomerMix, Trace

        site = make_weather_site(hours=24)
        wl = Trace(np.full(24, 2e6))
        engine = Engine([site], wl, CustomerMix())
        res = engine.run("capping", hours=24)
        assert res.total_cost > 0
        # Hourly cost varies with the weather even under flat load/price.
        costs = res.hourly_costs
        assert costs.max() > costs.min() * 1.05
