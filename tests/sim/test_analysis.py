"""Tests for the analysis utilities (`repro.sim.analysis`)."""

import numpy as np
import pytest

from repro.core import CappingStep
from repro.sim import (
    SimulationResult,
    budget_adherence,
    compare,
    format_comparison,
    price_level_occupancy,
    savings,
    site_breakdown,
)

from .test_records import make_hour


def _result(costs, name="r", **kwargs):
    r = SimulationResult(name)
    for i, c in enumerate(costs):
        r.append(make_hour(hour=i, realized=c, **kwargs))
    return r


class TestSavings:
    def test_basic(self):
        a = _result([80.0, 80.0])
        b = _result([100.0, 100.0])
        assert savings(a, b) == pytest.approx(0.2)

    def test_negative_when_worse(self):
        assert savings(_result([120.0]), _result([100.0])) == pytest.approx(-0.2)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            savings(_result([1.0]), _result([0.0]))


class TestBudgetAdherence:
    def test_all_within(self):
        r = _result([50.0, 60.0], budget=100.0)
        adh = budget_adherence(r, monthly_budget=1000.0)
        assert adh.hours_over == 0
        assert adh.within_monthly_budget
        assert adh.utilization == pytest.approx(0.11)
        assert adh.worst_hourly_overshoot == 0.0

    def test_violations_classified(self):
        r = SimulationResult("v")
        r.append(make_hour(hour=0, realized=150.0, budget=100.0,
                           step=CappingStep.PREMIUM_ONLY))
        r.append(make_hour(hour=1, realized=120.0, budget=100.0,
                           step=CappingStep.THROUGHPUT_MAX))
        r.append(make_hour(hour=2, realized=90.0, budget=100.0))
        adh = budget_adherence(r, monthly_budget=300.0)
        assert adh.hours_over == 2
        assert adh.mandatory_hours_over == 1
        assert adh.worst_hourly_overshoot == pytest.approx(50.0)
        assert not adh.within_monthly_budget

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            budget_adherence(_result([1.0]), 0.0)


class TestSiteBreakdown:
    def test_single_site_totals(self):
        r = _result([100.0, 100.0])  # make_hour: 5 MW @ price 10 per hour
        bd = site_breakdown(r)
        assert set(bd) == {"DC1"}
        assert bd["DC1"]["energy_mwh"] == pytest.approx(10.0)
        assert bd["DC1"]["cost"] == pytest.approx(200.0)
        assert bd["DC1"]["cost_share"] == pytest.approx(1.0)
        assert bd["DC1"]["mean_price"] == pytest.approx(20.0)


class TestPriceLevelOccupancy:
    def test_counts_levels(self):
        from repro.core import Site
        from repro.datacenter import CoolingModel, DataCenter, ServerSpec, SwitchPowers
        from repro.powermarket import SteppedPricingPolicy
        from repro.sim import Engine
        from repro.workload import CustomerMix, Trace

        dc = DataCenter(
            name="DC1",
            servers=ServerSpec.from_operating_point("s", 100.0, 500.0),
            max_servers=50_000,
            switch_powers=SwitchPowers(184.0, 184.0, 240.0),
            cooling=CoolingModel(1.94),
            target_response_s=0.5,
        )
        policy = SteppedPricingPolicy("DC1", (3.0, 6.0), (10.0, 20.0, 30.0))
        site = Site(dc, policy, np.full(8, 1.0))
        wl = Trace(np.full(8, 5e6))
        engine = Engine([site], wl, CustomerMix())
        res = engine.run("capping", hours=8)
        occ = price_level_occupancy(res, [site])
        assert occ["DC1"].sum() == 8
        assert occ["DC1"].shape == (3,)

    def test_unknown_site_rejected(self):
        r = _result([1.0])
        with pytest.raises(KeyError):
            price_level_occupancy(r, [])


class TestCompare:
    def test_rows_and_format(self):
        rows = compare({"a": _result([100.0]), "b": _result([150.0])})
        by_name = {r["strategy"]: r for r in rows}
        assert by_name["a"]["vs_cheapest"] == pytest.approx(0.0)
        assert by_name["b"]["vs_cheapest"] == pytest.approx(0.5)
        text = format_comparison({"a": _result([100.0]), "b": _result([150.0])})
        assert "strategy" in text and "a" in text and "b" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare({})
