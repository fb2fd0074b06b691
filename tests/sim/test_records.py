"""Unit tests for simulation records and aggregates."""

import dataclasses

import numpy as np
import pytest

from repro.billing import LineItem
from repro.core import CappingStep
from repro.sim import HourRecord, SimulationResult, SiteRecord


def make_hour(
    hour=0,
    step=CappingStep.COST_MIN,
    budget=float("inf"),
    realized=100.0,
    served_p=80.0,
    served_o=20.0,
    demand_p=80.0,
    demand_o=20.0,
):
    site = SiteRecord("DC1", 100.0, 100.0, 5.0, 10.0, realized, 1000)
    return HourRecord(
        hour=hour,
        step=step,
        budget=budget,
        predicted_cost=realized,
        realized_cost=realized,
        demand_premium_rps=demand_p,
        demand_ordinary_rps=demand_o,
        served_premium_rps=served_p,
        served_ordinary_rps=served_o,
        sites=(site,),
    )


class TestHourRecord:
    def test_totals(self):
        h = make_hour()
        assert h.served_total_rps == 100.0
        assert h.total_power_mw == 5.0

    def test_over_budget(self):
        assert make_hour(budget=50.0, realized=100.0).over_budget
        assert not make_hour(budget=100.0, realized=100.0).over_budget
        assert not make_hour().over_budget  # inf budget

    def test_over_budget_counts_the_demand_line(self):
        energy_fits = make_hour(budget=100.0, realized=90.0)
        billed = dataclasses.replace(
            energy_fits,
            line_items=(LineItem("energy", 90.0), LineItem("demand", 20.0)),
        )
        assert not energy_fits.over_budget
        assert billed.over_budget


class TestHoursOverBudgetUnderDemandCharge:
    def test_count_is_hours_whose_line_items_exceed_the_budget(self):
        from repro.experiments import paper_world
        from repro.sim import Engine, resolve_monthly_budget

        world = paper_world(1, seed=7)
        engine = Engine(world.sites, world.workload, world.mix)
        monthly = resolve_monthly_budget(world, 0.85, hours=24, engine=engine)
        result = engine.run(
            "capping",
            budgeter=world.budgeter(monthly),
            hours=24,
            tariff="energy+demand:rate=0.5,cycle=24",
        )
        over = [
            h for h in result.hours
            if sum(li.amount for li in h.line_items) > h.budget * (1 + 1e-9)
        ]
        energy_over = [
            h for h in result.hours
            if h.realized_cost > h.budget * (1 + 1e-9)
        ]
        # The demand line pushes hours over that energy alone would not.
        assert len(over) > len(energy_over)
        assert result.hours_over_budget == len(over)
        assert result.summary()["hours_over_budget"] == len(over)
        # The paper's guarantee: only flagged hours settle over budget.
        assert all(h.step is CappingStep.PREMIUM_ONLY for h in over)


class TestSimulationResult:
    def _result(self, n=10):
        r = SimulationResult("test")
        for i in range(n):
            r.append(make_hour(hour=i, realized=100.0 + i))
        return r

    def test_series_shapes(self):
        r = self._result(5)
        assert len(r) == 5
        assert r.hourly_costs.tolist() == [100.0, 101.0, 102.0, 103.0, 104.0]
        assert r.total_cost == pytest.approx(510.0)

    def test_total_cost_is_the_settled_bill(self):
        r = SimulationResult("t")
        for i, demand in enumerate((0.0, 40.0, 7.5)):
            r.append(dataclasses.replace(
                make_hour(hour=i, realized=100.0 + i),
                line_items=(
                    LineItem("energy", 100.0 + i),
                    LineItem("demand", demand),
                ),
            ))
        assert r.hourly_costs.tolist() == [100.0, 101.0, 102.0]
        assert r.hourly_bills.tolist() == [100.0, 141.0, 109.5]
        assert r.total_cost == 350.5
        assert r.summary()["total_cost"] == 350.5
        assert r.summary()["mean_hourly_cost"] == pytest.approx(350.5 / 3)
        assert r.budget_utilization(701.0) == 0.5

    def test_throughput_fractions(self):
        r = SimulationResult("t")
        r.append(make_hour(served_p=80.0, served_o=10.0))
        r.append(make_hour(served_p=40.0, served_o=0.0, demand_p=80.0))
        assert r.premium_throughput_fraction == pytest.approx(120.0 / 160.0)
        assert r.ordinary_throughput_fraction == pytest.approx(10.0 / 40.0)

    def test_throughput_with_zero_demand(self):
        r = SimulationResult("t")
        r.append(make_hour(demand_p=0.0, demand_o=0.0, served_p=0.0, served_o=0.0))
        assert r.premium_throughput_fraction == 1.0
        assert r.ordinary_throughput_fraction == 1.0

    def test_hours_over_budget(self):
        r = SimulationResult("t")
        r.append(make_hour(budget=50.0))
        r.append(make_hour(budget=500.0))
        assert r.hours_over_budget == 1

    def test_budget_utilization(self):
        r = self._result(5)  # costs 100..104 -> 510 total
        assert r.budget_utilization(1020.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            r.budget_utilization(0.0)

    def test_step_counts(self):
        r = SimulationResult("t")
        r.append(make_hour(step=CappingStep.COST_MIN))
        r.append(make_hour(step=CappingStep.PREMIUM_ONLY))
        r.append(make_hour(step=CappingStep.COST_MIN))
        counts = r.step_counts()
        assert counts[CappingStep.COST_MIN] == 2
        assert counts[CappingStep.PREMIUM_ONLY] == 1

    def test_summary_keys(self):
        s = self._result().summary()
        assert set(s) == {
            "total_cost",
            "mean_hourly_cost",
            "premium_throughput",
            "ordinary_throughput",
            "hours_over_budget",
            "degraded_hours",
            "peak_power_mw",
        }


class TestRecordVersioning:
    def test_to_dict_stamps_current_version(self):
        from repro.sim.records import RECORD_VERSION

        d = make_hour().to_dict()
        assert d["v"] == RECORD_VERSION

    def test_round_trip_is_field_identical(self):
        rec = make_hour(hour=3, budget=250.0)
        assert HourRecord.from_dict(rec.to_dict()) == rec

    def test_future_version_rejected_with_clear_error(self):
        d = make_hour().to_dict()
        d["v"] = 99
        with pytest.raises(ValueError, match="version"):
            HourRecord.from_dict(d)

    def test_missing_version_rejected(self):
        d = make_hour().to_dict()
        del d["v"]
        with pytest.raises(ValueError, match="version"):
            HourRecord.from_dict(d)

    def test_malformed_site_record_rejected(self):
        d = make_hour().to_dict()
        d["sites"][0]["bogus_field"] = 1.0
        with pytest.raises(ValueError, match="site record"):
            HourRecord.from_dict(d)
