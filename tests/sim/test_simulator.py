"""Integration tests: the simulator end to end on a reduced paper world.

These exercise the full stack — workload -> budgeter -> bill capper MILPs
-> local optimizers -> realized stepped prices — on short horizons so
the suite stays fast.
"""

import numpy as np
import pytest

from repro.core import CappingStep
from repro.experiments import paper_world
from repro.sim import Engine


@pytest.fixture(scope="module")
def world():
    # Smaller fleet + short horizons keep each simulated hour cheap.
    return paper_world(max_servers=500_000, seed=3)


@pytest.fixture(scope="module")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


@pytest.fixture(scope="module")
def uncapped(engine):
    return engine.run("capping", hours=48)


class TestUncapped:
    def test_everything_served(self, uncapped):
        assert uncapped.premium_throughput_fraction == pytest.approx(1.0, abs=1e-6)
        assert uncapped.ordinary_throughput_fraction == pytest.approx(1.0, abs=1e-6)

    def test_all_hours_cost_min(self, uncapped):
        assert uncapped.step_counts() == {CappingStep.COST_MIN: 48}

    def test_positive_costs(self, uncapped):
        assert np.all(uncapped.hourly_costs > 0)

    def test_predicted_close_to_realized(self, uncapped):
        # The affine decision model should track the stepped reality
        # closely in aggregate (margin keeps prices consistent).
        predicted = sum(h.predicted_cost for h in uncapped.hours)
        assert predicted == pytest.approx(uncapped.total_cost, rel=0.10)

    def test_no_hour_over_infinite_budget(self, uncapped):
        assert uncapped.hours_over_budget == 0

    def test_qos_met_every_hour(self, world, uncapped):
        # The realized G/G/m response time never exceeds the target —
        # the "lower bill is not bought with worse performance" claim.
        targets = {s.name: s.datacenter.target_response_s for s in world.sites}
        for h in uncapped.hours:
            for rec in h.sites:
                if rec.served_rps > 0:
                    assert rec.response_time_s <= targets[rec.site] + 1e-9
            assert h.worst_response_time_s <= max(targets.values()) + 1e-9


class TestBaselines:
    def test_min_only_serves_everything(self, engine):
        res = engine.run("min-only-avg", hours=48)
        assert res.premium_throughput_fraction == pytest.approx(1.0, abs=1e-6)

    def test_capping_no_more_expensive(self, engine, uncapped):
        res = engine.run("min-only-avg", hours=48)
        assert uncapped.total_cost <= res.total_cost * (1 + 1e-6)


class TestCapped:
    def test_tight_budget_caps_cost(self, world, engine, uncapped):
        month_scale = world.hours / 48
        budgeter = world.budgeter(uncapped.total_cost * month_scale * 0.6)
        res = engine.run("capping", budgeter=budgeter, hours=48)
        # Premium always fully served.
        assert res.premium_throughput_fraction == pytest.approx(1.0, abs=1e-6)
        # Ordinary throttled at least somewhere.
        assert res.ordinary_throughput_fraction < 1.0
        # Cheaper than the uncapped run.
        assert res.total_cost < uncapped.total_cost

    def test_budget_recorded(self, world, engine, uncapped):
        budgeter = world.budgeter(uncapped.total_cost * 10)
        res = engine.run("capping", budgeter=budgeter, hours=24)
        assert np.all(np.isfinite(res.hourly_budgets))

    def test_abundant_budget_equals_uncapped(self, world, engine, uncapped):
        month_scale = world.hours / 48
        budgeter = world.budgeter(uncapped.total_cost * month_scale * 3.0)
        res = engine.run("capping", budgeter=budgeter, hours=48)
        assert res.total_cost == pytest.approx(uncapped.total_cost, rel=1e-6)
        assert res.ordinary_throughput_fraction == pytest.approx(1.0, abs=1e-6)


class TestValidation:
    def test_hours_bounds(self, engine):
        with pytest.raises(ValueError):
            engine.run("capping", hours=0)
        with pytest.raises(ValueError):
            engine.run("capping", hours=10**6)

    def test_horizon_beyond_budgeting_period_rejected(self, world, engine):
        # Regression: this used to crash mid-month with an opaque
        # RuntimeError("budgeting period exhausted") after simulating
        # (and paying for) month_hours of dispatch.
        from repro.core import Budgeter

        short = Budgeter(1e6, world.predictor(), month_hours=24)
        with pytest.raises(ValueError, match="exceeds the budgeter's remaining"):
            engine.run("capping", budgeter=short, hours=48)

    def test_partially_spent_budgeter_counts_remaining_hours(self, world, engine):
        budgeter = world.budgeter(1e6)
        for _ in range(budgeter.month_hours - 10):
            budgeter.hourly_budget()
            budgeter.record_spend(0.0)
        with pytest.raises(ValueError, match="remaining 10 budgeted hours"):
            engine.run("capping", budgeter=budgeter, hours=48)

    def test_workload_longer_than_background_rejected(self, world):
        from repro.core import Site
        from repro.sim import Engine
        from repro.workload import Trace

        short_sites = [
            Site(s.datacenter, s.policy, s.background_mw[:10]) for s in world.sites
        ]
        with pytest.raises(ValueError, match="exceeds background"):
            Engine(short_sites, world.workload, world.mix)

    def test_empty_sites_rejected(self, world):
        with pytest.raises(ValueError):
            Engine([], world.workload, world.mix)
