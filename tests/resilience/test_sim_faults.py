"""End-to-end fault-injected simulation on a reduced paper world.

A seeded chaos month must complete with no uncaught exception, every
hour must still carry a dispatch decision, and — just as important —
the fault-free path must stay bit-identical to a plain run.
"""

import numpy as np
import pytest

from repro.experiments import paper_world
from repro.resilience import DegradationPolicy, FaultInjector, FaultSpec
from repro.sim import Engine
from repro.telemetry import Telemetry, snapshot, summarize, use_telemetry


def _counters(tel):
    return summarize(snapshot(tel))["counters"]

HOURS = 36

CHAOS = FaultSpec(
    price_stale=0.2,
    sensor_dropout=0.15,
    solver_error=0.15,
    solver_timeout=0.1,
    budget_loss=0.1,
    seed=11,
)


@pytest.fixture(scope="module")
def world():
    return paper_world(max_servers=500_000, seed=3)


@pytest.fixture(scope="module")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


def _monthly(world, engine):
    anchor = engine.run("capping", hours=HOURS)
    return anchor.total_cost * world.workload.hours / HOURS * 0.85


class TestChaosRun:
    @pytest.fixture(scope="class")
    def chaos(self, world, engine):
        tel = Telemetry()
        budgeter = world.budgeter(_monthly(world, engine))
        with use_telemetry(tel):
            result = engine.run(
                "capping",
                budgeter=budgeter,
                hours=HOURS,
                faults=FaultInjector(CHAOS),
            )
        return result, tel

    def test_every_hour_dispatched(self, chaos):
        result, _ = chaos
        assert len(result.hours) == HOURS
        for h in result.hours:
            assert h.sites  # every hour carries a concrete allocation
            assert h.realized_cost >= 0.0

    def test_solver_faults_become_degraded_hours(self, chaos):
        result, _ = chaos
        expected = sum(
            1
            for t in range(HOURS)
            if FaultInjector(CHAOS).faults_for(t).solver_exception() is not None
        )
        assert expected > 0
        assert result.degraded_hours == expected

    def test_telemetry_counters_recorded(self, chaos):
        result, tel = chaos
        values = _counters(tel)
        assert values["resilience.degraded_hours"] == result.degraded_hours
        assert values["engine.degraded"] == result.degraded_hours
        injected = {
            k: v for k, v in values.items() if k.startswith("resilience.injected.")
        }
        assert injected and all(v > 0 for v in injected.values())
        assert values["resilience.budgeter_restarts"] >= 1

    def test_counters_match_schedule(self, chaos):
        _, tel = chaos
        values = _counters(tel)
        for kind, count in FaultInjector(CHAOS).schedule_counts(HOURS).items():
            assert values.get(f"resilience.injected.{kind}", 0) == count

    def test_seeded_chaos_is_reproducible(self, world, engine, chaos):
        result, _ = chaos
        again = engine.run(
            "capping",
            budgeter=world.budgeter(_monthly(world, engine)),
            hours=HOURS,
            faults=FaultInjector(CHAOS),
        )
        assert [h.step for h in again.hours] == [h.step for h in result.hours]
        np.testing.assert_allclose(again.hourly_costs, result.hourly_costs)


class TestFaultFreePathUnchanged:
    def test_zero_probability_injector_is_bit_identical(self, world, engine):
        monthly = _monthly(world, engine)
        plain = engine.run(
            "capping", budgeter=world.budgeter(monthly), hours=HOURS
        )
        wired = engine.run(
            "capping",
            budgeter=world.budgeter(monthly),
            hours=HOURS,
            faults=FaultInjector(FaultSpec(seed=99)),
        )
        assert [h.step for h in plain.hours] == [h.step for h in wired.hours]
        assert list(plain.hourly_costs) == list(wired.hourly_costs)
        for a, b in zip(plain.hours, wired.hours):
            assert [(r.site, r.dispatched_rps, r.cost) for r in a.sites] == [
                (r.site, r.dispatched_rps, r.cost) for r in b.sites
            ]
        assert wired.degraded_hours == 0

    def test_faults_none_is_bit_identical(self, engine):
        a = engine.run("capping", hours=12)
        b = engine.run("capping", hours=12, faults=None)
        assert list(a.hourly_costs) == list(b.hourly_costs)


class TestPolicySelection:
    def test_explicit_policy_reaches_capper(self, world, engine):
        budgeter = world.budgeter(_monthly(world, engine))
        result = engine.run(
            "capping",
            budgeter=budgeter,
            hours=12,
            faults=FaultInjector(FaultSpec(solver_error=1.0)),
            degradation=DegradationPolicy.PREMIUM_SHED,
        )
        assert result.degraded_hours == 12
        for h in result.hours:
            assert h.demand_ordinary_rps > 0
            # premium-shed admits no ordinary traffic on degraded hours
            assert h.served_ordinary_rps == 0.0

    def test_budget_loss_restores_from_checkpoint(self, world, engine):
        budgeter = world.budgeter(_monthly(world, engine))
        tel = Telemetry()
        with use_telemetry(tel):
            result = engine.run(
                "capping",
                budgeter=budgeter,
                hours=12,
                faults=FaultInjector(FaultSpec(budget_loss=1.0)),
            )
        values = _counters(tel)
        assert values["resilience.budgeter_restarts"] == 12
        # restore-from-checkpoint keeps the budget sequence coherent:
        # every hour still gets a finite budget and records its spend.
        assert len(result.hours) == 12
        assert all(np.isfinite(h.budget) for h in result.hours)
