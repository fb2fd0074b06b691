"""Fault injection beyond Cost Capping: every strategy degrades gracefully.

Fault tolerance used to be a Cost Capping special case; the engine's
middleware makes it a property of the pipeline. These tests pin the two
halves of that contract for the other registered strategies:

* a faulted month *completes* — solver faults turn into degraded hours
  instead of raising out of the run;
* ``faults=None`` (and a zero-probability injector) stays bit-identical
  to a plain run for **all** strategies.
"""

import pathlib
import re

import pytest

from repro.experiments import paper_world
from repro.resilience import DegradationPolicy, FaultInjector, FaultSpec
from repro.sim import Engine, available_strategies
from repro.sim.registry import _FACTORIES
from repro.telemetry import Telemetry, snapshot, summarize, use_telemetry

TUTORIAL = pathlib.Path(__file__).resolve().parents[2] / "docs" / "TUTORIAL.md"

HOURS = 12

CHAOS = FaultSpec(
    price_stale=0.2,
    sensor_dropout=0.15,
    solver_error=0.3,
    solver_timeout=0.15,
    seed=11,
)


@pytest.fixture(scope="module")
def world():
    return paper_world(max_servers=500_000, seed=3)


@pytest.fixture(scope="module")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


class TestFaultedPriceTakers:
    def test_faulted_min_only_month_completes_degraded(self, engine):
        """The headline regression: a faulted Min-Only month used to be
        impossible (faults were a capping-only feature). Now the
        engine catches the injected solver failures and dispatches those
        hours through the degradation path."""
        tel = Telemetry()
        with use_telemetry(tel):
            result = engine.run(
                "min-only-avg", hours=HOURS, faults=FaultInjector(CHAOS)
            )
        expected = sum(
            1
            for t in range(HOURS)
            if FaultInjector(CHAOS).faults_for(t).solver_exception() is not None
        )
        assert expected > 0
        assert len(result.hours) == HOURS
        assert result.degraded_hours == expected
        counters = summarize(snapshot(tel))["counters"]
        assert counters["resilience.degraded_hours"] == expected
        assert counters["engine.degraded"] == expected
        # Non-degraded hours still dispatch through the real solver.
        assert any(not h.degraded for h in result.hours)

    def test_every_faulted_hour_still_serves(self, engine):
        result = engine.run(
            "min-only-avg",
            hours=HOURS,
            faults=FaultInjector(FaultSpec(solver_error=1.0, seed=5)),
        )
        assert result.degraded_hours == HOURS
        for h in result.hours:
            assert h.sites
            assert h.realized_cost >= 0.0
            assert h.served_total_rps > 0.0

    def test_explicit_policy_reaches_engine_fallback(self, engine):
        result = engine.run(
            "min-only-avg",
            hours=6,
            faults=FaultInjector(FaultSpec(solver_error=1.0, seed=5)),
            degradation=DegradationPolicy.PREMIUM_SHED,
        )
        assert result.degraded_hours == 6
        for h in result.hours:
            assert h.demand_ordinary_rps > 0
            assert h.served_ordinary_rps == 0.0

    def test_hold_last_reuses_previous_solution(self, engine):
        # Fault every hour after the first solved one: HOLD_LAST should
        # freeze the dispatch at the last good allocation.
        spec = FaultSpec(solver_error=1.0, seed=5)
        sched = FaultInjector(spec)
        assert sched.faults_for(0).solver_exception() is not None
        result = engine.run(
            "min-only-avg",
            hours=4,
            faults=FaultInjector(spec),
            degradation=DegradationPolicy.HOLD_LAST,
        )
        assert len(result.hours) == 4

    def test_clean_run_without_policy_still_raises(self, engine):
        """No faults wired and no policy: genuine solver failures keep
        raising — the engine only degrades when asked to."""
        from repro.sim.strategies import MinOnlyStrategy
        from repro.core import PriceMode
        from repro.solver import SolverError

        class Exploding(MinOnlyStrategy):
            def decide(self, ctx):
                raise SolverError("boom")

        with pytest.raises(SolverError, match="boom"):
            engine.run(Exploding(mode=PriceMode.AVG), hours=1)

    def test_seeded_chaos_reproducible(self, engine):
        a = engine.run("min-only-avg", hours=HOURS, faults=FaultInjector(CHAOS))
        b = engine.run("min-only-avg", hours=HOURS, faults=FaultInjector(CHAOS))
        assert [h.to_dict() for h in a.hours] == [h.to_dict() for h in b.hours]


def _tutorial_strategy(class_name):
    """The class a TUTORIAL code block defines, exactly as documented."""
    blocks = re.findall(r"```python\n(.*?)```", TUTORIAL.read_text(), re.S)
    block = next(b for b in blocks if f"class {class_name}:" in b)
    namespace: dict = {}
    try:
        exec(block, namespace)
    finally:
        _FACTORIES.pop("greedy-cheapest", None)  # the block registers it
    return namespace[class_name]


class TestInjectedFaultsNeverReachDecide:
    """The engine raises an injected fault in place of ``decide``, so a
    strategy needs no fault-injection code to degrade under it."""

    def test_tutorial_strategy_degrades_every_faulted_hour(self, engine):
        greedy = _tutorial_strategy("GreedyCheapest")
        tel = Telemetry()
        with use_telemetry(tel):
            result = engine.run(
                greedy(),
                hours=24,
                faults=FaultInjector(FaultSpec(solver_error=1.0, seed=5)),
            )
        assert result.degraded_hours == 24
        counters = summarize(snapshot(tel))["counters"]
        assert counters["engine.degraded"] == 24
        assert counters["engine.degraded.SolverError"] == 24

    def test_decide_is_not_called_on_a_faulted_hour(self, engine):
        from repro.core import PriceMode
        from repro.sim.strategies import MinOnlyStrategy

        class Counting(MinOnlyStrategy):
            calls = 0

            def decide(self, ctx):
                Counting.calls += 1
                return super().decide(ctx)

        spec = FaultSpec(solver_error=0.3, solver_timeout=0.15, seed=11)
        faulted = sum(
            FaultInjector(spec).faults_for(t).solver_exception() is not None
            for t in range(HOURS)
        )
        result = engine.run(
            Counting(mode=PriceMode.AVG),
            hours=HOURS,
            faults=FaultInjector(spec),
        )
        assert 0 < faulted < HOURS
        assert result.degraded_hours == faulted
        assert Counting.calls == HOURS - faulted


class TestFaultFreePathUnchanged:
    @pytest.mark.parametrize(
        "name", [s for s in available_strategies() if s != "hierarchical"]
    )
    def test_faults_none_is_bit_identical(self, engine, name):
        plain = engine.run(name, hours=6)
        wired = engine.run(name, hours=6, faults=None)
        assert [h.to_dict() for h in plain.hours] == [
            h.to_dict() for h in wired.hours
        ]

    @pytest.mark.parametrize(
        "name", [s for s in available_strategies() if s != "hierarchical"]
    )
    def test_zero_probability_injector_is_bit_identical(self, engine, name):
        plain = engine.run(name, hours=6)
        wired = engine.run(
            name, hours=6, faults=FaultInjector(FaultSpec(seed=99))
        )
        assert [h.to_dict() for h in plain.hours] == [
            h.to_dict() for h in wired.hours
        ]
        assert wired.degraded_hours == 0

    def test_hierarchical_faults_none_matches(self, world, engine):
        plain = engine.run("hierarchical", hours=1)
        wired = engine.run("hierarchical", hours=1, faults=None)
        assert [h.to_dict() for h in plain.hours] == [
            h.to_dict() for h in wired.hours
        ]
