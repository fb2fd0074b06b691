"""Bill-capper solver failures become degraded hours — in the engine.

The capper itself only raises. The engine's
:func:`~repro.sim.engine.dispatch_with_degradation` is the one place a
:class:`~repro.solver.SolverError` turns into a degraded hour, so each
test drives a :class:`~repro.sim.strategies.CappingStrategy` whose cost
minimizer dies through :meth:`repro.sim.Engine.run`.
"""

import json

import pytest

from repro.core import BillCapper, CappingStep, CostMinimizer
from repro.experiments import paper_world
from repro.resilience import DegradationPolicy
from repro.sim import Engine
from repro.sim.strategies import CappingStrategy
from repro.solver import InfeasibleError, SolverLimitError
from repro.telemetry import Telemetry, snapshot, summarize, use_telemetry

HOURS = 6


class _ExplodingMinimizer:
    """Cost-minimizer stub whose solver stack dies after ``solved`` calls."""

    def __init__(self, exc=None, solved=0):
        self.exc = exc or SolverLimitError("stub: node limit exhausted")
        self.solved = solved
        self.inner = CostMinimizer()
        self.calls = 0

    def solve(self, site_hours, total_rate_rps):
        self.calls += 1
        if self.calls <= self.solved:
            return self.inner.solve(site_hours, total_rate_rps)
        raise self.exc


def _capping(exc=None, solved=0):
    return CappingStrategy(
        capper=BillCapper(cost_minimizer=_ExplodingMinimizer(exc, solved))
    )


def _rates(record):
    return [s.dispatched_rps for s in record.sites]


@pytest.fixture(scope="module")
def world():
    return paper_world(max_servers=500_000, seed=3)


@pytest.fixture(scope="module")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


@pytest.fixture(scope="module")
def monthly(world, engine):
    anchor = engine.run("capping", hours=HOURS)
    return anchor.total_cost * world.hours / HOURS * 0.85


class TestDegradationOff:
    def test_solver_failure_propagates_by_default(self, three_sites):
        capper = BillCapper(cost_minimizer=_ExplodingMinimizer())
        with pytest.raises(SolverLimitError):
            capper.decide(three_sites, 1e6, 1e6, float("inf"))


class TestDegradationOn:
    def test_solver_failure_becomes_degraded_decision(
        self, world, engine, monthly
    ):
        result = engine.run(
            _capping(),
            budgeter=world.budgeter(monthly),
            hours=HOURS,
            degradation=DegradationPolicy.PROPORTIONAL,
        )
        assert result.degraded_hours == HOURS
        replay = world.budgeter(monthly)
        for h in result.hours:
            assert h.step is CappingStep.DEGRADED
            assert h.served_premium_rps == pytest.approx(h.demand_premium_rps)
            assert h.served_ordinary_rps == pytest.approx(
                h.demand_ordinary_rps
            )
            # The hour keeps the budget the budgeter handed it.
            assert h.budget == replay.hourly_budget()
            replay.record_spend(h.settled_cost)

    def test_infeasible_also_degrades(self, world, engine, monthly):
        result = engine.run(
            _capping(InfeasibleError("stub")),
            budgeter=world.budgeter(monthly),
            hours=HOURS,
            degradation=DegradationPolicy.PREMIUM_SHED,
        )
        assert result.degraded_hours == HOURS
        for h in result.hours:
            assert h.step is CappingStep.DEGRADED
            assert h.demand_ordinary_rps > 0
            assert h.served_ordinary_rps == 0.0
            assert h.served_premium_rps == pytest.approx(h.demand_premium_rps)

    def test_non_solver_errors_still_propagate(self, engine):
        for policy in (None, *DegradationPolicy):
            with pytest.raises(TypeError, match="a genuine bug"):
                engine.run(
                    _capping(TypeError("a genuine bug")),
                    hours=2,
                    degradation=policy,
                )

    def test_hold_last_uses_previous_successful_decision(self, engine):
        result = engine.run(
            _capping(solved=1),
            hours=2,
            degradation=DegradationPolicy.HOLD_LAST,
        )
        good, held = result.hours
        assert good.step is CappingStep.COST_MIN
        assert held.step is CappingStep.DEGRADED
        assert _rates(held) == pytest.approx(_rates(good))

    def test_degraded_hours_do_not_pollute_hold_last_history(
        self, engine, tmp_path
    ):
        path = tmp_path / "run.json"
        result = engine.run(
            _capping(solved=1),
            hours=4,
            degradation=DegradationPolicy.HOLD_LAST,
            checkpoint_path=path,
        )
        good, *held = result.hours
        assert good.step is CappingStep.COST_MIN
        for h in held:  # consecutive failures hold the same plan
            assert h.step is CappingStep.DEGRADED
            assert _rates(h) == pytest.approx(_rates(good))
        # The run's hold-last history is still the one solved hour.
        last_good = json.loads(path.read_text())["last_good"]
        assert last_good["step"] == CappingStep.COST_MIN.value
        assert [a["rate_rps"] for a in last_good["allocations"]] == _rates(good)

    def test_validation_still_raises_before_degradation(self, three_sites):
        capper = BillCapper()
        with pytest.raises(ValueError):
            capper.decide(three_sites, -1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            capper.decide(three_sites, 1.0, 0.0, -10.0)


class TestTelemetry:
    def test_degraded_decisions_counted(self, world, engine, monthly):
        tel = Telemetry()
        with use_telemetry(tel):
            result = engine.run(
                _capping(),
                budgeter=world.budgeter(monthly),
                hours=HOURS,
                degradation=DegradationPolicy.PROPORTIONAL,
            )
        counters = summarize(snapshot(tel))["counters"]
        assert result.degraded_hours == HOURS
        assert counters["engine.degraded"] == HOURS
        assert counters["engine.degraded.SolverLimitError"] == HOURS
        assert counters["resilience.degraded_hours"] == HOURS
