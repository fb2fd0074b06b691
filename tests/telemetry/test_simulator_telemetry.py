"""End-to-end: a simulated run emits per-hour spans and per-solve stats."""

import pytest

from repro.core import CappingStep
from repro.experiments import paper_world
from repro.sim import Engine
from repro.telemetry import Telemetry, get_telemetry, snapshot, summarize

HOURS = 3


@pytest.fixture(scope="module")
def world():
    return paper_world(max_servers=500_000, seed=3)


@pytest.fixture(scope="module")
def traced(world):
    """One capped run with telemetry attached; shared by the assertions."""
    tel = Telemetry()
    engine = Engine(world.sites, world.workload, world.mix, telemetry=tel)
    budgeter = world.budgeter(monthly_budget=5e5)
    result = engine.run("capping", budgeter=budgeter, hours=HOURS)
    return tel, result


class TestPerHourSpans:
    def test_one_hour_span_per_simulated_hour(self, traced):
        tel, _ = traced
        hours = [s for s in tel.tracer.finished if s.name == "hour"]
        assert len(hours) == HOURS
        assert [s.attrs["hour"] for s in hours] == list(range(HOURS))

    def test_hour_children_cover_the_control_loop(self, traced):
        tel, _ = traced
        by_parent: dict = {}
        for s in tel.tracer.finished:
            by_parent.setdefault(s.parent_id, set()).add(s.name)
        hour_ids = [s.span_id for s in tel.tracer.finished if s.name == "hour"]
        for hid in hour_ids:
            assert {"budget", "dispatch", "local_optimization", "billing"} <= (
                by_parent[hid]
            )

    def test_hour_span_records_step_and_cost(self, traced):
        tel, result = traced
        hours = [s for s in tel.tracer.finished if s.name == "hour"]
        steps = {CappingStep(s.attrs["step"]) for s in hours}
        assert steps == set(result.step_counts())
        for s, record in zip(hours, result.hours):
            assert s.attrs["realized_cost"] == pytest.approx(record.realized_cost)

    def test_capper_span_nested_under_dispatch(self, traced):
        tel, _ = traced
        by_id = {s.span_id: s for s in tel.tracer.finished}
        decides = [s for s in tel.tracer.finished if s.name == "capper.decide"]
        assert len(decides) >= HOURS
        assert all(by_id[s.parent_id].name == "dispatch" for s in decides)


class TestPerSolveStats:
    def test_solver_metrics_recorded(self, traced):
        tel, _ = traced
        agg = summarize(snapshot(tel))
        solves = {
            name: v for name, v in agg["counters"].items()
            if name.startswith("solver.") and name.endswith(".solves")
        }
        # At least one MILP per hour (the default HiGHS backend).
        assert sum(solves.values()) >= HOURS
        wall = next(
            h for name, h in agg["histograms"].items()
            if name.startswith("solver.") and name.endswith(".wall_s")
        )
        assert wall["count"] >= HOURS
        assert wall["total"] > 0.0

    def test_capper_and_budgeter_metrics_recorded(self, traced):
        tel, result = traced
        agg = summarize(snapshot(tel))
        step_counts = {
            name.removeprefix("capper.step."): v
            for name, v in agg["counters"].items()
            if name.startswith("capper.step.")
        }
        assert sum(step_counts.values()) == HOURS
        expected = {s.value: c for s, c in result.step_counts().items()}
        assert step_counts == pytest.approx(expected)
        assert agg["histograms"]["budgeter.spend"]["count"] == HOURS


class TestNonPerturbation:
    def test_traced_run_matches_untraced_run(self, world, traced):
        _, traced_result = traced
        engine = Engine(world.sites, world.workload, world.mix)
        budgeter = world.budgeter(monthly_budget=5e5)
        plain = engine.run("capping", budgeter=budgeter, hours=HOURS)
        assert [h.realized_cost for h in plain.hours] == pytest.approx(
            [h.realized_cost for h in traced_result.hours]
        )
        assert plain.step_counts() == traced_result.step_counts()

    def test_untraced_run_records_nothing(self, world):
        engine = Engine(world.sites, world.workload, world.mix)
        before = get_telemetry()
        result = engine.run("capping", hours=1)
        assert result.total_cost > 0
        assert get_telemetry() is before
        assert not before.enabled or not before.tracer.finished
