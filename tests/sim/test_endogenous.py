"""Engine/serve integration of closed-loop endogenous pricing.

The acceptance criteria of the closed-loop PR, as tests:

* the damped fixed point converges every hour of a paper-world month
  within the iteration budget;
* with the feature off, runs are bit-identical to the plain pipeline
  (field for field, including after an endogenous run on the same
  engine: no billing state outlives its hour);
* hours that fall back settle exactly on the exogenous path;
* the sweep metric exposes the scenario axes (N-1 outage, renewable
  background, multi-operator competition) and competition moves prices.
"""

import pytest

from repro.experiments import paper_world
from repro.powermarket import ClosedLoopConfig
from repro.service import ControlLoop, Tick
from repro.sim import Engine, closedloop_metric, run_sweep, sweep_grid
from repro.sim.endogenous import EndogenousPriceMiddleware, EndogenousPrices
from repro.telemetry import Telemetry, use_telemetry

HOURS = 24


def _engine(seed=7):
    world = paper_world(1, seed=seed)
    return world, Engine(world.sites, world.workload, world.mix)


def _dicts(result):
    return [h.to_dict() for h in result.hours]


@pytest.fixture(scope="module")
def baseline():
    _, engine = _engine()
    return _dicts(engine.run("capping", hours=HOURS))


class TestEngineIntegration:
    def test_paper_world_converges_every_hour(self, baseline):
        tel = Telemetry()
        _, engine = _engine()
        mw = EndogenousPriceMiddleware.for_engine(engine, grid="pjm5bus")
        with use_telemetry(tel):
            result = engine.run("capping", hours=HOURS, middleware=[mw])
        converged = tel.registry.get("closedloop.converged").value
        iterations = tel.registry.get("closedloop.iterations").value
        assert converged == HOURS
        assert tel.registry.get("closedloop.fallback") is None
        # Convergence needs >= 2 OPF clears (the check compares
        # successive LMP vectors) and must stay within the budget.
        cfg = mw.runtime.pricer.config
        assert 2 * HOURS <= iterations <= cfg.max_iterations * HOURS
        # The hour is billed at the endogenous prices, which differ
        # from the hand-transcribed paper curves somewhere in the month.
        assert _dicts(result) != baseline

    def test_disabled_is_bit_identical(self, baseline):
        _, engine = _engine()
        again = engine.run("capping", hours=HOURS, middleware=[])
        assert _dicts(again) == baseline

    def test_no_leakage_after_endogenous_run(self, baseline):
        _, engine = _engine()
        mw = EndogenousPriceMiddleware.for_engine(engine)
        with use_telemetry(Telemetry()):
            engine.run("capping", hours=6, middleware=[mw])
        # Endogenous prices must not survive the run: a plain run on
        # the same engine reproduces a fresh engine's run exactly.
        assert _dicts(engine.run("capping", hours=HOURS)) == baseline

    def test_fallback_hours_settle_exogenously(self, baseline):
        # K=50 symmetric operators push the nodal loads past total
        # generation: every hour's OPF is infeasible, every hour falls
        # back — and the run is bit-identical to the exogenous one.
        tel = Telemetry()
        world, engine = _engine()
        mw = EndogenousPriceMiddleware.for_engine(
            engine,
            grid="two-zone",
            site_buses={s.name: "Y" for s in world.sites},
            config=ClosedLoopConfig(operators=50),
        )
        with use_telemetry(tel):
            result = engine.run("capping", hours=HOURS, middleware=[mw])
        assert tel.registry.get("closedloop.fallback").value == HOURS
        assert tel.registry.get("closedloop.converged") is None
        assert _dicts(result) == baseline


def _exogenous_events(world, engine):
    loop = ControlLoop(
        engine, "capping", budgeter=world.budgeter(2_000_000.0), hours=2
    )
    return loop.on_tick(Tick(seq=0, time_s=0.0, kind="lambda", value=100.0))


class TestServeIntegration:
    def test_control_loop_applies_and_clears(self):
        world, engine = _engine()
        runtime = EndogenousPrices(engine, grid="pjm5bus")
        loop = ControlLoop(
            engine,
            "capping",
            budgeter=world.budgeter(2_000_000.0),
            hours=2,
            endogenous=runtime,
        )
        with use_telemetry(Telemetry()):
            events = loop.on_tick(
                Tick(seq=0, time_s=0.0, kind="lambda", value=100.0)
            )
        assert events
        assert runtime.last is not None and runtime.last.converged
        # An exogenous loop on the same engine decides and bills as on
        # a fresh one.
        fresh_world, fresh = _engine()
        assert _exogenous_events(world, engine) == _exogenous_events(
            fresh_world, fresh
        )

    def test_exogenous_loop_unaffected(self):
        world, engine = _engine()
        loop = ControlLoop(
            engine, "capping", budgeter=world.budgeter(2_000_000.0), hours=2
        )
        assert loop.endogenous is None
        events = loop.on_tick(
            Tick(seq=0, time_s=0.0, kind="lambda", value=100.0)
        )
        assert events


class TestSweepMetric:
    def test_scenario_axes(self):
        grid = sweep_grid(
            hours=[6],
            line_outage=[None, "D-E"],
            background=["reco", "renewable"],
        )
        with use_telemetry(Telemetry()) as tel:
            out = run_sweep(closedloop_metric, grid)
        assert len(out) == 4
        for summary in out:
            assert summary["hours"] == 6
            assert summary["convergence_rate"] == pytest.approx(1.0)
            assert summary["fallback_hours"] == 0.0
            assert summary["mean_iterations"] >= 2.0
        # Counters from the per-scenario bundles merge into the ambient.
        merged = tel.registry.get("closedloop.iterations")
        assert merged is not None and merged.value >= 2 * 6 * 4

    def test_competition_raises_cost(self):
        with use_telemetry(Telemetry()):
            solo = closedloop_metric({"hours": 6, "operators": 1})
        with use_telemetry(Telemetry()):
            crowd = closedloop_metric({"hours": 6, "operators": 8})
        assert crowd["total_cost"] > solo["total_cost"] * 1.5

    def test_renewable_background_changes_month(self):
        with use_telemetry(Telemetry()):
            reco = closedloop_metric({"hours": 6, "background": "reco"})
        with use_telemetry(Telemetry()):
            duck = closedloop_metric({"hours": 6, "background": "renewable"})
        assert reco["convergence_rate"] == duck["convergence_rate"] == 1.0
