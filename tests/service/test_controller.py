"""Tests for the pure synchronous control loop and its trigger policy."""

import pytest

from repro.experiments import paper_world
from repro.service import ControlLoop, Tick, TriggerPolicy, run_serial, replay_ticks
from repro.sim.engine import Engine

HOUR = 3600.0


@pytest.fixture(scope="module")
def world():
    return paper_world(policy_id=1, seed=7)


@pytest.fixture(scope="module")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


def _loop(world, engine, hours=2, **trigger_kw):
    trigger = TriggerPolicy(**trigger_kw) if trigger_kw else TriggerPolicy()
    return ControlLoop(
        engine,
        "capping",
        trigger=trigger,
        budgeter=world.budgeter(2_000_000.0),
        hours=hours,
    )


def _lam(seq, time_s, value):
    return Tick(seq=seq, time_s=time_s, kind="lambda", value=value)


class TestTriggerPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TriggerPolicy(max_staleness_s=60.0, debounce_s=120.0)
        with pytest.raises(ValueError):
            TriggerPolicy(lambda_delta=-0.1)
        # NaN passes every sign check, so each field must refuse it.
        for field in ("lambda_delta", "price_delta", "debounce_s",
                      "max_staleness_s"):
            with pytest.raises(ValueError, match="finite"):
                TriggerPolicy(**{field: float("nan")})

    def test_hour_start_always_dispatches(self, world, engine):
        loop = _loop(world, engine)
        events = loop.on_tick(_lam(0, 0.0, 100.0))
        assert [e.reason for e in events] == ["hour-start"]

    def test_delta_exactly_at_threshold_fires(self, world, engine):
        # >= comparison: a relative delta of exactly lambda_delta fires.
        loop = _loop(world, engine, lambda_delta=0.10, debounce_s=60.0)
        loop.on_tick(_lam(0, 0.0, 100.0))
        events = loop.on_tick(_lam(1, 100.0, 110.0))
        assert [e.reason for e in events] == ["lambda-delta"]

    def test_delta_below_threshold_holds(self, world, engine):
        loop = _loop(world, engine, lambda_delta=0.10, debounce_s=60.0)
        loop.on_tick(_lam(0, 0.0, 100.0))
        assert loop.on_tick(_lam(1, 100.0, 109.9)) == ()

    def test_bursts_inside_debounce_coalesce(self, world, engine):
        # Three huge swings inside the debounce window produce zero
        # dispatches; the first tick past the window, measured against
        # the last *dispatched* state, fires once.
        loop = _loop(world, engine, lambda_delta=0.05, debounce_s=300.0)
        loop.on_tick(_lam(0, 0.0, 100.0))
        for seq, t in enumerate((60.0, 120.0, 180.0), start=1):
            assert loop.on_tick(_lam(seq, t, 100.0 + 50.0 * seq)) == ()
        events = loop.on_tick(_lam(4, 301.0, 250.0))
        assert [e.reason for e in events] == ["lambda-delta"]
        assert loop.decisions == 2

    def test_staleness_deadline_fires_on_quiet_stream(self, world, engine):
        loop = _loop(
            world, engine, lambda_delta=0.5, debounce_s=60.0, max_staleness_s=900.0
        )
        loop.on_tick(_lam(0, 0.0, 100.0))
        assert loop.on_tick(_lam(1, 400.0, 101.0)) == ()
        assert loop.on_tick(_lam(2, 899.0, 101.0)) == ()
        events = loop.on_tick(_lam(3, 900.0, 101.0))
        assert [e.reason for e in events] == ["staleness"]

    def test_price_tick_can_trigger_redispatch(self, world, engine):
        site = engine.sites[0].name
        loop = _loop(world, engine, price_delta=0.10, debounce_s=60.0)
        loop.on_tick(_lam(0, 0.0, 100.0))
        events = loop.on_tick(
            Tick(seq=1, time_s=100.0, kind="price", value=1.5, site=site)
        )
        assert [e.reason for e in events] == ["price-delta"]

    def test_time_going_backwards_rejected(self, world, engine):
        loop = _loop(world, engine)
        loop.on_tick(_lam(0, 100.0, 100.0))
        with pytest.raises(ValueError):
            loop.on_tick(_lam(1, 99.0, 100.0))


class TestSettlement:
    def test_hours_settle_and_costs_accrue(self, world, engine):
        loop = _loop(world, engine, hours=2)
        ticks = replay_ticks(world.workload, ticks_per_hour=4, hours=2, seed=0)
        events = run_serial(loop, ticks)
        assert loop.finished or loop.hour == 1
        loop.finish()
        assert len(loop.hour_summaries) == 2
        assert all(s["realized_cost"] > 0 for s in loop.hour_summaries)
        assert events[0].reason == "hour-start"

    def test_summary_totals_match_settled_hours(self, world, engine):
        loop = _loop(world, engine, hours=2)
        run_serial(loop, replay_ticks(world.workload, ticks_per_hour=4, hours=2))
        loop.finish()
        s = loop.summary()
        total = sum(h["realized_cost"] for h in loop.hour_summaries)
        assert s["total_cost"] == pytest.approx(total)
        assert s["hours"] == 2

    def test_sparse_stream_settles_skipped_hours(self, world, engine):
        # One tick in hour 0 and one in hour 3: the catch-up loop must
        # settle hours 1 and 2 with the in-force decision.
        loop = _loop(world, engine, hours=4)
        loop.on_tick(_lam(0, 0.0, 100.0))
        loop.on_tick(_lam(1, 3 * HOUR, 100.0))
        loop.finish()
        assert len(loop.hour_summaries) == 4


class TestStateRoundTrip:
    def test_state_dict_resumes_identically(self, world, engine):
        ticks = replay_ticks(
            world.workload, ticks_per_hour=6, hours=3, jitter=0.1, seed=4
        )
        full = _loop(world, engine, hours=3)
        reference = [e.to_json() for e in run_serial(full, ticks)]
        full.finish()

        # Drive up to (but not through) the first tick of hour 1, then
        # settle hour 0 explicitly and snapshot there, as the serve
        # runtime's hour barrier does: the state predates the boundary
        # tick's own dispatch.
        first = _loop(world, engine, hours=3)
        boundary = next(i for i, t in enumerate(ticks) if t.time_s >= HOUR)
        head = [e.to_json() for t in ticks[:boundary] for e in first.on_tick(t)]
        first.settle_open_hour()
        state = first.state_dict()
        assert state["settled_hours"] == 1

        resumed = ControlLoop(
            engine,
            "capping",
            trigger=TriggerPolicy(),
            budgeter=first.state.budgeter,
            hours=3,
        )
        resumed.load_state(state)
        # The boundary tick replays on resume and re-emits its events,
        # so head (pre-boundary) + replayed (boundary onward) is the
        # exact uninterrupted stream.
        replayed = [
            e.to_json() for t in ticks[boundary:] for e in resumed.on_tick(t)
        ]
        resumed.finish()
        assert head + replayed == reference

    def test_load_state_rejects_finished_run(self, world, engine):
        loop = _loop(world, engine, hours=1)
        run_serial(loop, replay_ticks(world.workload, ticks_per_hour=4, hours=1))
        loop.finish()
        state = loop.state_dict()
        fresh = _loop(world, engine, hours=1)
        with pytest.raises(ValueError):
            fresh.load_state(state)
