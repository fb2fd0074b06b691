"""Tests for the pure synchronous control loop and its trigger policy."""

import json

import pytest

from repro.experiments import paper_world
from repro.service import (
    ControlLoop,
    ShardedControlPlane,
    Tick,
    TriggerPolicy,
    replay_ticks,
    run_serial,
    run_sharded_serial,
)
from repro.sim import resolve_monthly_budget
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

    def test_summary_totals_match_settled_hours(self, tmp_path):
        # The run report is the control plane's; in-process it drives
        # one ControlLoop over every site.
        plane = ShardedControlPlane(
            {
                "world": {"kind": "paper", "policy": 1, "seed": 7},
                "source": {"kind": "replay", "ticks_per_hour": 4,
                           "hours": 2, "seed": 0, "jitter": 0.02},
                "strategy": "capping",
                "trigger": {},
                "degradation": None,
                "horizon": 2,
                "monthly_budget": 2_000_000.0,
            },
            decision_log=tmp_path / "decisions.jsonl",
            http=False,
            handle_signals=False,
        )
        s = plane.run()
        hours = plane.coordinator.hour_summaries
        total = sum(h["realized_cost"] for h in hours)
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


class TestBilledAtTheDispatchView:
    """Each decision is billed at the price-feed view it dispatched on."""

    def test_price_tick_across_a_step_bills_the_observed_view(
        self, world, engine
    ):
        site = engine.sites[2]
        true_bg = engine._site_hours(0)[2].background_mw
        loop = _loop(world, engine, price_delta=0.10, debounce_s=60.0)
        loop.on_tick(_lam(0, 0.0, float(world.workload.rates_rps[0])))
        (event,) = loop.on_tick(
            Tick(seq=1, time_s=100.0, kind="price", value=0.1, site=site.name)
        )
        record = loop.current_record
        observed = {sh.name: sh.background_mw for sh in engine._site_hours(0)}
        observed[site.name] = true_bg * 0.1
        expected = 0.0
        for rec, s in zip(record.sites, engine.sites):
            price = s.policy.price(observed[s.name] + rec.power_mw)
            assert rec.price == price
            expected += price * rec.power_mw
        assert event.realized_cost_rate == pytest.approx(expected, rel=1e-12)
        # The tick moved the site's observed load below the first step
        # while its true load sits above it.
        draw = record.sites[2].power_mw
        first_step = site.policy.breakpoints[0]
        assert observed[site.name] + draw < first_step < true_bg + draw
        assert record.sites[2].price != site.policy.price(true_bg + draw)

    def test_tick_below_the_threshold_leaves_the_bill_at_dispatch(
        self, world, engine
    ):
        # The feed drops the site's load below a price step, but by less
        # than price_delta, so nothing re-dispatches: the decision in
        # force is billed at its dispatch view for the rest of the hour.
        site = engine.sites[2]
        true_bg = engine._site_hours(0)[2].background_mw
        loop = _loop(world, engine, price_delta=0.95, debounce_s=60.0)
        (event,) = loop.on_tick(_lam(0, 0.0, float(world.workload.rates_rps[0])))
        assert loop.on_tick(
            Tick(seq=1, time_s=100.0, kind="price", value=0.1, site=site.name)
        ) == ()
        draw = loop.current_record.sites[2].power_mw
        first_step = site.policy.breakpoints[0]
        assert true_bg * 0.1 + draw < first_step < true_bg + draw
        summary = loop.settle_open_hour()
        assert summary["decisions"] == 1
        assert summary["spend"] == event.realized_cost_rate

    def test_storm_day_keeps_unflagged_decisions_within_budget(self):
        # serve-storm's settings: bursty 60 ticks/h with price jitter,
        # sharp triggers, a 0.85 budget, the energy tariff.
        world = paper_world(1, seed=7)
        hours = 24
        spec = {
            "world": {"kind": "paper", "policy": 1, "seed": 7},
            "source": {
                "kind": "bursty", "ticks_per_hour": 60, "hours": hours,
                "seed": 3, "ca2": 6.0, "price_jitter": 0.04,
                "sites": [s.name for s in world.sites],
            },
            "strategy": "capping",
            "trigger": {
                "lambda_delta": 0.02, "price_delta": 0.02,
                "debounce_s": 60.0, "max_staleness_s": 900.0,
            },
            "degradation": None,
            "horizon": hours,
            "monthly_budget": resolve_monthly_budget(world, 0.85, hours=hours),
        }
        lines, _ = run_sharded_serial(spec)
        events = [json.loads(line) for line in lines]
        assert len(events) > 1000
        over = [
            e["seq"] for e in events
            if e["step"] not in ("premium-only", "degraded")
            and e["realized_cost_rate"] > e["budget"] * (1 + 1e-9) + 1e-12
        ]
        assert over == []


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
