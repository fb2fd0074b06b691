"""Sharded control plane: plan, determinism, budget ledger, resume.

The expensive multi-process checks share one quick spec (3 h, 6
ticks/h) so the whole module stays in tier-1 time. The determinism
contract under test: the in-process serial reference, and every
``workers=N`` multi-process run, produce byte-identical merged decision
logs — including after a mid-run stop plus resume with a *different*
worker count.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.experiments import paper_world, scaled_paper_world
from repro.service import (
    ControlLoop,
    ShardedControlPlane,
    TriggerPolicy,
    load_shard_checkpoint,
    merge_region_logs,
    plan_regions,
    run_sharded_serial,
)
from repro.sim.engine import Engine


def _spec(hours=3):
    return {
        "world": {"kind": "paper", "policy": 1, "seed": 7},
        "source": {
            "kind": "bursty", "ticks_per_hour": 6, "hours": hours,
            "seed": 1, "ca2": 4.0, "price_jitter": 0.03,
            "sites": ["DC1", "DC2", "DC3"],
        },
        "strategy": "capping",
        "trigger": {
            "lambda_delta": 0.05, "price_delta": 0.05,
            "debounce_s": 300.0, "max_staleness_s": 1500.0,
        },
        "degradation": None,
        "horizon": hours,
        "monthly_budget": 2_000_000.0,
    }


@pytest.fixture(scope="module")
def world():
    return paper_world(policy_id=1, seed=7)


@pytest.fixture(scope="module")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


@pytest.fixture(scope="module")
def reference():
    """Serial-reference merged log lines for the quick spec."""
    lines, coordinator = run_sharded_serial(_spec())
    return lines, coordinator


class TestRegionPlan:
    def test_paper_world_plans_one_region_per_market(self, engine):
        regions = plan_regions(engine)
        assert [r.sites for r in regions] == [("DC1",), ("DC2",), ("DC3",)]
        assert sum(r.share for r in regions) == pytest.approx(1.0)
        assert all(r.share > 0 for r in regions)

    def test_plan_is_deterministic(self, world):
        a = plan_regions(Engine(world.sites, world.workload, world.mix))
        b = plan_regions(Engine(world.sites, world.workload, world.mix))
        assert a == b

    def test_regions_never_span_pricing_policies(self):
        w = scaled_paper_world(6, seed=7)
        regions = plan_regions(Engine(w.sites, w.workload, w.mix))
        assert len(regions) == 6  # every site has its own policy object
        policy_of = {s.name: id(s.policy) for s in w.sites}
        for r in regions:
            assert len({policy_of[name] for name in r.sites}) == 1


class TestExplicitHourControl:
    """The ControlLoop half of the two-phase barrier protocol."""

    def test_open_settle_cycle(self, world, engine):
        loop = ControlLoop(
            engine, "capping",
            budget_source=lambda hour: 1e6,
            hours=2,
        )
        assert loop.settle_open_hour() is None  # idempotent when closed
        loop.open_hour(0)
        assert loop.hour_budget == 1e6
        summary = loop.settle_open_hour()
        assert summary["hour"] == 0
        loop.open_hour(1)
        with pytest.raises(ValueError, match="still open"):
            loop.open_hour(1)

    def test_open_hour_rejects_gaps_and_horizon(self, world, engine):
        loop = ControlLoop(
            engine, "capping", budget_source=lambda hour: 1e6, hours=2,
        )
        with pytest.raises(ValueError, match="expected hour 0"):
            loop.open_hour(1)
        loop.open_hour(0)
        loop.settle_open_hour()
        loop.open_hour(1)
        loop.settle_open_hour()
        with pytest.raises(ValueError, match="past the"):
            loop.open_hour(2)

    def test_budgeter_and_budget_source_are_exclusive(self, world, engine):
        with pytest.raises(ValueError, match="not both"):
            ControlLoop(
                engine, "capping",
                budgeter=world.budgeter(2e6),
                budget_source=lambda hour: 1.0,
                hours=2,
            )


class TestSerialReference:
    def test_reference_is_repeatable(self, reference):
        lines, _ = reference
        again, _ = run_sharded_serial(_spec())
        assert again == lines

    def test_ledger_settles_all_hours_and_conserves_budget(self, reference):
        lines, coordinator = reference
        assert coordinator.settled_hours == 3
        budgeter = coordinator.budgeter
        spends = sum(
            s["realized_cost"] for s in coordinator.hour_summaries
        )
        assert budgeter.total_spent == pytest.approx(spends)

    def test_allotments_split_by_share(self, engine):
        regions = plan_regions(engine)
        spec = _spec()
        lines, _ = run_sharded_serial(spec)
        by_hour_region = {}
        for line in lines:
            e = json.loads(line)
            site = e["allocations"][0][0]
            r = next(x.index for x in regions if site in x.sites)
            by_hour_region[(e["hour"], r)] = e["budget"]
        for hour in range(spec["horizon"]):
            budgets = [by_hour_region[(hour, r.index)] for r in regions]
            total = sum(budgets)
            for b, r in zip(budgets, regions):
                assert b == pytest.approx(total * r.share)


class TestMultiprocessDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_merged_log_matches_serial_reference(
        self, workers, reference, tmp_path
    ):
        ref, _ = reference
        log = tmp_path / "dec.jsonl"
        svc = ShardedControlPlane(
            _spec(), workers=workers, decision_log=log,
            checkpoint_path=tmp_path / "ck.json",
            http=False, handle_signals=False,
        )
        summary = svc.run()
        assert summary["worker_errors"] == {}
        assert log.read_text().splitlines() == ref
        assert summary["hours"] == 3
        assert summary["decisions"] == len(ref)

    def test_worker_counters_are_merged(self, reference, tmp_path):
        svc = ShardedControlPlane(
            _spec(), workers=2, decision_log=tmp_path / "dec.jsonl",
            http=False, handle_signals=False,
        )
        summary = svc.run()
        merged = svc.worker_counters
        assert merged["service.dispatches"] == summary["decisions"]
        assert merged["service.hours_settled"] == 3 * len(svc.regions)


class TestStopResume:
    def test_stop_then_resume_with_different_workers(
        self, reference, tmp_path
    ):
        ref, _ = reference
        log = tmp_path / "dec.jsonl"
        ckpt = tmp_path / "ck.json"
        svc = ShardedControlPlane(
            _spec(), workers=2, decision_log=log, checkpoint_path=ckpt,
            http=False, handle_signals=False, pace_s_per_hour=1.5,
        )
        # Stop mid-run: late enough for at least one settled hour,
        # early enough to leave work for the resumed service.
        threading.Timer(2.0, svc.request_stop).start()
        first = svc.run()
        assert first["stopped"]
        payload = load_shard_checkpoint(ckpt)
        assert 0 < payload["settled_hours"] < 3

        resumed = ShardedControlPlane.resume(
            ckpt, workers=3, http=False, handle_signals=False,
        )
        summary = resumed.run()
        assert summary["worker_errors"] == {}
        assert summary["hours"] == 3
        assert log.read_text().splitlines() == ref

    def test_paced_worker_stops_within_the_pause(self, tmp_path):
        # 600 simulated seconds between ticks at one wall second each:
        # after the first tick the worker sits in a 600 s pause, which
        # a stop must end at once, without routing the next tick.
        svc = ShardedControlPlane(
            _spec(), workers=1, decision_log=tmp_path / "dec.jsonl",
            http=False, handle_signals=False, pace_s_per_hour=3600.0,
        )
        stopped_at = []

        async def drive():
            run = asyncio.ensure_future(svc.run_async())
            await asyncio.sleep(0)
            assert await svc.readmodel.wait_newer(0, 60.0) is not None
            stopped_at.append(time.monotonic())
            svc.request_stop()
            return await asyncio.wait_for(run, 60.0)

        summary = asyncio.run(drive())
        assert time.monotonic() - stopped_at[0] < 5.0
        assert summary["stopped"] and summary["worker_errors"] == {}
        # One hour-start decision per region from the first tick only.
        assert summary["decisions"] == len(svc.regions)

    def test_finished_checkpoint_refuses_resume(self, tmp_path):
        svc = ShardedControlPlane(
            _spec(), workers=2, decision_log=tmp_path / "dec.jsonl",
            checkpoint_path=tmp_path / "ck.json",
            http=False, handle_signals=False,
        )
        svc.run()
        with pytest.raises(ValueError, match="nothing left"):
            ShardedControlPlane.resume(tmp_path / "ck.json")


class TestMergeRegionLogs:
    def test_merge_orders_by_tick_then_region(self, tmp_path):
        a = tmp_path / "r0.jsonl"
        b = tmp_path / "r1.jsonl"
        a.write_text(
            '{"tick_seq": 1, "who": "a1"}\n{"tick_seq": 5, "who": "a5"}\n'
        )
        b.write_text(
            '{"tick_seq": 1, "who": "b1"}\n{"tick_seq": 3, "who": "b3"}\n'
        )
        out = tmp_path / "merged.jsonl"
        n = merge_region_logs({0: a, 1: b}, out)
        assert n == 4
        order = [json.loads(l)["who"] for l in out.read_text().splitlines()]
        assert order == ["a1", "b1", "b3", "a5"]
