"""The serve runtime without workers: one region, driven in-process.

``ShardedControlPlane(spec)`` with no ``workers`` plans one region
holding every site (share exactly 1.0) and drives it on a thread while
asyncio serves HTTP. Its decision log, hour summaries and budgeter must
equal a lone :class:`ControlLoop` run by :func:`run_serial` over the
same ticks, fresh and across a stop plus resume at any settled hour.

HTTP checks use raw ``asyncio.open_connection`` GETs from inside the
event loop the plane serves on, and wait on published decisions rather
than on wall-clock pacing.
"""

import asyncio
import json
import sys
import time

import pytest

from repro.powermarket import ClosedLoopConfig
from repro.service import (
    ControlLoop,
    ShardedControlPlane,
    TriggerPolicy,
    build_ticks,
    load_shard_checkpoint,
    run_serial,
    truncate_jsonl,
)
from repro.service.shard import build_world
from repro.sim.endogenous import EndogenousPrices
from repro.sim.engine import Engine

SOURCE = {
    "kind": "bursty", "ticks_per_hour": 6, "seed": 2, "ca2": 4.0,
    "price_jitter": 0.05, "sites": ["DC1", "DC2", "DC3"],
}
REPLAY = {"kind": "replay", "ticks_per_hour": 4, "seed": 0, "jitter": 0.02}
STORM = {
    "kind": "bursty", "ticks_per_hour": 30, "seed": 3, "ca2": 6.0,
    "price_jitter": 0.04, "sites": ["DC1", "DC2", "DC3"],
}
DEMAND = "energy+demand:rate=2,cycle=6"


def _spec(hours=3, *, source=SOURCE, tariff=None,
          monthly_budget=2_000_000.0, endogenous=None):
    return {
        "world": {"kind": "paper", "policy": 1, "seed": 7},
        "source": dict(source, hours=hours),
        "strategy": "capping",
        "trigger": {
            "lambda_delta": 0.05, "price_delta": 0.05,
            "debounce_s": 120.0, "max_staleness_s": 900.0,
        },
        "degradation": "proportional",
        "horizon": hours,
        "monthly_budget": monthly_budget,
        "tariff": tariff,
        "endogenous": endogenous,
    }


def _reference(spec):
    """One ControlLoop over every site, driven by run_serial."""
    world = build_world(spec["world"])
    engine = Engine(world.sites, world.workload, world.mix)
    endo = spec["endogenous"]
    loop = ControlLoop(
        engine,
        "capping",
        trigger=TriggerPolicy(**spec["trigger"]),
        budgeter=(
            world.budgeter(spec["monthly_budget"])
            if spec["monthly_budget"] is not None else None
        ),
        tariff=spec["tariff"],
        hours=spec["horizon"],
        endogenous=(
            EndogenousPrices(
                engine, grid=endo["grid"],
                config=ClosedLoopConfig(damping=endo["damping"]),
            )
            if endo else None
        ),
    )
    events = run_serial(loop, build_ticks(world.workload, spec["source"]))
    return [e.to_json() for e in events], loop


def _plane(spec, tmp_path, **kwargs):
    kwargs.setdefault("http", False)
    return ShardedControlPlane(
        spec,
        decision_log=tmp_path / "decisions.jsonl",
        handle_signals=False,
        **kwargs,
    )


def _stop_after(plane, hours: int) -> None:
    """Request a stop right after ``hours`` hours settle (a SIGTERM
    landing on that barrier, made deterministic)."""
    coordinator = plane.coordinator

    def settled():
        if coordinator.settled_hours == hours:
            plane.request_stop()

    coordinator.on_settled = settled


@pytest.fixture(scope="module")
def reference():
    return _reference(_spec())


async def _get(port: int, path: str) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    # Connection: close — the server defaults to keep-alive for
    # HTTP/1.1, and this helper reads to EOF.
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: x\r\n"
        "Connection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def _serve(plane, check) -> dict:
    """Run ``plane`` with HTTP, await ``check(plane)`` once the first
    decision is published, then stop the plane; returns its summary."""

    async def drive():
        run = asyncio.ensure_future(plane.run_async())
        try:
            await asyncio.sleep(0)  # let run_async bind the read model
            first = await plane.readmodel.wait_newer(0, 30.0)
            assert first is not None, "no decision within 30 s"
            await check(plane)
        finally:
            plane.request_stop()
        return await asyncio.wait_for(run, 30.0)

    return asyncio.run(drive())


class TestDeterminism:
    def test_async_log_matches_serial_reference(self, reference, tmp_path):
        lines, loop = reference
        plane = _plane(_spec(), tmp_path)
        summary = plane.run()
        log = tmp_path / "decisions.jsonl"
        assert log.read_text().splitlines() == lines
        assert summary["decisions"] == len(lines)
        assert summary["workers"] is None and summary["regions"] == 1
        # The one region's log is merged into the decision log: a copy.
        assert plane.log_paths[0].read_bytes() == log.read_bytes()

    def test_decision_log_lines_are_json(self, tmp_path):
        _plane(_spec(), tmp_path).run()
        for line in (tmp_path / "decisions.jsonl").read_text().splitlines():
            event = json.loads(line)
            assert {"seq", "hour", "reason", "allocations"} <= event.keys()


class TestSinglePlaneEquivalence:
    """The one-region plane against a lone loop: log, hours, budgeter."""

    @pytest.mark.parametrize("monthly_budget", [800_000.0, 300_000.0, None])
    @pytest.mark.parametrize("tariff", [None, DEMAND])
    @pytest.mark.parametrize(
        "source", [REPLAY, STORM], ids=["replay", "storm"]
    )
    def test_matches_serial_loop(
        self, source, tariff, monthly_budget, tmp_path
    ):
        self._check(
            _spec(source=source, tariff=tariff, monthly_budget=monthly_budget),
            tmp_path,
        )

    @pytest.mark.parametrize("monthly_budget", [800_000.0, 300_000.0])
    def test_matches_serial_loop_with_endogenous_prices(
        self, monthly_budget, tmp_path
    ):
        source = dict(SOURCE, ticks_per_hour=12, price_jitter=0.04)
        self._check(
            _spec(
                source=source, monthly_budget=monthly_budget,
                endogenous={"grid": "pjm5bus", "damping": 0.5},
            ),
            tmp_path,
        )

    @staticmethod
    def _check(spec, tmp_path):
        lines, loop = _reference(spec)
        plane = _plane(spec, tmp_path)
        summary = plane.run()
        assert summary["worker_errors"] == {}
        assert (tmp_path / "decisions.jsonl").read_text().splitlines() == lines
        hours = [
            {k: v for k, v in s.items() if k != "region"}
            for s in plane.coordinator.hour_summaries
        ]
        assert hours == loop.hour_summaries
        if loop.state.budgeter is None:
            assert plane.coordinator.budgeter is None
        else:
            assert (
                plane.coordinator.budgeter.checkpoint()
                == loop.state.budgeter.checkpoint()
            )


class TestKillResume:
    def test_merged_log_matches_uninterrupted(self, reference, tmp_path):
        lines, _ = reference
        for cut in (1, 2):  # every settled hour short of the horizon
            run_dir = tmp_path / f"cut{cut}"
            run_dir.mkdir()
            ckpt = run_dir / "ckpt.json"
            plane = _plane(_spec(), run_dir, checkpoint_path=ckpt)
            _stop_after(plane, cut)
            first = plane.run()
            assert first["stopped"] and first["merged_log_lines"] is None
            payload = load_shard_checkpoint(ckpt)
            assert payload["settled_hours"] == cut

            resumed = ShardedControlPlane.resume(
                ckpt, http=False, handle_signals=False
            )
            assert resumed.n_workers is None
            summary = resumed.run()
            assert summary["hours"] == 3
            log = run_dir / "decisions.jsonl"
            assert log.read_text().splitlines() == lines, f"cut {cut}"

    def test_checkpoint_payload_shape(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        _plane(_spec(), tmp_path, checkpoint_path=ckpt).run()
        payload = load_shard_checkpoint(ckpt)
        assert payload["kind"] == "shard-run"
        assert payload["regions_planned"] == 1
        assert payload["tariff"] == "energy"
        assert {"next_tick", "settled_hours", "budgeter", "regions",
                "meta"} <= payload.keys()
        assert payload["regions"]["0"].keys() == {
            "loop", "strategy_state", "decisions_logged",
        }
        assert payload["meta"]["workers"] is None
        assert payload["meta"]["spec"]["endogenous"] is None

    def test_load_rejects_wrong_kind(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "engine-run", "version": 1}))
        with pytest.raises(ValueError):
            load_shard_checkpoint(bad)
        bad.write_text(json.dumps({"kind": "service-run", "version": 3}))
        with pytest.raises(ValueError, match="version"):
            load_shard_checkpoint(bad)

    def test_paced_run_stops_within_the_pause(self, tmp_path):
        # 600 simulated seconds between ticks at one wall second per
        # simulated second: the driver sits in a 600 s pause after the
        # first decision, which a stop must cut short.
        plane = _plane(_spec(), tmp_path, pace_s_per_hour=3600.0)
        stopped_at = []

        async def drive():
            run = asyncio.ensure_future(plane.run_async())
            await asyncio.sleep(0)
            assert await plane.readmodel.wait_newer(0, 30.0) is not None
            stopped_at.append(time.monotonic())
            plane.request_stop()
            return await asyncio.wait_for(run, 30.0)

        summary = asyncio.run(drive())
        assert time.monotonic() - stopped_at[0] < 2.0
        assert summary["stopped"]
        # The tick after the pause was not routed.
        assert summary["decisions"] == 1


class TestTruncateJsonl:
    def test_truncates_to_exact_line_count(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text("a\nb\nc\n")
        assert truncate_jsonl(p, 2) == 2
        assert p.read_text() == "a\nb\n"

    def test_missing_log_with_lines_expected_errors(self, tmp_path):
        with pytest.raises((OSError, ValueError)):
            truncate_jsonl(tmp_path / "absent.jsonl", 3)

    def test_shorter_than_expected_errors(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text("a\n")
        with pytest.raises(ValueError):
            truncate_jsonl(p, 5)

    def test_zero_keep_creates_empty_log(self, tmp_path):
        p = tmp_path / "absent.jsonl"
        assert truncate_jsonl(p, 0) == 0
        assert p.exists() and p.read_text() == ""


class TestHttpApi:
    def test_endpoints_respond_during_run(self, tmp_path):
        # A long pace parks the driver after its first decision, so the
        # state read below cannot move under the checks.
        plane = _plane(
            _spec(), tmp_path, http=True, pace_s_per_hour=3600.0,
            dns_ttl=300.0,
        )

        async def check(plane):
            status, health = await _get(plane.port, "/healthz")
            assert status == 200
            status, state = await _get(plane.port, "/status")
            assert status == 200
            assert state["strategy"] == "capping"
            assert state["ticks_processed"] >= 1
            assert state["hour"] == 0
            assert state["lambda_rps"] > 0
            assert state["hour_budget"] > 0
            assert state["finished"] is False
            assert state["workers"] is None and state["regions"] == 1
            status, decision = await _get(plane.port, "/decision")
            assert status == 200
            assert decision["allocations"] and decision["pub_seq"] == 1
            status, routing = await _get(plane.port, "/routing")
            assert status == 200
            assert set(routing["target"]) == {"DC1", "DC2", "DC3"}
            assert routing["ttl_s"] == 300.0
            status, hours = await _get(plane.port, "/hours")
            assert status == 200 and hours["hours"] == []
            status, missing = await _get(plane.port, "/nope")
            assert status == 404
            assert "/status" in missing["routes"]

        _serve(plane, check)

    def test_malformed_queries_get_400(self, tmp_path):
        plane = _plane(_spec(), tmp_path, http=True, pace_s_per_hour=3600.0)
        bad = [
            "/decision?since=abc",
            "/decision?since=-1",
            "/decision?since=0&wait_s=abc",
            "/decision?since=0&wait_s=nan",
            "/decision?since=0&wait_s=inf",
            "/decisions/stream?since=abc",
        ]

        async def check(plane):
            for path in bad:
                status, body = await _get(plane.port, path)
                assert status == 400, path
                name = "wait_s" if "wait_s" in path else "since"
                assert name in body["error"], path
                # The server keeps serving after each bad request.
                status, _ = await _get(plane.port, "/healthz")
                assert status == 200
            status, record = await _get(plane.port, "/decision?since=0")
            assert status == 200 and record["pub_seq"] == 1
            # The parked driver publishes nothing more: the long-poll
            # times out and says so.
            status, quiet = await _get(
                plane.port, "/decision?since=1&wait_s=0.01"
            )
            assert status == 200 and quiet["timeout"] is True

        _serve(plane, check)


    def test_polls_racing_the_driver_lose_no_updates(self, tmp_path):
        # The driver thread publishes while the event loop answers
        # polls; a short switch interval forces interleavings. Every
        # decision must reach the log, the counter and the read model.
        plane = _plane(_spec(source=STORM), tmp_path, http=True)
        polls = []

        async def drive():
            run = asyncio.ensure_future(plane.run_async())
            await asyncio.sleep(0)
            assert await plane.readmodel.wait_newer(0, 30.0) is not None
            while not run.done():
                try:
                    status, state = await asyncio.wait_for(
                        _get(plane.port, "/status"), 1.0
                    )
                except (OSError, ValueError, IndexError,
                        asyncio.TimeoutError):
                    break  # this poll raced the server's shutdown
                polls.append(state["decisions"])
            return await asyncio.wait_for(run, 60.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            summary = asyncio.run(drive())
        finally:
            sys.setswitchinterval(interval)
        lines = (tmp_path / "decisions.jsonl").read_text().splitlines()
        assert summary["decisions"] == len(lines) == plane.readmodel.pub_seq
        assert len(polls) > 10 and polls == sorted(polls)


class TestSseMode:
    def test_long_poll_and_stream_serve_published_decisions(self, tmp_path):
        # A tenth of a second between ticks: the long-poll below waits
        # on the next published decision, which arrives within a few
        # ticks; the run is stopped as soon as the checks pass.
        plane = _plane(
            _spec(hours=12), tmp_path, http=True, pace_s_per_hour=0.6
        )

        async def check(plane):
            # Bare /decision: the newest decision, plus its pub_seq.
            status, latest = await _get(plane.port, "/decision")
            assert status == 200
            assert latest["pub_seq"] >= 1
            # Long-poll: the next decision past the current cursor.
            status, nxt = await _get(
                plane.port, f"/decision?since={latest['pub_seq']}&wait_s=30"
            )
            assert status == 200
            assert not nxt.get("timeout")
            assert nxt["pub_seq"] > latest["pub_seq"]
            # SSE: subscribe and read at least one frame.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", plane.port
            )
            writer.write(
                b"GET /decisions/stream HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"text/event-stream" in head
            frame = await asyncio.wait_for(
                reader.readuntil(b"\n\n"), timeout=30.0
            )
            assert frame.startswith(b"id: ")
            assert b'"pub_seq"' in frame
            writer.close()
            await writer.wait_closed()

        summary = _serve(plane, check)
        assert summary["stopped"]
