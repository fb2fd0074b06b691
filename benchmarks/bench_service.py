"""Load harness for the streaming control plane (``repro serve``).

Replays deterministic seeded tick storms through the service stack and
writes ``BENCH_service.json`` at the repo root (companion of
``BENCH_solver.json``). Tracked numbers:

* **decisions per second** — sustained dispatch throughput of the
  in-process control plane (``repro serve`` without ``--workers``)
  free-running a bursty storm (every tick crosses the λ-delta
  threshold, so this measures the full observe → dispatch → realize
  path, not tick parsing);
* **decision latency** — p50/p99 wall time of one ``on_tick`` call
  that produced a decision (solver + ground-truth realization);
* **push latency** — p50/p99 wall time from the control loop producing
  a decision to the read model publishing it to subscribers (the
  push-based delivery path behind ``/decisions/stream``);
* **tick-to-decision staleness** — in *simulated* seconds, how far the
  λ feed can drift from the decision in force: p50/p99/max over each
  tick's distance to the most recent dispatch. Bounded by the trigger
  policy's ``max_staleness_s`` by construction; the bench asserts it.
* **shard scaling** — aggregate decisions/s of the multi-process
  sharded plane (``repro serve --workers N``) at 1 vs 4 workers over
  an 8-region scaled fleet. The ≥2× speedup floor only applies on
  machines with ≥4 cores; below that the case still runs (the merged
  logs must stay byte-identical) but the speedup check records a skip
  reason instead of failing.
* **slow-subscriber decoupling** — a stalled ``/decisions/stream``
  subscriber must not inflate the control loop's p99 decision latency:
  the read model drops oldest records per subscriber rather than
  back-pressuring the loop.

The harness also replays the identical storm through the synchronous
:func:`~repro.service.run_serial` reference (one
:class:`~repro.service.ControlLoop` over every site) and asserts the
two decision logs are byte-identical — the determinism contract that
makes the plane's numbers trustworthy (``serial_async_identical``).

Run as a script: ``PYTHONPATH=src python benchmarks/bench_service.py
[--quick]``. CI runs quick mode and validates the JSON shape.
"""

import asyncio
import json
import os
import pathlib
import time

#: Where the machine-readable baseline lands (repo root).
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Worker counts the shard-scaling case compares.
SHARD_WORKERS = (1, 4)

#: Acceptance floors. Decisions/s is hardware-sensitive, so the floor
#: is deliberately conservative (a single enumeration-kernel dispatch
#: over 3 sites measures in the low milliseconds on any recent CPU).
#: The shard speedup floor is gated on ``shard_min_cores`` — on smaller
#: machines the case records a skip reason instead of a verdict. The
#: slow-subscriber check is a ratio with an absolute grace term so
#: timer noise on near-zero latencies cannot fail it spuriously.
CRITERIA = {
    "decisions_per_s_min": 5.0,
    "staleness_within_policy": True,
    "push_p99_ms_max": 10.0,
    "shard_speedup_min": 2.0,
    "shard_min_cores": 4,
    "slow_subscriber_p99_factor_max": 2.0,
    "slow_subscriber_p99_grace_ms": 1.0,
}


def _storm_spec(hours: int, ticks_per_hour: int, seed: int) -> dict:
    """The plane spec of a bursty tick storm over the paper world."""
    return {
        "world": {"kind": "paper", "policy": 1, "seed": 7},
        "source": {
            "kind": "bursty", "ticks_per_hour": ticks_per_hour,
            "hours": hours, "seed": seed, "ca2": 6.0, "price_jitter": 0.04,
            "sites": ["DC1", "DC2", "DC3"],
        },
        "strategy": "capping",
        "trigger": {
            "lambda_delta": 0.02, "price_delta": 0.02,
            "debounce_s": 60.0, "max_staleness_s": 900.0,
        },
        "degradation": "proportional",
        "horizon": hours,
        "monthly_budget": 2_000_000.0,
    }


def _storm_plane(spec: dict, log, **kwargs):
    """The in-process plane over ``spec``, logging to ``log``."""
    from repro.service import ShardedControlPlane

    return ShardedControlPlane(
        spec, decision_log=log, http=False, handle_signals=False, **kwargs
    )


def _serial_events(plane, spec: dict):
    """``run_serial`` over one loop on the plane's own engine.

    The plane's one region drives that same engine, so this reference
    run also warms its memos for a timed run that follows.
    """
    from repro.service import ControlLoop, TriggerPolicy, run_serial

    loop = ControlLoop(
        plane.engine,
        spec["strategy"],
        trigger=TriggerPolicy(**spec["trigger"]),
        budgeter=plane.world.budgeter(spec["monthly_budget"]),
        hours=spec["horizon"],
    )
    return run_serial(loop, plane.driver.ticks)


def _percentile(sorted_vals, q: float) -> float:
    if not sorted_vals:
        return 0.0
    rank = max(0, min(len(sorted_vals) - 1, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[rank]


def _staleness(ticks, events, max_staleness_s: float) -> dict:
    """Sim-time distance from each λ tick to the decision then in force."""
    dispatch_times = [e.time_s for e in events]
    samples = []
    j = -1
    for tick in ticks:
        while j + 1 < len(dispatch_times) and dispatch_times[j + 1] <= tick.time_s:
            j += 1
        if j >= 0:
            samples.append(tick.time_s - dispatch_times[j])
    samples.sort()
    return {
        "p50_s": _percentile(samples, 0.50),
        "p99_s": _percentile(samples, 0.99),
        "max_s": samples[-1] if samples else 0.0,
        "within_policy": (not samples) or samples[-1] <= max_staleness_s,
    }


def _tick_storm_case(quick: bool) -> dict:
    import tempfile

    hours = 6 if quick else 24
    ticks_per_hour = 30 if quick else 60
    spec = _storm_spec(hours, ticks_per_hour, seed=3)
    log = pathlib.Path(tempfile.mkdtemp(prefix="bench_service_")) / "log.jsonl"
    plane = _storm_plane(spec, log)

    # Reference: synchronous serial drive (also warms the engine memos
    # so the timing below measures dispatch, not memo building).
    serial_events = _serial_events(plane, spec)
    serial_log = [e.to_json() for e in serial_events]

    # Timed: the in-process plane free-running the same storm, writing
    # its real decision log so the identity check covers the wire
    # format, not just the in-memory events. Every decision is also
    # published to the read model, so the push path is part of the
    # measured loop and its latency is sampled.
    t0 = time.perf_counter()
    summary = plane.run()
    wall_s = time.perf_counter() - t0

    identical = log.read_text().splitlines() == serial_log

    lat = sorted(plane.decide_wall_s)
    push = sorted(plane.readmodel.push_latency_s)
    push_p99_ms = _percentile(push, 0.99) * 1e3
    staleness = _staleness(
        plane.driver.ticks, serial_events, spec["trigger"]["max_staleness_s"]
    )
    decisions = summary["decisions"]
    return {
        "hours": hours,
        "ticks": plane.driver.ticks_processed,
        "decisions": decisions,
        "wall_s": wall_s,
        "decisions_per_s": decisions / wall_s if wall_s > 0 else 0.0,
        "p50_decision_ms": _percentile(lat, 0.50) * 1e3,
        "p99_decision_ms": _percentile(lat, 0.99) * 1e3,
        "p50_push_ms": _percentile(push, 0.50) * 1e3,
        "p99_push_ms": push_p99_ms,
        "p50_staleness_s": staleness["p50_s"],
        "p99_staleness_s": staleness["p99_s"],
        "max_staleness_s": staleness["max_s"],
        "staleness_within_policy": staleness["within_policy"],
        "serial_async_identical": identical,
        "meets_criterion": (
            identical
            and staleness["within_policy"]
            and decisions / wall_s >= CRITERIA["decisions_per_s_min"]
            and push_p99_ms <= CRITERIA["push_p99_ms_max"]
        ),
    }


def _resume_case(quick: bool) -> dict:
    """Stop the plane mid-storm, resume, diff the merged log."""
    import tempfile

    from repro.service import ShardedControlPlane

    hours = 4 if quick else 8
    spec = _storm_spec(hours, 12, seed=5)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench_service_"))
    log, ckpt = tmp / "decisions.jsonl", tmp / "ckpt.json"
    plane = _storm_plane(spec, log, checkpoint_path=ckpt)
    reference = [e.to_json() for e in _serial_events(plane, spec)]
    cut = len(plane.driver.ticks) // 2

    async def _killed_run():
        run = asyncio.ensure_future(plane.run_async())
        while plane.driver.ticks_processed < cut and not run.done():
            await asyncio.sleep(0.001)
        plane.request_stop()
        await run

    asyncio.run(_killed_run())
    resumed = ShardedControlPlane.resume(
        ckpt, http=False, handle_signals=False
    )
    resumed.run()
    merged = log.read_text().splitlines()
    identical = merged == reference
    return {
        "hours": hours,
        "killed_at_tick": plane.driver.ticks_processed,
        "decisions": len(reference),
        "merged_log_identical": identical,
        "meets_criterion": identical,
    }


def _shard_spec(hours: int, ticks_per_hour: int) -> dict:
    sites = 8
    return {
        "world": {"kind": "scaled", "sites": sites, "policy": 1, "seed": 7},
        "source": {
            "kind": "bursty", "ticks_per_hour": ticks_per_hour,
            "hours": hours, "seed": 11, "ca2": 6.0, "price_jitter": 0.04,
            "sites": [f"DC{i + 1}" for i in range(sites)],
        },
        "strategy": "capping",
        "trigger": {
            "lambda_delta": 0.02, "price_delta": 0.02,
            "debounce_s": 60.0, "max_staleness_s": 900.0,
        },
        "degradation": None,
        "horizon": hours,
        "monthly_budget": 4_000_000.0,
    }


def _shard_scaling_case(quick: bool) -> dict:
    """1-worker vs 4-worker sharded plane over an 8-region fleet.

    Byte-identity of the merged decision logs is unconditional. The
    ≥2× aggregate-throughput floor only applies with ≥4 cores — a
    single-core runner cannot speed anything up by forking, so the
    check records ``speedup_skipped`` with the reason instead.
    """
    import tempfile

    from repro.service import ShardedControlPlane

    hours = 6 if quick else 12
    ticks_per_hour = 30 if quick else 60
    spec = _shard_spec(hours, ticks_per_hour)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench_shard_"))

    arms = {}
    logs = {}
    regions = None
    errors = False
    for workers in SHARD_WORKERS:
        log = tmp / f"w{workers}.jsonl"
        svc = ShardedControlPlane(
            spec, workers=workers, decision_log=log,
            http=False, handle_signals=False,
        )
        t0 = time.perf_counter()
        summary = svc.run()
        wall_s = time.perf_counter() - t0
        regions = len(svc.regions)
        errors = errors or bool(summary["worker_errors"])
        logs[workers] = log
        dps = summary["decisions"] / wall_s if wall_s > 0 else 0.0
        arms[str(workers)] = {
            "workers": workers,
            "decisions": summary["decisions"],
            "wall_s": wall_s,
            "decisions_per_s": dps,
            "decisions_per_s_per_worker": dps / workers,
        }

    base, wide = (arms[str(w)] for w in SHARD_WORKERS)
    speedup = (
        wide["decisions_per_s"] / base["decisions_per_s"]
        if base["decisions_per_s"] > 0 else 0.0
    )
    identical = (
        logs[SHARD_WORKERS[0]].read_text() == logs[SHARD_WORKERS[1]].read_text()
    )

    cores = os.cpu_count() or 1
    gate = cores >= CRITERIA["shard_min_cores"]
    return {
        "hours": hours,
        "regions": regions,
        "arms": arms,
        "speedup": speedup,
        "merged_logs_identical": identical,
        "speedup_skipped": (
            None if gate else
            f"cpu_count={cores} < {CRITERIA['shard_min_cores']}; "
            "speedup floor not applied"
        ),
        "meets_criterion": (
            identical
            and not errors
            and (not gate or speedup >= CRITERIA["shard_speedup_min"])
        ),
    }


def _slow_subscriber_case(quick: bool) -> dict:
    """A stalled stream subscriber must not slow the control loop.

    Two identical storms through the in-process plane: one with no
    subscribers (baseline), one with a bounded subscriber that never
    drains. The read model drops that subscriber's oldest records in
    O(1), so the loop's p99 decision latency must stay flat — the
    criterion allows a 2× ratio plus an absolute grace term because
    both numbers are single-digit milliseconds and jittery.
    """
    import tempfile

    hours = 4 if quick else 8
    spec = _storm_spec(hours, 30, seed=9)

    def _run(stall: bool):
        log = pathlib.Path(tempfile.mkdtemp(prefix="bench_sub_")) / "log.jsonl"
        plane = _storm_plane(spec, log)
        sub = plane.readmodel.subscribe(maxlen=4) if stall else None
        plane.run()
        p99_ms = _percentile(sorted(plane.decide_wall_s), 0.99) * 1e3
        dropped = sub.dropped if sub else 0
        return p99_ms, dropped

    baseline_p99_ms, _ = _run(stall=False)
    stalled_p99_ms, dropped = _run(stall=True)
    bound_ms = (
        baseline_p99_ms * CRITERIA["slow_subscriber_p99_factor_max"]
        + CRITERIA["slow_subscriber_p99_grace_ms"]
    )
    return {
        "hours": hours,
        "baseline_p99_decision_ms": baseline_p99_ms,
        "stalled_p99_decision_ms": stalled_p99_ms,
        "p99_bound_ms": bound_ms,
        "subscriber_dropped": dropped,
        # The stalled arm must actually have stalled (records dropped)
        # for the decoupling claim to mean anything.
        "meets_criterion": dropped > 0 and stalled_p99_ms <= bound_ms,
    }


def run_service_suite(quick: bool = False) -> dict:
    """Run all cases and return the BENCH_service.json payload."""
    import platform

    import numpy

    cases = {
        "tick_storm": _tick_storm_case(quick),
        "kill_resume": _resume_case(quick),
        "shard_scaling": _shard_scaling_case(quick),
        "slow_subscriber": _slow_subscriber_case(quick),
    }
    return {
        "benchmark": "service",
        "schema_version": 2,
        "quick": quick,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
            "shard_workers": list(SHARD_WORKERS),
        },
        "cases": cases,
        "criteria": {
            **CRITERIA,
            "met": all(c["meets_criterion"] for c in cases.values()),
        },
    }


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Streaming-control-plane load harness; writes "
        "BENCH_service.json at the repo root."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the storm for CI smoke runs (same JSON shape)",
    )
    parser.add_argument(
        "--out", default=str(BENCH_JSON), help="output path for the JSON"
    )
    args = parser.parse_args(argv)

    payload = run_service_suite(quick=args.quick)
    pathlib.Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out}")
    c = payload["cases"]["tick_storm"]
    print(
        f"  tick storm ({c['hours']}h, {c['ticks']} ticks): "
        f"{c['decisions']} decisions in {c['wall_s']:.2f}s "
        f"-> {c['decisions_per_s']:.1f}/s, "
        f"decide p50 {c['p50_decision_ms']:.1f}ms p99 "
        f"{c['p99_decision_ms']:.1f}ms, "
        f"push p50 {c['p50_push_ms']:.2f}ms p99 {c['p99_push_ms']:.2f}ms"
    )
    print(
        f"  staleness: p50 {c['p50_staleness_s']:.0f}s "
        f"p99 {c['p99_staleness_s']:.0f}s max {c['max_staleness_s']:.0f}s; "
        f"serial==async: {c['serial_async_identical']}"
    )
    c = payload["cases"]["kill_resume"]
    print(
        f"  kill/resume ({c['hours']}h): merged log identical: "
        f"{c['merged_log_identical']}"
    )
    c = payload["cases"]["shard_scaling"]
    per_arm = ", ".join(
        f"{a['workers']}w {a['decisions_per_s']:.0f}/s "
        f"({a['decisions_per_s_per_worker']:.0f}/s/worker)"
        for a in c["arms"].values()
    )
    note = f" [{c['speedup_skipped']}]" if c["speedup_skipped"] else ""
    print(
        f"  shard scaling ({c['regions']} regions): {per_arm}; "
        f"speedup {c['speedup']:.2f}x; logs identical: "
        f"{c['merged_logs_identical']}{note}"
    )
    c = payload["cases"]["slow_subscriber"]
    print(
        f"  slow subscriber: p99 {c['baseline_p99_decision_ms']:.1f}ms -> "
        f"{c['stalled_p99_decision_ms']:.1f}ms "
        f"(bound {c['p99_bound_ms']:.1f}ms, "
        f"{c['subscriber_dropped']} dropped)"
    )
    print(f"  criteria met: {payload['criteria']['met']}")
    return 0 if payload["criteria"]["met"] else 1


if __name__ == "__main__":
    raise SystemExit(_main())
