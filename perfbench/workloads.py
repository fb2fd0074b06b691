"""The benchmark's four workloads: inputs from a seed, timed passes, checks.

Every workload is built from the paper's Section VI world (3 sites,
Policy 1) with its monthly budget at 0.85 of the uncapped spend, sized
by the same uncapped anchor run ``repro simulate --budget-fraction``
and ``repro serve --budget-fraction`` use. ``--seed n`` selects world
seed ``7 + n`` (so ``--seed 0`` is the repo's default scenario); the
program receives only the generated world and tick stream. The storm's
tick seed stays 3: a new burst pattern moves the served fractions by up
to 12% (more than any bound a timing comparison can use), while a new
world over the same burst pattern keeps the work per pass steady.

Each workload imports what it runs inside its own methods, so
``setup_s`` counts only the modules that workload loads.

A *pass* replays the workload once: a fresh strategy, budgeter and
ledger over the horizon (batch), or a fresh ``ShardedControlPlane``
run (serve). Passes repeat until the run's time is used up; their
outputs must be identical, which is one of the consistency checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import shutil
import threading
import time
from dataclasses import dataclass, field

from .checks import (
    REL_TOL,
    Tally,
    check_decision,
    check_hour,
    check_region_hour,
)
from .layers import (
    HourClock,
    Samples,
    StageSpans,
    batch_layer_metrics,
    counter_timer,
    patched,
    span_timer,
    timed_capper,
)
from .speed import CoreProbes
from .stats import percentile

WORLD_SEED = 7
TICK_SEED = 3
BUDGET_FRACTION = 0.85

#: Reasons ``ControlLoop`` counts under ``service.trigger.*``.
SERVE_TRIGGERS = ("hour-start", "lambda-delta", "price-delta", "staleness")


@dataclass
class PassResult:
    """One pass's timings and checked outputs.

    Timings are in reference seconds (see :mod:`perfbench.speed`). Batch
    timings are per hour, in hour order. Serve timings are wall seconds
    scaled by the pass's mean probe reading over both cores.
    """

    wall_s: float
    hours: int
    decisions: int
    #: Seconds the decisions took: the plane's run (serve), or the sum
    #: of ``dispatch_s`` (batch).
    decide_s: float
    hour_s: list[float]
    publish_s: list[float]
    bill: float
    served_ordinary: float
    demand_ordinary: float
    within_budget: int
    budget_periods: int
    tally: Tally
    fingerprint: str
    #: The dispatcher's time in each hour (batch only).
    dispatch_s: list[float] = field(default_factory=list)


@dataclass
class Trace:
    """What a traced run collects across its traced passes."""

    tel: object
    passes: int = 0
    #: Wall seconds of each traced serve pass.
    wall_s: list[float] = field(default_factory=list)
    solve_log: list = field(default_factory=list)
    barrier: Samples = field(default_factory=Samples)
    publish: Samples = field(default_factory=Samples)
    owned: dict = field(default_factory=dict)


def _bill_fingerprint(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class BatchWorkload:
    """One capped month (or closed-loop day) through ``Engine.run``."""

    name = ""
    #: Every pass replays the same hours, so samples line up by hour.
    replay = True
    tariff: str | None = None
    closed_loop = False
    default_hours = 720

    def __init__(self, seed: int, hours: int | None = None):
        self.world_seed = WORLD_SEED + seed
        self.hours = hours or self.default_hours
        self._capacity: dict[int, float] = {}

    def setup(self) -> None:
        from repro.experiments import paper_world
        from repro.sim import Engine, resolve_monthly_budget

        self.world = paper_world(1, seed=self.world_seed)
        self.engine = Engine(
            self.world.sites, self.world.workload, self.world.mix
        )
        self.monthly_budget = resolve_monthly_budget(
            self.world, BUDGET_FRACTION, hours=self.hours, engine=self.engine
        )
        self._runtime = self._new_runtime()

    def _new_runtime(self):
        if not self.closed_loop:
            return None
        from repro.sim.endogenous import EndogenousPrices

        return EndogenousPrices(self.engine, grid="pjm5bus")

    def capacity(self, hour: int) -> float:
        cap = self._capacity.get(hour)
        if cap is None:
            cap = self._capacity[hour] = sum(
                s.hour(hour).max_rate_rps for s in self.world.sites
            )
        return cap

    def run_pass(self, trace: Trace | None = None) -> PassResult:
        from repro.core import BillCapper
        from repro.powermarket.dcopf import DcOpf
        from repro.sim.endogenous import (
            EndogenousPriceMiddleware,
            EndogenousPrices,
        )
        from repro.sim.strategies import CappingStrategy
        from repro.telemetry import use_telemetry

        runtime = self._runtime
        clock = HourClock(runtime)
        middleware = [clock]
        if trace is not None:
            middleware.append(StageSpans())
        if runtime is not None:
            middleware.append(EndogenousPriceMiddleware(runtime))
        middleware.append(clock.dispatcher)
        capper = timed_capper(trace.solve_log) if trace else BillCapper()
        strategy = CappingStrategy(capper=capper)
        budgeter = self.world.budgeter(self.monthly_budget)
        with contextlib.ExitStack() as stack:
            if trace is not None:
                stack.enter_context(use_telemetry(trace.tel))
                stack.enter_context(patched(
                    EndogenousPrices, "apply", span_timer("closedloop.apply")
                ))
                stack.enter_context(patched(
                    DcOpf, "dispatch", span_timer("dcopf.dispatch")
                ))
            start = time.perf_counter()
            try:
                result = self.engine.run(
                    strategy,
                    budgeter=budgeter,
                    hours=self.hours,
                    tariff=self.tariff,
                    middleware=middleware,
                )
            except Exception:  # noqa: BLE001 — counted, not fatal
                result = None
            wall = time.perf_counter() - start
        self._runtime = self._new_runtime()
        if trace is not None:
            trace.passes += 1
        return self._checked(result, budgeter, clock, wall)

    def _checked(self, result, budgeter, clock, wall) -> PassResult:
        tally = Tally()
        if result is None:
            tally.record_raised(self.hours)
            return PassResult(wall, 0, 0, 0.0, [], [], 0.0, 0.0, 0.0, 0, 0,
                              tally, "raised")
        spent = budgeter.checkpoint()["spent"]
        bill = served_o = demand_o = 0.0
        within = 0
        for i, rec in enumerate(result.hours):
            fixed_point = clock.fixed_points[i] if self.closed_loop else None
            tally.record(check_hour(
                rec,
                capacity_rps=self.capacity(rec.hour),
                ledger_spend=spent[rec.hour],
                fixed_point=fixed_point,
            ))
            items = sum(li.amount for li in rec.line_items)
            bill += items
            within += items <= rec.budget * (1.0 + REL_TOL) + 1e-12
            served_o += rec.served_ordinary_rps
            demand_o += rec.demand_ordinary_rps
        n = len(result.hours)
        return PassResult(
            wall_s=wall,
            hours=n,
            decisions=n,
            decide_s=sum(clock.dispatch_s),
            hour_s=clock.hour_s,
            publish_s=clock.publish_s,
            dispatch_s=clock.dispatch_s,
            bill=bill,
            served_ordinary=served_o,
            demand_ordinary=demand_o,
            within_budget=within,
            budget_periods=n,
            tally=tally,
            fingerprint=_bill_fingerprint(
                bill, served_o, [r.step.value for r in result.hours]
            ),
        )

    def layer_metrics(self, trace: Trace) -> dict:
        return batch_layer_metrics(
            trace.tel, trace.solve_log, passes=trace.passes, hours=self.hours
        )

    def close(self) -> None:
        pass


class PaperMonth(BatchWorkload):
    name = "paper-month"


class PeakMonth(BatchWorkload):
    name = "peak-month"
    tariff = "energy+demand:rate=0.5,cycle=168"


class ClosedLoop(BatchWorkload):
    name = "closed-loop"
    closed_loop = True
    default_hours = 24


class _SettlePoller:
    """Stamps each settled-hour increment of a shard coordinator.

    The operator's view of the plane's hour cadence (``/status``'s
    ``settled_hours``), read every 5 ms from a side thread: a faster
    poll takes measurable CPU from the workers on a 2-core host.
    """

    def __init__(self, coordinator, period_s: float = 0.005):
        self.coordinator = coordinator
        self.period_s = period_s
        self.stamps: list[tuple[int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        last = self.coordinator.settled_hours
        while not self._stop.wait(self.period_s):
            now = self.coordinator.settled_hours
            if now != last:
                self.stamps.append((now - last, time.perf_counter()))
                last = now

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)

    def hour_seconds(self) -> list[float]:
        """Seconds per hour between consecutive settles (first excluded)."""
        out = []
        for (_, prev), (count, now) in zip(self.stamps, self.stamps[1:]):
            out.extend([(now - prev) / count] * count)
        return out


class ServeStorm:
    """BENCH_service's bursty storm through a 2-worker sharded plane."""

    name = "serve-storm"
    default_hours = 24
    workers = 2
    #: Decisions arrive in a different order on every pass.
    replay = False

    def __init__(self, seed: int, hours: int | None = None, out_dir=None):
        self.world_seed = WORLD_SEED + seed
        self.tick_seed = TICK_SEED
        self.hours = hours or self.default_hours
        self.out_dir = pathlib.Path(out_dir or ".perfbench") / (
            f"serve-{os.getpid()}"
        )
        self._capacity: dict[tuple[int, int], float] = {}

    def setup(self) -> None:
        from repro.service.shard import build_world
        from repro.sim import Engine, resolve_monthly_budget

        world_spec = {"kind": "paper", "policy": 1, "seed": self.world_seed}
        self.world = build_world(world_spec)
        engine = Engine(self.world.sites, self.world.workload, self.world.mix)
        monthly = resolve_monthly_budget(
            self.world, BUDGET_FRACTION, hours=self.hours, engine=engine
        )
        self.spec = {
            "world": world_spec,
            "source": {
                "kind": "bursty",
                "ticks_per_hour": 60,
                "hours": self.hours,
                "seed": self.tick_seed,
                "ca2": 6.0,
                "price_jitter": 0.04,
                "sites": [s.name for s in self.world.sites],
                "trace_file": None,
            },
            "strategy": "capping",
            "trigger": {
                "lambda_delta": 0.02,
                "price_delta": 0.02,
                "debounce_s": 60.0,
                "max_staleness_s": 900.0,
            },
            "degradation": None,
            "horizon": self.hours,
            "monthly_budget": monthly,
            "tariff": None,
        }
        self._plane = self._new_plane()

    def _new_plane(self):
        from repro.service import ShardedControlPlane

        return ShardedControlPlane(
            self.spec,
            workers=self.workers,
            decision_log=self.out_dir / "decisions.jsonl",
            http=False,
            handle_signals=False,
        )

    def capacity(self, region: int, hour: int) -> float:
        key = (region, hour)
        cap = self._capacity.get(key)
        if cap is None:
            names = set(self._plane.regions[region].sites)
            cap = self._capacity[key] = sum(
                s.hour(hour).max_rate_rps
                for s in self.world.sites if s.name in names
            )
        return cap

    def run_pass(self, trace: Trace | None = None) -> PassResult:
        from repro.service import ControlLoop, DecisionEvent, ShardCoordinator
        from repro.service.readmodel import DecisionReadModel
        from repro.telemetry import use_telemetry

        plane = self._plane
        with contextlib.ExitStack() as stack:
            if trace is not None:
                stack.enter_context(use_telemetry(trace.tel))
                # Installed before run(): the forked workers inherit them.
                stack.enter_context(patched(
                    ControlLoop, "on_tick",
                    counter_timer("bench.on_tick", key=lambda loop: loop.name),
                ))
                stack.enter_context(patched(
                    DecisionEvent, "to_json", counter_timer("bench.encode")
                ))
                stack.enter_context(patched(
                    ShardCoordinator, "barrier",
                    trace.barrier.timer(key=lambda coord, wid, *_: wid),
                ))
                stack.enter_context(patched(
                    DecisionReadModel, "publish", trace.publish.timer()
                ))
                stack.enter_context(trace.tel.span("bench.serve_run"))
            # Probers fork before the poller thread starts.
            with CoreProbes() as probes, _SettlePoller(
                plane.coordinator
            ) as poller:
                start = time.perf_counter()
                summary = plane.run()
                wall = time.perf_counter() - start
        if trace is not None:
            trace.passes += 1
            trace.wall_s.append(wall)
            trace.owned = plane.owned
        result = self._checked(plane, summary, poller, wall, probes.scale)
        self._plane = self._new_plane()
        return result

    def _checked(self, plane, summary, poller, wall, scale) -> PassResult:
        tally = Tally()
        decisions = int(summary["decisions"])
        if summary["worker_errors"] or summary["hours"] < self.hours:
            tally.record_raised(max(decisions, 1))
            return PassResult(wall, 0, 0, wall, [], [], 0.0, 0.0, 0.0, 0, 0,
                              tally, "raised")
        hours = plane.coordinator.hour_summaries
        broken = set()
        bill = served_o = demand_o = 0.0
        within = 0
        for entry in hours:
            if check_region_hour(entry):
                broken.add((entry["region"], entry["hour"]))
            items = sum(li["amount"] for li in entry["line_items"])
            bill += items
            within += items <= entry["budget"] * (1.0 + REL_TOL) + 1e-12
            served_o += entry["served_ordinary_rps"]
            demand_o += entry["demand_ordinary_rps"]
        premium = self.world.mix.premium_fraction
        checked = 0
        for region, path in sorted(plane.log_paths.items()):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    event = json.loads(line)
                    failures = check_decision(
                        event,
                        capacity_rps=self.capacity(region, event["hour"]),
                        premium_fraction=premium,
                    )
                    if (region, event["hour"]) in broken:
                        failures.append("line-items")
                    tally.record(failures)
                    checked += 1
        if checked != decisions:
            tally.consistent = False
        digest = hashlib.sha256(plane.decision_log.read_bytes()).hexdigest()
        return PassResult(
            wall_s=wall,
            hours=int(summary["hours"]),
            decisions=decisions,
            decide_s=wall * scale,
            hour_s=[x * scale for x in poller.hour_seconds()],
            publish_s=[x * scale for x in plane.readmodel.push_latency_s],
            bill=bill,
            served_ordinary=served_o,
            demand_ordinary=demand_o,
            within_budget=within,
            budget_periods=len(hours),
            tally=tally,
            fingerprint=digest,
        )

    def layer_metrics(self, trace: Trace) -> dict:
        # The plane merges every worker's counters into the front's
        # bundle when the worker exits.
        wc = {
            m["name"]: m["value"] for m in trace.tel.registry.as_dicts()
            if m["type"] == "counter"
        }
        per_pass = 1.0 / trace.passes
        loops = [n for n in wc if n.startswith("bench.on_tick_s.")]
        on_tick_s = sum(wc[n] for n in loops)
        on_tick_calls = sum(
            wc.get(n.replace("_s.", "_calls.", 1), 0.0) for n in loops
        )
        dispatches = wc.get("service.dispatches", 0.0)
        waits = trace.barrier.seconds()
        publishes = trace.publish.seconds()
        # Front-side samples join the trace file as histograms (reader
        # threads cannot share the single-stack span tracer).
        for name, samples in (
            ("bench.shard.barrier_wait_s", waits),
            ("bench.readmodel.publish_s", publishes),
        ):
            hist = trace.tel.histogram(name)
            for seconds in samples:
                hist.observe(seconds)
        wall = sum(trace.wall_s)
        out = {
            "controller.on_tick_ms_mean": (
                on_tick_s / on_tick_calls * 1e3 if on_tick_calls else 0.0
            ),
            "controller.encode_us_mean": (
                wc.get("bench.encode_s", 0.0) / wc["bench.encode_calls"] * 1e6
                if wc.get("bench.encode_calls") else 0.0
            ),
            "controller.decisions_per_tick": (
                dispatches / on_tick_calls if on_tick_calls else 0.0
            ),
            "service.dispatches": dispatches * per_pass,
            "shard.barrier_wait_ms_p50": percentile(waits, 50) * 1e3,
            "shard.barrier_wait_ms_p90": percentile(waits, 90) * 1e3,
            "service.shard.barriers": (
                wc.get("service.shard.barriers", 0.0) * per_pass
            ),
            "readmodel.publish_us_p50": percentile(publishes, 50) * 1e6,
        }
        for reason in SERVE_TRIGGERS:
            out[f"service.trigger.{reason}"] = (
                wc.get(f"service.trigger.{reason}", 0.0) * per_pass
            )
        cover = []
        loop_prefix = f"bench.on_tick_s.{self.spec['strategy']}/region"
        for wid, regions in sorted(trace.owned.items()):
            busy = sum(wc.get(f"{loop_prefix}{r}", 0.0) for r in regions)
            wait = sum(trace.barrier.seconds(wid))
            out[f"shard.busy_frac.w{wid}"] = busy / wall if wall else 0.0
            out[f"shard.wait_frac.w{wid}"] = wait / wall if wall else 0.0
            cover.append((busy + wait) / wall if wall else 0.0)
        out["shard.cover_frac"] = min(cover) if cover else 0.0
        return out

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (PaperMonth, PeakMonth, ClosedLoop, ServeStorm)
}
