"""The control plane behind ``repro serve``: market regions, in-process or sharded.

The paper's world is a multi-region grid actor whose *markets* are
independent within an hour and couple only through the shared monthly
budget, so the unit of the plane is the market region:

* **Region plan** — with ``workers=N``, :func:`plan_regions` partitions
  the fleet with the same grouping the decomposition solver uses
  (:func:`~repro.core.decomposition.partition_market_regions`: sites
  sharing a pricing policy trade in one market). Each region gets a
  static *share*: its fraction of fleet throughput capacity, used both
  as its geo-DNS traffic share (region loops observe ``λ·share``) and
  its budget weight. Without workers the plan is one region holding
  every site, with share exactly 1.0: the paper's joint hourly
  dispatch, driven in-process on a thread while the asyncio loop
  serves HTTP.
* **Workers** — regions are dealt round-robin onto ``N`` worker
  processes. Each worker rebuilds the world from the spec (fork- and
  spawn-safe: nothing unpicklable crosses the process boundary),
  builds one :class:`ControlLoop` per owned region over an
  :meth:`Engine.subset <repro.sim.engine.Engine.subset>` of its sites,
  and drives the shared tick stream: λ ticks are broadcast (scaled by
  region share), price ticks routed to the owning region only.
* **Budget ledger** — every hour boundary is a two-phase barrier run
  by :class:`ShardCoordinator`: (1) each driver settles *all* its
  region loops and sends the spends; (2) when the last one arrives,
  the coordinator settles the single shared
  :class:`~repro.core.Budgeter` (spends summed in fixed region order),
  writes one coordinated checkpoint, carves the next hour's budget by
  region share, and releases everyone. Unused budget flows through the
  budgeter's own carryover, so claw-back across regions is global, not
  per-region. In-process, the one driver meets the coordinator
  directly, so the barrier resolves at once.
* **Determinism** — each region loop is a pure function of its tick
  substream, its hourly allotments and its region world; none of those
  depend on worker count or scheduling. The per-region decision logs
  merged by :func:`merge_region_logs` (ordered by ``(tick_seq,
  region)``) are therefore byte-identical for every ``N`` — including
  ``N=1`` and the in-process :func:`run_sharded_serial` reference —
  and identical again after a mid-run SIGTERM plus ``serve --resume``
  (per-region logs truncated to the coordinated checkpoint). The
  one-region plane's log equals a single
  :func:`~repro.service.controller.run_serial` loop's over the same
  ticks.
* **Push, not poll** — every decision is published into a
  :class:`~repro.service.readmodel.DecisionReadModel` feeding the
  ``/decisions/stream`` SSE endpoint and the ``/decision`` long-poll
  (workers stream theirs over their pipe). Subscriber queues are
  bounded with drop-oldest, so a stalled client costs the dispatch
  loops nothing.

A crashed or stopped worker aborts the in-flight barrier round (its
spends are missing, so the round cannot settle); the last *completed*
round's checkpoint is the resume point, and log truncation discards
whatever any worker dispatched past it. Checkpoints written by the
retired single-process runtime (``service-run`` versions 1 and 2) load
as one-region checkpoints (:func:`load_shard_checkpoint`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import heapq
import json
import math
import multiprocessing as mp
import pathlib
import shutil
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..billing import DEFAULT_TARIFF
from ..core import Budgeter
from ..resilience import DegradationPolicy, atomic_write_json, read_json
from ..telemetry import (
    RotatingJsonlWriter,
    Telemetry,
    get_telemetry,
    merge_counters,
    use_telemetry,
)
from .controller import ControlLoop, TriggerPolicy
from .httpd import JsonHttpServer, StreamResponse
from .readmodel import DecisionReadModel, sse_stream
from .ticks import build_ticks

__all__ = [
    "SHARD_CHECKPOINT_VERSION",
    "RegionSpec",
    "plan_regions",
    "build_world",
    "RegionDriver",
    "ShardCoordinator",
    "ShardedControlPlane",
    "run_sharded_serial",
    "merge_region_logs",
    "load_shard_checkpoint",
    "truncate_jsonl",
]

#: Shard checkpoint schema version; bump when the payload changes.
#: Version history:
#:
#: * 1 — through the energy-only billing spine.
#: * 2 — region loop states carry settlement-ledger state and the
#:   payload names the tariff spec; v1 checkpoints migrate onto the
#:   default ``energy`` tariff (no cross-hour ledger state to restore).
SHARD_CHECKPOINT_VERSION = 2

_HOUR_S = 3600.0

#: Step-margin fraction for the choice sets sizing the region chunks —
#: grouping only, so any fixed value keeps the plan deterministic.
_PLAN_STEP_MARGIN = 0.05


# -- region planning ----------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    """One market region of the shard plan.

    ``share`` is the region's fraction of fleet throughput capacity —
    its static geo-DNS traffic share and budget weight. Static shares
    keep the ledger's state equal to the budgeter checkpoint (nothing
    extra to persist) and keep every region loop independent of the
    others' observations.
    """

    index: int
    sites: tuple[str, ...]
    share: float


def plan_regions(engine, max_region_combos: int = 512) -> list[RegionSpec]:
    """Partition an engine's sites into market regions with shares.

    Reuses :func:`~repro.core.decomposition.partition_market_regions`
    on the hour-0 snapshots so the control plane shards exactly where
    the dispatch solver decomposes — except regions here never span
    pricing policies: a region is the unit handed to one worker's
    :class:`ControlLoop`, and sites in different markets share nothing
    within an hour, so each policy group is partitioned on its own
    (chunked by the same choice-combination cap). Sites the enumeration
    kernel bails on count as one choice (they can still be grouped;
    only chunk sizing uses the counts).
    """
    from ..core.decomposition import partition_market_regions
    from ..core.enum_kernel import site_choices

    site_hours = engine._site_hours(0)

    class _One:  # stand-in choice set for kernel-bailed sites
        lo = np.zeros(1)

    choices = [
        site_choices(sh, _PLAN_STEP_MARGIN) or _One() for sh in site_hours
    ]
    by_policy: dict[int, list[int]] = {}
    for j, sh in enumerate(site_hours):
        by_policy.setdefault(id(sh.policy), []).append(j)
    groups: list[list[int]] = []
    for idxs in by_policy.values():
        for chunk in partition_market_regions(
            [site_hours[j] for j in idxs],
            [choices[j] for j in idxs],
            max_region_combos,
        ):
            groups.append([idxs[j] for j in chunk])
    caps = [float(s.datacenter.max_throughput_rps()) for s in engine.sites]
    total = sum(caps)
    if total <= 0:
        raise ValueError("fleet has no throughput capacity to share")
    return [
        RegionSpec(
            index=i,
            sites=tuple(engine.sites[j].name for j in idxs),
            share=sum(caps[j] for j in idxs) / total,
        )
        for i, idxs in enumerate(groups)
    ]


# -- world / spec plumbing ----------------------------------------------------


def build_world(world_spec: dict):
    """Instantiate a world from a plain-dict spec (worker-side safe).

    ``{"kind": "paper", "policy": 1, "seed": 7}`` builds the Section VI
    scenario; ``{"kind": "scaled", "sites": 8, ...}`` builds the
    enlarged fleet (:func:`~repro.experiments.scaled_paper_world`) the
    scale-out benchmarks shard across. Worker processes call this from
    the spec instead of unpickling a live world, which keeps the
    launch path identical under fork and spawn.
    """
    kind = world_spec.get("kind", "paper")
    if kind == "paper":
        from ..experiments import paper_world

        return paper_world(
            int(world_spec.get("policy", 1)), seed=int(world_spec.get("seed", 7))
        )
    if kind == "scaled":
        from ..experiments import scaled_paper_world

        return scaled_paper_world(
            int(world_spec.get("sites", 8)),
            policy_id=int(world_spec.get("policy", 1)),
            seed=int(world_spec.get("seed", 7)),
        )
    raise ValueError(f"unknown world kind {kind!r}")


def _build_engine(world):
    from ..sim.engine import Engine

    return Engine(world.sites, world.workload, world.mix)


def _build_spec_ticks(world, source: dict):
    from ..workload import read_trace_csv

    trace = (
        read_trace_csv(source["trace_file"]) if source.get("trace_file")
        else world.workload
    )
    return build_ticks(trace, source)


# -- the hour-barrier coordinator ---------------------------------------------


class ShardCoordinator:
    """The budget ledger and checkpoint writer at the hour barrier.

    Thread-safe: worker reader threads call :meth:`barrier` and block
    until every active worker has arrived for the round; the last
    arrival settles the budgeter, writes the coordinated checkpoint,
    carves the next hour, and releases the rest. A worker that stops or
    dies (:meth:`worker_gone`) aborts the in-flight round — the spends
    of its regions are missing, so settling would corrupt the ledger —
    and every waiter is released with a stop reply.

    ``on_settled`` is called with no arguments, on the last arrival's
    thread, after each round that settled an hour (the in-process
    plane streams its telemetry there).
    """

    def __init__(
        self,
        regions: list[RegionSpec],
        budgeter: Budgeter | None,
        *,
        horizon: int,
        spec: dict,
        checkpoint_path=None,
        meta: dict | None = None,
        settled_hours: int = 0,
        next_tick: int = 0,
        region_states: dict | None = None,
        on_settled=None,
    ):
        self.regions = regions
        self.budgeter = budgeter
        self.horizon = int(horizon)
        self.spec = spec
        self.checkpoint_path = checkpoint_path
        self.meta = meta or {}
        self.settled_hours = int(settled_hours)
        self.next_tick = int(next_tick)
        self.region_states: dict[str, dict] = dict(region_states or {})
        self.on_settled = on_settled
        # A resumed run reports every settled hour, restored ones too.
        self.hour_summaries: list[dict] = sorted(
            (
                {"region": int(r), **summary}
                for r, state in self.region_states.items()
                for summary in state["loop"]["hour_summaries"]
            ),
            key=lambda s: (s["hour"], s["region"]),
        )
        self.checkpoints_written = 0
        self.rounds = 0
        self._owned: dict[int, list[int]] = {0: [r.index for r in regions]}
        self._cv = threading.Condition()
        self._arrived: dict[int, dict] = {}
        self._replies: dict[int, dict] = {}
        self._gen = 0
        self._active: set[int] = {0}
        self._stopping = False

    def set_workers(self, owned: dict[int, list[int]]) -> None:
        """Declare the worker → owned-regions assignment before launch."""
        with self._cv:
            self._owned = {w: sorted(rs) for w, rs in owned.items()}
            self._active = set(self._owned)

    def request_stop(self) -> None:
        """Abort any in-flight round; future barriers answer stop."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()

    def worker_gone(self, wid: int) -> None:
        """A worker stopped, finished or died; release any waiters.

        After a worker leaves, no further round can cover all regions,
        so the barrier degrades to stop replies. At a natural finish
        every worker leaves *after* the final round, when nobody waits.
        """
        with self._cv:
            self._active.discard(wid)
            self._stopping = True
            self._cv.notify_all()

    def barrier(self, wid: int, payload: dict) -> tuple[str, dict | None]:
        """One worker's round arrival; blocks until the round resolves.

        Returns ``("allot", {region: budget})`` when the round settled
        and the next hour was carved, or ``("stop", None)`` when the
        run is winding down mid-round.
        """
        with self._cv:
            if self._stopping:
                # Once any worker is gone (or a stop was requested) no
                # round can ever cover all regions again, and a partial
                # round must never settle the budgeter.
                return ("stop", None)
            gen = self._gen
            self._arrived[wid] = payload
            if set(self._arrived) == self._active:
                replies = self._on_round(self._arrived)
                self._arrived = {}
                self._replies = replies
                self._gen += 1
                self._cv.notify_all()
                return ("allot", replies.get(wid))
            self._cv.wait_for(lambda: self._gen != gen or self._stopping)
            if self._gen == gen:  # stopped before the round completed
                self._arrived.pop(wid, None)
                return ("stop", None)
            return ("allot", self._replies.get(wid))

    # Called with the condition held by the round's last arrival.
    def _on_round(self, payloads: dict[int, dict]) -> dict[int, dict]:
        settles: dict[int, dict] = {}
        open_hours = set()
        next_ticks = set()
        for wid in sorted(payloads):
            p = payloads[wid]
            open_hours.add(p["open_hour"])
            next_ticks.add(int(p["next_tick"]))
            for key, entry in p["settles"].items():
                settles[int(key)] = entry
        if len(open_hours) != 1 or len(next_ticks) != 1:
            raise RuntimeError(
                f"barrier round disagreement: open_hours={open_hours}, "
                f"next_ticks={next_ticks} — workers drifted out of step"
            )
        open_hour = open_hours.pop()
        self.next_tick = next_ticks.pop()
        self.rounds += 1
        if settles:
            hours = {e["hour"] for e in settles.values()}
            if len(hours) != 1:
                raise RuntimeError(f"regions settled different hours: {hours}")
            hour = hours.pop()
            # Per-component spends fold in fixed (component, region)
            # order — each component summed over sorted regions, the
            # components summed in sorted-name order — so the float
            # total, and through it the budgeter's carryover, is
            # identical for every worker count. The energy-only tariff
            # reduces to the pre-ledger sum of region spends bit for
            # bit (one component, same region order, same fold). For a
            # single region this is 0+d+e where the loop's own
            # SettlementLedger.total folds 0+e+d; the two are equal
            # only because a two-term float sum does not depend on
            # order. No tariff has a third component today; adding one
            # breaks the one-region plane's identity with a lone loop.
            spends = {
                r: settles[r].get("spends", {"energy": settles[r]["spend"]})
                for r in settles
            }
            names = sorted({c for per in spends.values() for c in per})
            total = sum(
                sum(spends[r].get(name, 0.0) for r in sorted(settles))
                for name in names
            )
            if self.budgeter is not None:
                self.budgeter.record_spend(total)
            self.settled_hours = hour + 1
            for r in sorted(settles):
                entry = settles[r]
                self.hour_summaries.append(
                    {"region": r, **entry["summary"]}
                )
                self.region_states[str(r)] = {
                    "loop": entry["loop"],
                    "strategy_state": entry["strategy_state"],
                    "decisions_logged": entry["decisions_logged"],
                }
            self._write_checkpoint()
            get_telemetry().counter("service.shard.barriers").inc()
            if self.on_settled is not None:
                self.on_settled()
        allot_all: dict[int, float] = {}
        if open_hour is not None:
            total_h = (
                self.budgeter.hourly_budget()
                if self.budgeter is not None
                else math.inf
            )
            allot_all = {r.index: total_h * r.share for r in self.regions}
        return {
            wid: {r: allot_all.get(r, math.inf) for r in owned}
            for wid, owned in self._owned.items()
        }

    def _write_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        payload = {
            "kind": "shard-run",
            "version": SHARD_CHECKPOINT_VERSION,
            "strategy": self.spec["strategy"],
            "tariff": self.spec.get("tariff") or DEFAULT_TARIFF,
            "horizon": self.horizon,
            "regions_planned": len(self.regions),
            "settled_hours": self.settled_hours,
            "next_tick": self.next_tick,
            "budgeter": (
                self.budgeter.checkpoint() if self.budgeter is not None else None
            ),
            "regions": self.region_states,
            "meta": self.meta,
        }
        atomic_write_json(payload, self.checkpoint_path)
        self.checkpoints_written += 1
        get_telemetry().counter("service.shard.checkpoints").inc()


def load_shard_checkpoint(path) -> dict:
    """Read and validate a coordinated shard checkpoint.

    A ``service-run`` checkpoint (versions 1 and 2, written by the
    retired single-process runtime) loads as the equivalent one-region
    checkpoint, so a serve in flight across the upgrade resumes.
    """
    payload = read_json(path)
    if payload.get("kind") == "service-run":
        return _from_service_checkpoint(path, payload)
    if payload.get("kind") != "shard-run":
        raise ValueError(f"{path} is not a shard run checkpoint")
    version = payload.get("version")
    if version not in (1, SHARD_CHECKPOINT_VERSION):
        raise ValueError(
            f"unsupported shard checkpoint version {version!r} "
            f"(expected {SHARD_CHECKPOINT_VERSION})"
        )
    for key in ("strategy", "horizon", "settled_hours", "next_tick",
                "regions", "meta"):
        if key not in payload:
            raise ValueError(f"shard checkpoint missing {key!r}")
    return payload


def _from_service_checkpoint(path, payload: dict) -> dict:
    """A ``service-run`` checkpoint as a one-region shard checkpoint.

    The single-process runtime ran one loop over every site: the
    in-process plane's region 0. Its loop state, strategy state,
    budgeter and ledger carry over unchanged. It logged to one file,
    which ``legacy_log`` names so the plane can seed region 0's log
    from it. Its meta held the world and tick-source parameters.
    """
    if payload.get("version") not in (1, 2):
        raise ValueError(
            f"unsupported service checkpoint version "
            f"{payload.get('version')!r} (expected 1 or 2)"
        )
    for key in ("strategy", "horizon", "trigger", "next_tick",
                "decisions_logged", "loop", "meta"):
        if key not in payload:
            raise ValueError(f"{path}: service checkpoint missing {key!r}")
    meta = payload["meta"]
    spec = {
        "world": {"kind": "paper", "policy": meta["policy"],
                  "seed": meta["seed"]},
        "source": meta["source"],
        "strategy": payload["strategy"],
        "trigger": payload["trigger"],
        "degradation": payload.get("degradation"),
        "horizon": payload["horizon"],
        "monthly_budget": meta.get("monthly_budget"),
        # Version 1 predates tariffs: None is the energy default.
        "tariff": payload.get("tariff"),
    }
    return {
        "kind": "shard-run",
        "version": SHARD_CHECKPOINT_VERSION,
        "strategy": payload["strategy"],
        "tariff": spec["tariff"] or DEFAULT_TARIFF,
        "horizon": payload["horizon"],
        "regions_planned": 1,
        "settled_hours": payload["loop"]["settled_hours"],
        "next_tick": payload["next_tick"],
        "budgeter": payload.get("budgeter"),
        "regions": {
            "0": {
                "loop": payload["loop"],
                "strategy_state": payload.get("strategy_state"),
                "decisions_logged": payload["decisions_logged"],
            },
        },
        "meta": {"spec": spec, "decision_log": meta["decision_log"],
                 "workers": None},
        "legacy_log": meta["decision_log"],
    }


def truncate_jsonl(path, keep_lines: int) -> int:
    """Drop log lines past ``keep_lines`` (decisions the checkpoint
    does not cover); returns the number of lines kept. A missing log
    with nothing to keep is created empty."""
    path = pathlib.Path(path)
    if not path.exists():
        if keep_lines > 0:
            raise ValueError(
                f"decision log {path} is missing but the checkpoint "
                f"expects {keep_lines} logged decisions"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()
        return 0
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if len(lines) < keep_lines:
        raise ValueError(
            f"decision log {path} has {len(lines)} lines but the "
            f"checkpoint expects {keep_lines}; the log does not match "
            "this checkpoint"
        )
    if len(lines) > keep_lines:
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(lines[:keep_lines])
    return keep_lines


# -- ledger clients -----------------------------------------------------------


class _DirectLedger:
    """In-process ledger client (serial reference, tests)."""

    def __init__(self, coordinator: ShardCoordinator, wid: int = 0):
        self._coordinator = coordinator
        self._wid = wid

    def exchange(self, settles, open_hour, next_tick):
        kind, allot = self._coordinator.barrier(
            self._wid,
            {"settles": settles, "open_hour": open_hour,
             "next_tick": next_tick},
        )
        return allot if kind == "allot" else None


class _PipeLedger:
    """Worker-side ledger client over the process pipe."""

    def __init__(self, conn):
        self._conn = conn

    def exchange(self, settles, open_hour, next_tick):
        self._conn.send(
            ("barrier",
             {"settles": settles, "open_hour": open_hour,
              "next_tick": next_tick})
        )
        kind, allot = self._conn.recv()
        return allot if kind == "allot" else None


# -- the region driver (one per worker) ---------------------------------------


class RegionDriver:
    """Drives the region loops owned by one worker over the tick stream.

    The same class backs the worker processes and the in-process serial
    reference — only the ledger client and the emit callback differ —
    which is what makes "serial == sharded" a structural property
    rather than a test-only coincidence.

    Parameters
    ----------
    engine:
        The full-world engine; each owned region gets a
        :meth:`~repro.sim.engine.Engine.subset` slice of it.
    regions:
        The full region plan (shares are needed for λ scaling).
    owned:
        Region indices this driver owns (sorted internally).
    ticks:
        The full tick stream; entries below ``start_tick`` are skipped.
    spec:
        The shard spec (strategy, trigger, degradation, horizon).
    ledger:
        Barrier client: ``exchange(settles, open_hour, next_tick)``
        returning ``{region: allotment}`` or ``None`` on stop.
    emit:
        Optional ``callback(region, event, wall_s, produced_mono)``
        fired per decision after the log line is flushed.
    log_fhs:
        Optional ``{region: file}`` of per-region JSONL logs; flushed
        before every barrier so the checkpoint's ``decisions_logged``
        never exceeds the bytes on disk.
    stop:
        Optional event (``is_set()`` and ``wait(timeout)``, threading
        or multiprocessing) checked between ticks and waited on while
        pacing — the SIGTERM path.
    resume:
        Optional shard checkpoint payload; restores loop and strategy
        state for owned regions and sets the tick/hour cursors.
    """

    def __init__(
        self,
        engine,
        regions: list[RegionSpec],
        owned,
        ticks,
        spec: dict,
        ledger,
        *,
        emit=None,
        log_fhs: dict | None = None,
        stop=None,
        pace_s_per_hour: float = 0.0,
        resume: dict | None = None,
    ):
        from ..sim.endogenous import EndogenousPrices
        from ..sim.registry import get_strategy

        self.regions = regions
        self.order = sorted(owned)
        self.ticks = ticks
        self.spec = spec
        self.ledger = ledger
        self.emit = emit
        self.log_fhs = dict(log_fhs or {})
        self.stop = stop if stop is not None else threading.Event()
        self.pace_s_per_hour = float(pace_s_per_hour)
        self.horizon = int(spec["horizon"])
        self.stopped = False
        self.ticks_processed = 0
        self.decide_wall_s: list[float] = []

        self._site_owner = {
            name: r for r in self.order for name in regions[r].sites
        }
        self._allot: dict[tuple[int, int], float] = {}
        self._last_allot: dict[int, float] = {}
        self._logged: dict[int, int] = {r: 0 for r in self.order}
        self.loops: dict[int, ControlLoop] = {}
        degradation = (
            DegradationPolicy(spec["degradation"])
            if spec.get("degradation") is not None
            else None
        )
        for r in self.order:
            strategy = get_strategy(spec["strategy"])
            budget_source = None
            if strategy.wants_budget:
                budget_source = (
                    lambda hour, _r=r: self._allot[(_r, hour)]
                )
            # A region holding every site drives the fleet engine itself.
            loop_engine = (
                engine if len(regions) == 1
                else engine.subset(regions[r].sites)
            )
            loop = ControlLoop(
                loop_engine,
                strategy,
                trigger=TriggerPolicy(**spec["trigger"]),
                budget_source=budget_source,
                tariff=spec.get("tariff"),
                hours=self.horizon,
                degradation=degradation,
                name=f"{spec['strategy']}/region{r}",
                endogenous=EndogenousPrices.from_spec(
                    loop_engine, spec.get("endogenous")
                ),
            )
            if resume is not None:
                state = resume["regions"].get(str(r))
                if state is None:
                    raise ValueError(
                        f"shard checkpoint has no state for region {r}"
                    )
                if state.get("strategy_state") and hasattr(
                    strategy, "load_state"
                ):
                    strategy.load_state(state["strategy_state"])
                loop.load_state(state["loop"])
                self._logged[r] = int(state["decisions_logged"])
            self.loops[r] = loop
        self.start_tick = int(resume["next_tick"]) if resume else 0
        self.start_hour = int(resume["settled_hours"]) if resume else 0

    # -- driving ------------------------------------------------------------

    def run(self) -> None:
        """Drive the stream to completion (or stop)."""
        cur: int | None = None
        finished = False
        prev_time = None
        end_seq = len(self.ticks)
        for tick in self.ticks:
            if tick.seq < self.start_tick:
                continue
            hour_of = int(tick.time_s // _HOUR_S)
            if hour_of >= self.horizon:
                break  # post-horizon tail; settle below
            if self.pace_s_per_hour > 0 and prev_time is not None:
                # Wait on the stop event, not sleep: a stop requested
                # during the pause ends it, and this tick is not routed.
                self.stop.wait(
                    max(0.0, tick.time_s - prev_time)
                    / _HOUR_S * self.pace_s_per_hour
                )
            prev_time = tick.time_s
            if self.stop.is_set():
                self.stopped = True
                break
            if cur is None:
                if not self._open_round({}, self.start_hour, tick.seq):
                    self.stopped = True
                    break
                cur = self.start_hour
            while hour_of > cur:
                settles = self._settle_all(cur)
                nxt = cur + 1
                opening = nxt if nxt < self.horizon else None
                if not self._open_round(settles, opening, tick.seq):
                    self.stopped = True
                    break
                if opening is None:
                    finished = True
                    break
                cur = nxt
            if self.stopped or finished:
                break
            self.ticks_processed += 1
            self._route(tick)
        if not self.stopped and not finished and cur is not None:
            # Stream ended mid-horizon: settle the open hour at its
            # boundary (the single-service finish() semantics) and let
            # the ledger record it.
            settles = self._settle_all(cur)
            self.ledger.exchange(settles, None, end_seq)

    def _open_round(self, settles, open_hour, next_tick) -> bool:
        allot = self.ledger.exchange(settles, open_hour, next_tick)
        if allot is None:
            return False
        if open_hour is not None:
            for r in self.order:
                self._allot[(r, open_hour)] = allot.get(r, math.inf)
                self.loops[r].open_hour(open_hour)
        return True

    def _settle_all(self, hour: int) -> dict:
        settles = {}
        for r in self.order:
            loop = self.loops[r]
            summary = loop.settle_open_hour()
            fh = self.log_fhs.get(r)
            if fh is not None:
                fh.flush()
            settles[str(r)] = {
                "hour": hour,
                "spend": summary["spend"],
                # Per-component amounts so the coordinator's fold stays
                # deterministic at any worker count (see _on_round).
                "spends": {
                    li["component"]: li["amount"]
                    for li in summary["line_items"]
                },
                "summary": summary,
                "loop": loop.state_dict(),
                "strategy_state": (
                    loop.strategy.state_dict()
                    if hasattr(loop.strategy, "state_dict")
                    else None
                ),
                "decisions_logged": self._logged[r],
            }
        return settles

    def _route(self, tick) -> None:
        if tick.kind == "lambda":
            for r in self.order:
                self._feed(
                    r,
                    dataclasses.replace(
                        tick, value=tick.value * self.regions[r].share
                    ),
                )
        else:
            r = self._site_owner.get(tick.site)
            if r is not None:
                self._feed(r, tick)

    def _feed(self, r: int, tick) -> None:
        t0 = time.perf_counter()
        events = self.loops[r].on_tick(tick)
        wall = time.perf_counter() - t0
        if events:
            self.decide_wall_s.append(wall)
        for event in events:
            fh = self.log_fhs.get(r)
            if fh is not None:
                fh.write(event.to_json() + "\n")
                fh.flush()
            self._logged[r] += 1
            if self.emit is not None:
                self.emit(r, event, wall, time.monotonic())


# -- worker process entry -----------------------------------------------------


def _worker_main(wid: int, job: dict, conn, stop_ev) -> None:
    """Child-process entry: rebuild the world, drive owned regions.

    Everything in ``job`` is plain data. The worker reports decisions
    (``("event", region, event_dict, wall_s, produced_mono)``), barrier
    rounds, and a final ``("done", counters, stopped)`` — or
    ``("error", message)`` — over its pipe, then exits.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: stop_ev.set())
    tel = Telemetry()
    try:
        with use_telemetry(tel):
            spec = job["spec"]
            world = build_world(spec["world"])
            engine = _build_engine(world)
            regions = plan_regions(
                engine, spec.get("max_region_combos", 512)
            )
            ticks = _build_spec_ticks(world, spec["source"])
            resume = job.get("resume")
            log_fhs = {
                r: open(job["log_paths"][r], "a" if resume else "w",
                        encoding="utf-8")
                for r in job["owned"]
            }

            def emit(region, event, wall_s, produced_mono):
                conn.send(
                    ("event", region, event.to_dict(), wall_s, produced_mono)
                )

            try:
                driver = RegionDriver(
                    engine,
                    regions,
                    job["owned"],
                    ticks,
                    spec,
                    _PipeLedger(conn),
                    emit=emit,
                    log_fhs=log_fhs,
                    stop=stop_ev,
                    pace_s_per_hour=job.get("pace_s_per_hour", 0.0),
                    resume=resume,
                )
                driver.run()
            finally:
                for fh in log_fhs.values():
                    fh.close()
            counters = {
                m["name"]: m["value"]
                for m in tel.registry.as_dicts()
                if m["type"] == "counter"
            }
            conn.send(("done", counters, driver.stopped))
    except Exception as exc:  # noqa: BLE001 — report, don't hang the front
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


# -- log merging --------------------------------------------------------------


def merge_region_logs(log_paths: dict[int, pathlib.Path], out_path) -> int:
    """K-way merge per-region JSONL logs into one deterministic log.

    Order is ``(tick_seq, region)`` — the order a single loop over the
    union stream would have emitted — so the merged file is
    byte-identical for every worker count. Returns the line count.
    """
    def keyed(path, region):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line:
                    yield (json.loads(line)["tick_seq"], region, line)

    out_path = pathlib.Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    streams = [keyed(p, r) for r, p in sorted(log_paths.items())]
    with out_path.open("w", encoding="utf-8") as out:
        for _, _, line in heapq.merge(*streams, key=lambda e: (e[0], e[1])):
            out.write(line + "\n")
            n += 1
    return n


# -- the serial reference -----------------------------------------------------


def run_sharded_serial(
    spec: dict,
    *,
    world=None,
    budgeter: Budgeter | None = None,
) -> tuple[list[str], ShardCoordinator]:
    """Drive the whole sharded pipeline in one process, no asyncio.

    The reference execution for the determinism contract: any
    ``--workers N`` run must produce exactly these merged log lines.
    Returns ``(merged_lines, coordinator)``.
    """
    world = world if world is not None else build_world(spec["world"])
    engine = _build_engine(world)
    regions = plan_regions(engine, spec.get("max_region_combos", 512))
    if budgeter is None and spec.get("monthly_budget") is not None:
        budgeter = world.budgeter(float(spec["monthly_budget"]))
    coordinator = ShardCoordinator(
        regions, budgeter, horizon=spec["horizon"], spec=spec
    )
    ticks = _build_spec_ticks(world, spec["source"])
    per_region: dict[int, list[str]] = {r.index: [] for r in regions}

    def emit(region, event, wall_s, produced_mono):
        per_region[region].append(event.to_json())

    driver = RegionDriver(
        engine,
        regions,
        [r.index for r in regions],
        ticks,
        spec,
        _DirectLedger(coordinator),
        emit=emit,
    )
    driver.run()
    merged: list[tuple[int, int, str]] = []
    for r, lines in sorted(per_region.items()):
        for line in lines:
            merged.append((json.loads(line)["tick_seq"], r, line))
    merged.sort(key=lambda e: (e[0], e[1]))
    return [line for _, _, line in merged], coordinator


# -- the serve runtime --------------------------------------------------------


def _query_since(query: dict) -> int:
    """The ``since`` cursor of a read-model query: an integer >= 0."""
    text = query.get("since", "0")
    try:
        since = int(text)
    except ValueError:
        since = -1
    if since < 0:
        raise ValueError(f"since must be an integer >= 0, got {text!r}")
    return since


def _query_wait_s(query: dict) -> float:
    """The long-poll ``wait_s``: finite seconds, capped at two minutes."""
    text = query.get("wait_s", "30")
    try:
        wait_s = float(text)
    except ValueError:
        wait_s = math.nan
    if not math.isfinite(wait_s):
        raise ValueError(f"wait_s must be a finite number, got {text!r}")
    return min(wait_s, 120.0)


class ShardedControlPlane:
    """The serve runtime: region drivers, coordinator, read model, HTTP API.

    Parameters
    ----------
    spec:
        Plain-dict spec: ``world`` (see :func:`build_world`), ``source``
        (tick-source spec), ``strategy``, ``trigger``, ``degradation``,
        ``horizon``, ``monthly_budget``, optional ``tariff``,
        ``endogenous`` (``{"grid": name, "damping": beta}``) and
        ``max_region_combos``.
    workers:
        ``None`` plans one region holding every site and drives it on a
        thread of this process while the asyncio loop serves HTTP.
        ``N`` plans market regions (:func:`plan_regions`) and deals them
        onto ``N`` worker processes, clamped to the region count (a
        region is the unit of parallelism). Endogenous prices need the
        in-process plane: endogenous LMPs couple regions within the
        hour.
    decision_log:
        The merged JSONL log, written when the run completes.
        Per-region logs live beside it in ``<decision_log>.d/``.
    checkpoint_path:
        Coordinated checkpoint written at every settled hour barrier.
    resume_payload:
        A :func:`load_shard_checkpoint` payload; restores the budgeter
        and per-region state, truncates the per-region logs, and skips
        consumed ticks. The worker count may differ from the original
        run — determinism holds for any ``N``.
    dns_ttl:
        Resolver TTL of the realized-routing model behind ``/routing``.
        In-process only, where each decision routes the whole fleet;
        ``None`` models no routing.
    telemetry_path:
        Spans and counters stream to this size-rotated JSONL file at
        every settled hour.
    """

    def __init__(
        self,
        spec: dict,
        *,
        workers: int | None = None,
        decision_log="service_decisions.jsonl",
        checkpoint_path=None,
        host: str = "127.0.0.1",
        port: int = 0,
        http: bool = True,
        pace_s_per_hour: float = 0.0,
        resume_payload: dict | None = None,
        handle_signals: bool = True,
        history: int = 1024,
        dns_ttl: float | None = None,
        telemetry_path=None,
    ):
        if not (math.isfinite(pace_s_per_hour) and pace_s_per_hour >= 0):
            raise ValueError("pace must be finite and >= 0")
        self.spec = spec
        self.world = build_world(spec["world"])
        #: The fleet engine: plans the regions, and is the one region's
        #: engine in-process.
        self.engine = _build_engine(self.world)
        if workers is None:
            self.n_workers = None
            self.regions = [
                RegionSpec(0, tuple(s.name for s in self.engine.sites), 1.0)
            ]
        else:
            if workers < 1:
                raise ValueError("workers must be >= 1")
            if spec.get("endogenous"):
                raise ValueError(
                    "endogenous prices are not supported with workers "
                    "(endogenous LMPs couple regions within the hour)"
                )
            self.regions = plan_regions(
                self.engine, spec.get("max_region_combos", 512)
            )
            self.n_workers = max(1, min(int(workers), len(self.regions)))
        n = self.n_workers or 1
        self.owned = {
            w: [r.index for r in self.regions[w::n]] for w in range(n)
        }
        self.decision_log = pathlib.Path(decision_log)
        self.log_dir = self.decision_log.with_name(self.decision_log.name + ".d")
        self.log_paths = {
            r.index: self.log_dir / f"region{r.index:03d}.jsonl"
            for r in self.regions
        }
        self.pace_s_per_hour = float(pace_s_per_hour)
        self.handle_signals = handle_signals
        self.resume_payload = resume_payload
        self.telemetry_path = telemetry_path
        self.telemetry_writer: RotatingJsonlWriter | None = None

        budgeter = None
        if resume_payload is not None:
            if resume_payload.get("regions_planned") not in (
                None, len(self.regions)
            ):
                raise ValueError(
                    "checkpoint was written for "
                    f"{resume_payload.get('regions_planned')} regions but "
                    f"this spec plans {len(self.regions)}"
                )
            if resume_payload.get("budgeter") is not None:
                budgeter = Budgeter.restore(resume_payload["budgeter"])
        elif spec.get("monthly_budget") is not None:
            budgeter = self.world.budgeter(float(spec["monthly_budget"]))
        meta = {
            "spec": spec,
            "decision_log": str(self.decision_log),
            "workers": self.n_workers,
        }
        self.coordinator = ShardCoordinator(
            self.regions,
            budgeter,
            horizon=spec["horizon"],
            spec=spec,
            checkpoint_path=checkpoint_path,
            meta=meta,
            settled_hours=(
                resume_payload["settled_hours"] if resume_payload else 0
            ),
            next_tick=resume_payload["next_tick"] if resume_payload else 0,
            region_states=(
                resume_payload["regions"] if resume_payload else None
            ),
            on_settled=(
                self._drain_telemetry if telemetry_path is not None else None
            ),
        )
        self.coordinator.set_workers(self.owned)
        self.readmodel = DecisionReadModel(history=history)
        self.http_server = (
            JsonHttpServer(self._routes(), host, port) if http else None
        )

        self.decisions_published = sum(
            int(st["decisions_logged"])
            for st in (resume_payload or {}).get("regions", {}).values()
        )
        self.decide_wall_s: list[float] = []
        self.worker_counters: dict[str, float] = {}
        self.worker_errors: dict[int, str] = {}
        self.stop_requested = False
        self._stopped = False
        self._lock = threading.Lock()
        self._procs: list[mp.Process] = []
        self._threads: list[threading.Thread] = []
        self._done_evt: asyncio.Event | None = None
        self._aio: asyncio.AbstractEventLoop | None = None
        self._workers_left = 0
        self.dns = None
        self._target_fractions: dict[str, float] | None = None
        self._realized_fractions: dict[str, float] | None = None
        self._stop_ev = None
        #: The in-process region driver; ``None`` with workers.
        self.driver: RegionDriver | None = None
        if self.n_workers is None:
            if dns_ttl is not None:
                from ..routing import ResolverPopulation, WeightedDnsDispatcher

                self.dns = WeightedDnsDispatcher(
                    list(self.regions[0].sites),
                    ResolverPopulation(ttl_s=dns_ttl),
                    seed=int(spec["world"].get("seed", 7)),
                )
            self._stop_ev = threading.Event()
            self.driver = RegionDriver(
                self.engine,
                self.regions,
                [0],
                _build_spec_ticks(self.world, spec["source"]),
                spec,
                _DirectLedger(self.coordinator),
                emit=self._emit,
                stop=self._stop_ev,
                pace_s_per_hour=self.pace_s_per_hour,
                resume=resume_payload,
            )

    @property
    def port(self) -> int | None:
        return self.http_server.port if self.http_server else None

    @classmethod
    def resume(cls, checkpoint_path, *, workers: int | None = None, **kwargs):
        """Rebuild the plane from its coordinated checkpoint.

        ``workers`` overrides the checkpointed worker count, except
        that an in-process run resumes in-process: its one region does
        not split across workers.
        """
        payload = load_shard_checkpoint(checkpoint_path)
        if payload["settled_hours"] >= payload["horizon"]:
            raise ValueError(
                f"checkpoint {checkpoint_path} already covers its whole "
                f"{payload['horizon']} h horizon; nothing left to serve"
            )
        meta = payload["meta"]
        if workers is None or meta["workers"] is None:
            workers = meta["workers"]
        return cls(
            meta["spec"],
            workers=workers,
            decision_log=kwargs.pop("decision_log", meta["decision_log"]),
            checkpoint_path=checkpoint_path,
            resume_payload=payload,
            **kwargs,
        )

    def request_stop(self) -> None:
        """SIGTERM path: drivers stop between ticks (a paced one at
        once); the in-flight barrier round (if any) aborts, leaving the
        last completed round's checkpoint as the resume point."""
        self.stop_requested = True
        if self._stop_ev is not None:
            self._stop_ev.set()
        self.coordinator.request_stop()

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> dict:
        """Blocking entry point (the CLI's)."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> dict:
        aio = asyncio.get_running_loop()
        self._aio = aio
        self.readmodel.bind_loop(aio)
        self._done_evt = asyncio.Event()
        if self.handle_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    aio.add_signal_handler(sig, self.request_stop)
                except (NotImplementedError, RuntimeError):
                    pass
        if self.http_server is not None:
            await self.http_server.start()
        try:
            if self.telemetry_path is not None:
                self.telemetry_writer = RotatingJsonlWriter(self.telemetry_path)
            self._prepare_logs()
            if self.driver is not None:
                await self._drive_in_process(aio)
            else:
                self._launch_workers()
                await self._done_evt.wait()
                await aio.run_in_executor(None, self._join_workers)
        finally:
            if self.telemetry_writer is not None:
                self._drain_telemetry()
                self.telemetry_writer.close()
            if self.http_server is not None:
                await self.http_server.stop()
            if self.handle_signals:
                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        aio.remove_signal_handler(sig)
                    except (NotImplementedError, RuntimeError):
                        pass
        merged = None
        if not self._stopped and not self.worker_errors:
            merged = merge_region_logs(self.log_paths, self.decision_log)
        return self._summary(merged)

    def _prepare_logs(self) -> None:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        if self.resume_payload is None:
            return
        legacy = self.resume_payload.get("legacy_log")
        if legacy is not None:
            # A single-process checkpoint: its one log is region 0's.
            shutil.copyfile(legacy, self.log_paths[0])
        for r, path in self.log_paths.items():
            state = self.resume_payload["regions"].get(str(r))
            keep = int(state["decisions_logged"]) if state else 0
            truncate_jsonl(path, keep)

    async def _drive_in_process(self, aio) -> None:
        mode = "a" if self.resume_payload is not None else "w"
        with open(self.log_paths[0], mode, encoding="utf-8") as fh:
            self.driver.log_fhs[0] = fh
            await aio.run_in_executor(None, self.driver.run)
        self._stopped = self.driver.stopped

    def _launch_workers(self) -> None:
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._stop_ev = ctx.Event()
        if self.stop_requested:
            self._stop_ev.set()
        self._workers_left = self.n_workers
        for wid, owned in self.owned.items():
            parent_conn, child_conn = ctx.Pipe()
            job = {
                "spec": self.spec,
                "owned": owned,
                "log_paths": {r: str(self.log_paths[r]) for r in owned},
                "pace_s_per_hour": self.pace_s_per_hour,
                "resume": self.resume_payload,
            }
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, job, child_conn, self._stop_ev),
                name=f"shard-worker-{wid}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            thread = threading.Thread(
                target=self._reader, args=(wid, parent_conn, proc),
                name=f"shard-reader-{wid}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _publish(self, region: int, event: dict, wall_s, produced) -> None:
        with self._lock:
            self.decisions_published += 1
            self.decide_wall_s.append(wall_s)
        self.readmodel.publish(event, region=region, produced_mono=produced)
        get_telemetry().counter("service.shard.events").inc()

    def _emit(self, region, event, wall_s, produced_mono) -> None:
        """The in-process driver's per-decision callback: route, then
        publish, so ``/routing`` is current once a decision is read."""
        if self.dns is not None:
            # The window since the dispatcher's clock carried the *old*
            # answer weights; realize it before switching targets.
            window = event.time_s - self.dns.clock_s
            if self._target_fractions is not None and window > 0:
                self._realized_fractions = self.dns.dispatch_window(
                    self._target_fractions, window
                )
            self._target_fractions = event.fractions()
        self._publish(region, event.to_dict(), wall_s, produced_mono)

    def _reader(self, wid: int, conn, proc) -> None:
        tel = get_telemetry()
        reported = False
        try:
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):  # closed, or reset by a kill
                    break
                kind = msg[0]
                if kind == "event":
                    _, region, event, wall_s, produced = msg
                    self._publish(region, event, wall_s, produced)
                elif kind == "barrier":
                    reply = self.coordinator.barrier(wid, msg[1])
                    try:
                        conn.send(reply)
                    except OSError:  # died waiting for the reply
                        break
                elif kind == "done":
                    reported = True
                    _, counters, stopped = msg
                    with self._lock:
                        for name, value in counters.items():
                            self.worker_counters[name] = (
                                self.worker_counters.get(name, 0.0) + value
                            )
                        self._stopped = self._stopped or stopped
                    if tel.enabled:
                        merge_counters(tel.registry, counters)
                elif kind == "error":
                    reported = True
                    with self._lock:
                        self.worker_errors[wid] = msg[1]
            if not reported:
                # Killed before it could say done or error (a SIGKILL,
                # the OOM killer): its exit code is its only report.
                proc.join(timeout=30.0)
                with self._lock:
                    self.worker_errors[wid] = (
                        f"exited with code {proc.exitcode} before finishing"
                    )
        finally:
            conn.close()
            self.coordinator.worker_gone(wid)
            with self._lock:
                self._workers_left -= 1
                last = self._workers_left == 0
            if last and self._aio is not None:
                self._aio.call_soon_threadsafe(self._done_evt.set)

    def _join_workers(self) -> None:
        for proc in self._procs:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover — defensive
                proc.terminate()
                proc.join(timeout=5.0)

    def _drain_telemetry(self) -> None:
        tel = get_telemetry()
        writer = self.telemetry_writer
        if tel.tracer.enabled:
            for span in tel.tracer.drain():
                writer.write(span.as_dict())
        writer.write_all(tel.registry.as_dicts())
        writer.flush()

    def _summary(self, merged_lines: int | None) -> dict:
        hours = self.coordinator.hour_summaries
        demand_p = sum(s["demand_premium_rps"] for s in hours)
        demand_o = sum(s["demand_ordinary_rps"] for s in hours)
        # Full settled bills where present; restored pre-ledger
        # summaries fall back to the energy cost (their bill). An hour
        # is over budget when its region bills together exceed its
        # region allotments together, so the count never exceeds the
        # settled hours however many regions split the fleet.
        spend: dict[int, float] = {}
        budget: dict[int, float] = {}
        for s in hours:
            h = s["hour"]
            spend[h] = spend.get(h, 0.0) + s.get("spend", s["realized_cost"])
            budget[h] = budget.get(h, 0.0) + s["budget"]
        return {
            "strategy": self.spec["strategy"],
            "workers": self.n_workers,
            "regions": len(self.regions),
            "hours": self.coordinator.settled_hours,
            "decisions": self.decisions_published,
            "total_cost": sum(
                s.get("spend", s["realized_cost"]) for s in hours
            ),
            "hours_over_budget": sum(
                spend[h] > budget[h] * (1 + 1e-9) for h in spend
            ),
            "premium_throughput": (
                sum(s["served_premium_rps"] for s in hours) / demand_p
                if demand_p > 0 else 1.0
            ),
            "ordinary_throughput": (
                sum(s["served_ordinary_rps"] for s in hours) / demand_o
                if demand_o > 0 else 1.0
            ),
            "stopped": self._stopped or self.stop_requested,
            "checkpoints": self.coordinator.checkpoints_written,
            "worker_errors": dict(self.worker_errors),
            "merged_log_lines": merged_lines,
        }

    # -- HTTP API -----------------------------------------------------------

    def _routes(self) -> dict:
        return {
            "/healthz": lambda: (200, {"status": "ok"}),
            "/status": self._r_status,
            "/decision": self._r_decision,
            "/decisions/stream": self._r_stream,
            "/regions": self._r_regions,
            "/routing": self._r_routing,
            "/hours": self._r_hours,
            "/telemetry": self._r_telemetry,
        }

    def _r_status(self):
        with self._lock:
            decisions = self.decisions_published
            errors = dict(self.worker_errors)
        # The live loop state is visible to the front only in-process.
        driver = self.driver
        loop = driver.loops[0] if driver is not None else None
        return 200, {
            "strategy": self.spec["strategy"],
            "workers": self.n_workers,
            "workers_alive": sum(p.is_alive() for p in self._procs),
            "regions": len(self.regions),
            "settled_hours": self.coordinator.settled_hours,
            "horizon": self.coordinator.horizon,
            "finished": (
                self.coordinator.settled_hours >= self.coordinator.horizon
            ),
            "decisions": decisions,
            "ticks_processed": (
                driver.ticks_processed if driver is not None else None
            ),
            "hour": loop.hour if loop is not None else None,
            "lambda_rps": loop.lambda_now if loop is not None else None,
            "hour_budget": loop.hour_budget if loop is not None else None,
            "pub_seq": self.readmodel.pub_seq,
            "subscribers": self.readmodel.subscribers,
            "stopping": self.stop_requested,
            "worker_errors": errors,
        }

    async def _r_decision(self, query):
        """Bare GET: the newest decision. ``?since=<pub_seq>&wait_s=``
        long-polls for the next newer one (200 with ``timeout: true``
        when none arrives in time)."""
        if "since" not in query:
            record = self.readmodel.latest()
            if record is None:
                return 404, {"error": "no decision yet"}
            return 200, self._enrich(record)
        try:
            since, wait_s = _query_since(query), _query_wait_s(query)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        record = await self.readmodel.wait_newer(since, wait_s)
        if record is None:
            return 200, {
                "pub_seq": self.readmodel.pub_seq, "timeout": True,
            }
        return 200, self._enrich(record)

    @staticmethod
    def _enrich(record: dict) -> dict:
        return {
            **record["event"],
            "region": record["region"],
            "pub_seq": record["pub_seq"],
        }

    def _r_stream(self, query):
        try:
            since = _query_since(query)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        return StreamResponse(sse_stream(self.readmodel, since))

    def _r_regions(self):
        snap = self.readmodel.snapshot()
        worker_of = {
            r: wid for wid, owned in self.owned.items() for r in owned
        }
        return 200, {
            "regions": [
                {
                    "index": r.index,
                    "sites": list(r.sites),
                    "share": r.share,
                    "worker": worker_of.get(r.index),
                    "last_pub_seq": (
                        snap["regions"].get(str(r.index), {}).get("pub_seq")
                    ),
                }
                for r in self.regions
            ],
        }

    def _r_routing(self):
        if self.dns is None:
            return 404, {"error": "no routing model (in-process serve only)"}
        if self._target_fractions is None:
            return 404, {"error": "no decision yet"}
        return 200, {
            "target": self._target_fractions,
            "realized": self._realized_fractions,
            "ttl_s": self.dns.population.ttl_s,
        }

    def _r_hours(self):
        # Cap the response at one week of hours; the full history lives
        # in the checkpoint and the telemetry stream.
        return 200, {"hours": self.coordinator.hour_summaries[-168:]}

    def _r_telemetry(self):
        metrics = get_telemetry().registry.as_dicts()
        with self._lock:
            merged = dict(self.worker_counters)
        return 200, {
            "counters": {
                m["name"]: m["value"] for m in metrics
                if m["type"] == "counter"
            },
            "worker_counters": merged,
            "gauges": {
                m["name"]: m["value"] for m in metrics if m["type"] == "gauge"
            },
            "readmodel": {
                "pub_seq": self.readmodel.pub_seq,
                "subscribers": self.readmodel.subscribers,
                "dropped": self.readmodel.dropped_total,
            },
        }
