"""The always-on streaming control plane (``repro serve``).

The paper's controller is batch-hourly; the system it models — a cloud
operator whose dispatch *moves* power markets — is a long-lived online
service reacting to live request-rate and price ticks. This subpackage
turns the :class:`~repro.sim.engine.Engine` stage pipeline into exactly
that:

* :mod:`repro.service.ticks` — the streaming inputs: :class:`Tick`
  events (λ request-rate and per-site price-feed scale) generated by
  deterministic seeded sources, either replayed from an hourly
  :class:`~repro.workload.Trace` or synthesized with the burstiness
  machinery of :mod:`repro.workload.burstiness`;
* :mod:`repro.service.controller` — :class:`ControlLoop`, the *pure,
  synchronous* decision core: hour accounting, λ/price delta triggers
  with debounce and a max-staleness deadline, sub-hourly re-dispatch
  through :func:`~repro.sim.engine.dispatch_with_degradation`, and
  time-weighted hourly settlement into the budgeter;
* :mod:`repro.service.httpd` — a dependency-free asyncio HTTP/JSON
  server exposing the current decision, the decision stream, routing
  fractions (with the TTL-converged realized split from
  :class:`~repro.routing.WeightedDnsDispatcher`), status and telemetry;
* :mod:`repro.service.readmodel` — :class:`DecisionReadModel`, the
  bounded publish/subscribe buffer between dispatch and HTTP readers:
  snapshot store, replay ring, per-subscriber drop-oldest queues, and
  the SSE framing behind ``/decisions/stream``;
* :mod:`repro.service.shard` — :class:`ShardedControlPlane`, the one
  serve runtime. Without workers it drives one region holding every
  site on a thread while asyncio serves HTTP; with ``workers=N`` it
  runs one worker process per group of market regions
  (:func:`plan_regions`). Either way an hour-boundary budget barrier
  (:class:`ShardCoordinator`) carves hourly allotments from the shared
  :class:`~repro.core.Budgeter` and writes coordinated checkpoints,
  per-region decision logs merge into one deterministic log, telemetry
  streams through a :class:`~repro.telemetry.RotatingJsonlWriter`, and
  SIGTERM-style stops let ``repro serve --resume`` continue
  bit-identically.

Determinism is the design invariant: the decision core is synchronous
and wall-clock-free (ticks carry simulated time), so a serial drive of
one :class:`ControlLoop` and the in-process plane produce
byte-identical decision logs, as do the N-worker plane and its serial
reference for their spec — pinned by ``tests/service`` and measured by
``benchmarks/bench_service.py``.

"""

from .controller import ControlLoop, DecisionEvent, TriggerPolicy, run_serial
from .httpd import JsonHttpServer, StreamResponse
from .readmodel import DecisionReadModel, Subscription, sse_frame, sse_stream
from .shard import (
    SHARD_CHECKPOINT_VERSION,
    RegionSpec,
    ShardCoordinator,
    ShardedControlPlane,
    load_shard_checkpoint,
    merge_region_logs,
    plan_regions,
    run_sharded_serial,
    truncate_jsonl,
)
from .ticks import Tick, build_ticks, bursty_ticks, replay_ticks

__all__ = [
    "Tick",
    "replay_ticks",
    "bursty_ticks",
    "build_ticks",
    "TriggerPolicy",
    "DecisionEvent",
    "ControlLoop",
    "run_serial",
    "truncate_jsonl",
    "JsonHttpServer",
    "StreamResponse",
    "DecisionReadModel",
    "Subscription",
    "sse_frame",
    "sse_stream",
    "SHARD_CHECKPOINT_VERSION",
    "RegionSpec",
    "plan_regions",
    "ShardCoordinator",
    "ShardedControlPlane",
    "run_sharded_serial",
    "merge_region_logs",
    "load_shard_checkpoint",
]
