"""Per-layer timing from outside the program, through public calls only.

Two kinds of instrument live here:

* :class:`HourClock` — the end-to-end clock of the batch workloads, a
  :class:`~repro.sim.engine.StageMiddleware` pair that reads the
  process CPU clock at hour and dispatcher boundaries and a speed probe
  between hours. It is the only hook an untraced run installs.
* The traced-run instruments: :class:`StageSpans` (engine stage spans),
  :class:`TimedSolver` (the bill capper's two optimizers, binned by the
  engine that answered each solve) and :func:`patched` method timers
  around ``EndogenousPrices.apply``, ``DcOpf.dispatch``,
  ``ShardCoordinator.barrier``, ``DecisionReadModel.publish``,
  ``ControlLoop.on_tick`` and ``DecisionEvent.to_json``.

Spans go into the active :class:`~repro.telemetry.Telemetry` bundle, so
a traced run's trace file is the repo's own JSONL format. Shard workers
are forked from the benchmark process, so class-level timers installed
before ``ShardedControlPlane.run()`` run inside them too; they report
through the telemetry counters each worker ships back when it exits.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

from repro.sim.engine import StageMiddleware
from repro.telemetry import get_telemetry

from .speed import PROBE_REF_S, probe_s
from .stats import percentile

#: Counter names whose movement during a solve says which engine
#: answered it, in attribution order: a B&B solve also moves the LP
#: engine's counter (its relaxations), so the first mover wins.
ENGINE_COUNTERS = (
    ("kernel", ("core.enum_kernel.solved",)),
    ("bb", ("solver.branch-bound.solves",)),
    ("highs", ("solver.scipy.solves", "solver.scipy-linprog.solves")),
)

STAGE_NAMES = ("observe", "budget", "dispatch", "realize", "settle")


class HourClock(StageMiddleware):
    """Reference time of each simulated hour and of its dispatcher.

    Put it first in the middleware list and :attr:`dispatcher` last, so
    ``dispatch_s`` times the dispatcher alone: a closed-loop fixed point
    runs between the two. ``publish_s`` is the time from the
    dispatcher's decision to the end of the hour, when the settled
    record goes to the run result; on the closed loop it includes the
    market re-clearing the decision waits for. With a closed-loop
    ``runtime`` the hour's fixed-point result is kept for the checks.

    Times are process CPU time, so steal is left out. Every hour is
    bracketed by speed-probe readings (see :mod:`perfbench.speed`) and
    its times are kept in reference seconds, scaled by the mean of the
    probes before and after it. The probes run outside the timed
    interval.
    """

    def __init__(self, runtime=None, probe=probe_s):
        self.runtime = runtime
        self.probe = probe
        self.hour_s: list[float] = []
        self.dispatch_s: list[float] = []
        self.publish_s: list[float] = []
        self.fixed_points: list = []
        self.dispatcher = _DispatchClock()
        self._last_probe = None

    @contextlib.contextmanager
    def hour(self, ctx, state):
        before = self._last_probe or self.probe()
        start = time.process_time()
        self.dispatcher.seconds, self.dispatcher.last_end = 0.0, start
        yield
        end = time.process_time()
        self._last_probe = self.probe()
        scale = PROBE_REF_S / (0.5 * (before + self._last_probe))
        self.hour_s.append((end - start) * scale)
        self.dispatch_s.append(self.dispatcher.seconds * scale)
        self.publish_s.append((end - self.dispatcher.last_end) * scale)
        if self.runtime is not None:
            self.fixed_points.append(self.runtime.last)


class _DispatchClock(StageMiddleware):
    """The innermost half of :class:`HourClock`: the dispatcher's time."""

    def __init__(self):
        self.seconds = 0.0
        self.last_end = 0.0

    def stage(self, name, ctx, state):
        if name != "dispatch":
            return contextlib.nullcontext()
        return self._timed()

    @contextlib.contextmanager
    def _timed(self):
        start = time.process_time()
        yield
        self.last_end = time.process_time()
        self.seconds = self.last_end - start


class StageSpans(StageMiddleware):
    """``bench.hour`` spans with one ``engine.<stage>`` child per stage."""

    @contextlib.contextmanager
    def hour(self, ctx, state):
        with get_telemetry().span("bench.hour", hour=ctx.hour):
            yield

    @contextlib.contextmanager
    def stage(self, name, ctx, state):
        with get_telemetry().span(f"engine.{name}"):
            yield


def _counts(registry) -> dict[str, float]:
    out = {}
    for _, names in ENGINE_COUNTERS:
        for name in names:
            metric = registry.get(name)
            out[name] = metric.value if metric is not None else 0.0
    return out


def answered_by(before: dict, after: dict) -> str:
    """The engine whose counter moved between two :func:`_counts` reads."""
    for engine, names in ENGINE_COUNTERS:
        if any(after.get(n, 0.0) > before.get(n, 0.0) for n in names):
            return engine
    return "other"


class TimedSolver:
    """Times one of the bill capper's optimizers, call by call.

    Each ``solve`` runs inside a ``bill_capper.<name>`` span and is
    logged as ``(name, seconds, engine)``, where ``engine`` is the one
    whose telemetry counter moved during the call.
    """

    def __init__(self, inner, name: str, log: list):
        self._inner = inner
        self._name = name
        self._log = log

    def solve(self, *args, **kwargs):
        tel = get_telemetry()
        before = _counts(tel.registry)
        start = time.perf_counter()
        with tel.span(f"bill_capper.{self._name}"):
            result = self._inner.solve(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self._log.append(
            (self._name, elapsed, answered_by(before, _counts(tel.registry)))
        )
        return result


def timed_capper(log: list):
    """A default :class:`~repro.core.BillCapper` with timed optimizers."""
    from repro.core import BillCapper, CostMinimizer, ThroughputMaximizer

    return BillCapper(
        cost_minimizer=TimedSolver(CostMinimizer(), "cost_min", log),
        throughput_maximizer=TimedSolver(
            ThroughputMaximizer(), "throughput_max", log
        ),
    )


@contextlib.contextmanager
def patched(cls, name: str, wrap):
    """Replace ``cls.name`` with ``wrap(original)`` for the block."""
    original = cls.__dict__[name]
    setattr(cls, name, wrap(original))
    try:
        yield
    finally:
        setattr(cls, name, original)


def span_timer(span_name: str):
    """Wrap a method in a span on the active bundle."""

    def wrap(fn):
        def timed(self, *args, **kwargs):
            with get_telemetry().span(span_name):
                return fn(self, *args, **kwargs)

        return timed

    return wrap


def counter_timer(prefix: str, key=None):
    """Wrap a method to add its seconds and calls to telemetry counters.

    Counters are named ``<prefix>_s[.<key>]`` and ``<prefix>_calls[...]``
    where ``key(self)`` names the instance (e.g. the region loop).
    """

    def wrap(fn):
        def timed(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(self, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                suffix = f".{key(self)}" if key is not None else ""
                tel = get_telemetry()
                tel.counter(f"{prefix}_s{suffix}").inc(elapsed)
                tel.counter(f"{prefix}_calls{suffix}").inc()

        return timed

    return wrap


class Samples:
    """Thread-safe ``(key, seconds)`` samples from a patched method."""

    def __init__(self):
        self._lock = threading.Lock()
        self.items: list[tuple] = []

    def timer(self, key=None):
        def wrap(fn):
            def timed(self_, *args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(self_, *args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    tag = key(self_, *args) if key is not None else None
                    with self._lock:
                        self.items.append((tag, elapsed))

            return timed

        return wrap

    def seconds(self, tag=None) -> list[float]:
        with self._lock:
            return [s for k, s in self.items if tag is None or k == tag]


# -- per-layer metrics from a traced batch run --------------------------------


def engine_bins(solve_log) -> dict[str, list[float]]:
    """Solve-call seconds grouped by the engine that answered."""
    bins: dict[str, list[float]] = defaultdict(list)
    for _, seconds, engine in solve_log:
        bins[engine].append(seconds)
    return bins


def stage_self_times(spans) -> tuple[dict[str, list[float]], list, float]:
    """Per-hour engine-stage self times from a tracer's finished spans.

    A stage's self time is its span minus the closed-loop fixed point
    nested in it (the only other layer span at that depth). Returns
    ``(stage -> seconds per hour, apply seconds, covered share)`` where
    the covered share is the stage self times plus the fixed point over
    the summed ``bench.hour`` spans. Stage spans never nest, so each
    one belongs to exactly one hour.
    """
    nested = defaultdict(float)
    applies: list[float] = []
    for span in spans:
        if span.name == "closedloop.apply":
            nested[span.parent_id] += span.duration_s
            applies.append(span.duration_s)
    per_stage: dict[str, list[float]] = {name: [] for name in STAGE_NAMES}
    covered = 0.0
    for span in spans:
        if span.name.startswith("engine."):
            own = span.duration_s - nested[span.span_id]
            per_stage[span.name.split(".", 1)[1]].append(own)
            covered += span.duration_s
    hour_total = sum(s.duration_s for s in spans if s.name == "bench.hour")
    return per_stage, applies, (covered / hour_total if hour_total else 0.0)


def _counter_value(registry, name: str) -> float:
    metric = registry.get(name)
    return float(metric.value) if metric is not None else 0.0


def batch_layer_metrics(tel, solve_log, *, passes: int, hours: int) -> dict:
    """The batch workloads' per-layer numbers from one traced bundle.

    Counts are per traced pass (one run of the workload's horizon),
    except the closed-loop ``closedloop.iterations`` and
    ``dcopf.dispatch_calls``, which are per simulated hour.
    """
    ms = 1e3
    spans = tel.tracer.finished
    per_stage, applies, cover = stage_self_times(spans)
    reg = tel.registry
    calls = defaultdict(list)
    for name, seconds, _ in solve_log:
        calls[name].append(seconds)
    bins = engine_bins(solve_log)
    n_solves = len(solve_log)
    dcopf = [s.duration_s for s in spans if s.name == "dcopf.dispatch"]
    per_pass = 1.0 / passes
    per_hour = 1.0 / (passes * hours)
    out = {
        f"engine.{name}_ms_p50": percentile(per_stage[name], 50) * ms
        for name in STAGE_NAMES
    }
    out["engine.cover_frac"] = cover
    out.update({
        "bill_capper.cost_min_ms_p50": percentile(calls["cost_min"], 50) * ms,
        "bill_capper.cost_min_calls": len(calls["cost_min"]) * per_pass,
        "bill_capper.throughput_max_ms_p50": (
            percentile(calls["throughput_max"], 50) * ms
        ),
        "bill_capper.throughput_max_calls": (
            len(calls["throughput_max"]) * per_pass
        ),
        "dispatch.kernel_answer_frac": (
            len(bins["kernel"]) / n_solves if n_solves else 0.0
        ),
        "dispatch.kernel_ms_p50": percentile(bins["kernel"], 50) * ms,
        "dispatch.bb_ms_p50": percentile(bins["bb"], 50) * ms,
        "dispatch.highs_ms_p50": percentile(bins["highs"], 50) * ms,
        "closedloop.apply_ms_p50": percentile(applies, 50) * ms,
        "closedloop.iterations": (
            _counter_value(reg, "closedloop.iterations") * per_hour
        ),
        "dcopf.dispatch_calls": len(dcopf) * per_hour,
        "dcopf.dispatch_ms_p50": percentile(dcopf, 50) * ms,
    })
    for name in (
        "capper.step.cost-min",
        "capper.step.throughput-max",
        "capper.step.premium-only",
        "core.enum_kernel.solved",
        "core.enum_kernel.bail",
        "core.model_cache.hit",
        "core.model_cache.miss",
        "core.model_cache.fallback",
        "solver.branch-bound.solves",
        "solver.branch-bound.warm_nodes",
        "solver.simplex.solves",
        "budgeter.overspend_hours",
        "closedloop.converged",
        "closedloop.fallback",
        "closedloop.oscillated",
    ):
        out[name] = _counter_value(reg, name) * per_pass
    return out
