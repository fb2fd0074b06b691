"""Observability for the hourly control loop: metrics, traces, exporters.

The paper's Cost Capping controller solves a MILP every invocation
period; this subpackage answers *where an hour of simulated dispatch
goes* without perturbing the answer:

* :mod:`repro.telemetry.metrics` — counters, gauges, fixed-bucket
  histograms behind a get-or-create :class:`MetricRegistry`;
* :mod:`repro.telemetry.tracing` — nested monotonic-clock spans;
* :mod:`repro.telemetry.session` — the :class:`Telemetry` bundle and
  the process-wide active default (a no-op :data:`NULL` bundle unless
  :func:`use_telemetry` installs a live one);
* :mod:`repro.telemetry.export` — JSONL round-trip, aggregation, and
  human-readable summary tables.

Typical use::

    from repro.telemetry import Telemetry, use_telemetry
    from repro.telemetry.export import format_summary, snapshot, write_jsonl

    tel = Telemetry()
    with use_telemetry(tel):
        result = engine.run("capping", budgeter=budgeter)
    write_jsonl(tel, "trace.jsonl")
    print(format_summary(snapshot(tel)))

Everything in the hot layers (the solver backends, the bill capper, the
simulator) is instrumented against whatever :func:`get_telemetry`
returns, and the default bundle makes every operation a shared no-op —
so with telemetry off the cost is one global read per instrumented
region.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
    merge_counters,
)
from .session import NULL, Telemetry, get_telemetry, set_telemetry, use_telemetry
from .tracing import NullTracer, Span, Tracer
from .export import (
    RotatingJsonlWriter,
    TelemetrySnapshot,
    format_summary,
    read_jsonl,
    snapshot,
    summarize,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullRegistry",
    "merge_counters",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "NullTracer",
    "Telemetry",
    "NULL",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "TelemetrySnapshot",
    "snapshot",
    "RotatingJsonlWriter",
    "write_jsonl",
    "read_jsonl",
    "summarize",
    "format_summary",
]
