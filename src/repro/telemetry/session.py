"""The telemetry session: registry + tracer bundle and the active default.

Instrumented code throughout the repository asks for the *current*
telemetry via :func:`get_telemetry` and records into whatever it gets.
The default is :data:`NULL` — a permanently disabled bundle whose every
operation is a shared no-op — so the solver and simulator hot paths pay
one global lookup and one method call when observability is off.

Enable collection for a region of code with :func:`use_telemetry`::

    tel = Telemetry()
    with use_telemetry(tel):
        engine.run("capping", budgeter=budgeter)
    write_jsonl(tel, "trace.jsonl")

The active bundle is process-global (not thread/task-local) on purpose:
the simulation loop is single-threaded, multi-seed studies fork worker
*processes* (each starts at NULL), and a global keeps the disabled-path
cost at a module-dict read.
"""

from __future__ import annotations

import contextlib

from .metrics import MetricRegistry, NullRegistry
from .tracing import NullTracer, Tracer

__all__ = ["Telemetry", "NULL", "get_telemetry", "set_telemetry", "use_telemetry"]


class Telemetry:
    """A metric registry and a span tracer that live and export together."""

    enabled = True

    def __init__(self):
        self.registry = MetricRegistry()
        self.tracer = Tracer()

    # Convenience pass-throughs so call sites read naturally.

    def counter(self, name: str):
        return self.registry.counter(name)

    def gauge(self, name: str):
        return self.registry.gauge(name)

    def histogram(self, name: str, boundaries=None):
        if boundaries is None:
            return self.registry.histogram(name)
        return self.registry.histogram(name, boundaries)

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)


class _NullTelemetry(Telemetry):
    """Disabled bundle: all instruments are shared no-ops."""

    enabled = False

    def __init__(self):
        self.registry = NullRegistry()
        self.tracer = NullTracer()


#: The process-wide disabled default.
NULL = _NullTelemetry()

_current: Telemetry = NULL


def get_telemetry() -> Telemetry:
    """The telemetry bundle instrumented code currently records into."""
    return _current


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` (or :data:`NULL` for ``None``) as the active
    bundle; returns the previous one so callers can restore it."""
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else NULL
    return previous


@contextlib.contextmanager
def use_telemetry(telemetry: Telemetry | None):
    """Scope ``telemetry`` as the active bundle for a ``with`` block."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
