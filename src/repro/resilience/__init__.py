"""Fault injection and graceful degradation for the hourly control loop.

The ROADMAP's "handles as many scenarios as you can imagine" includes
the ugly ones: stale price feeds, dead demand sensors, a solver stack
that gives up, a budgeter process restarted mid-month. This subpackage
makes those scenarios first-class:

* :mod:`repro.resilience.faults` — :class:`FaultInjector`, a
  deterministic seed-keyed per-hour fault schedule
  (:class:`FaultSpec` / :class:`HourFaults`);
* :mod:`repro.resilience.degradation` — :class:`DegradationPolicy` and
  :func:`degraded_decision`, the no-solver dispatch policies the
  engine's :func:`~repro.sim.engine.dispatch_with_degradation` falls
  back to for every strategy;
* :mod:`repro.resilience.checkpoint` — JSON persistence for
  :meth:`repro.core.Budgeter.checkpoint` snapshots.

Typical chaos run::

    from repro.resilience import DegradationPolicy, FaultInjector, FaultSpec

    faults = FaultInjector(FaultSpec(price_stale=0.1, solver_error=0.05, seed=3))
    result = engine.run(
        "capping",
        budgeter=budgeter,
        faults=faults,
        degradation=DegradationPolicy.PROPORTIONAL,
    )
    assert all(len(h.sites) > 0 for h in result.hours)  # every hour dispatched
"""

from .checkpoint import (
    atomic_write_json,
    load_checkpoint,
    read_json,
    save_checkpoint,
)
from .degradation import DegradationPolicy, degraded_decision
from .faults import FAULT_KINDS, FaultInjector, FaultSpec, HourFaults

__all__ = [
    "FaultSpec",
    "HourFaults",
    "FaultInjector",
    "FAULT_KINDS",
    "DegradationPolicy",
    "degraded_decision",
    "atomic_write_json",
    "read_json",
    "save_checkpoint",
    "load_checkpoint",
]
