"""Scenario-sweep engine: deterministic grid fan-out over process pools.

Every batch experiment in this repo — multi-seed robustness studies,
strategy comparisons, budget sweeps — has the same shape: a grid of
scenario parameters, an expensive metric evaluated independently per
scenario, and results folded back in grid order. This module is that
shape, once:

* :func:`sweep_grid` — cartesian product of named axes into a list of
  scenario dicts, in a deterministic order;
* :func:`derive_seed` — collision-resistant per-scenario seeds that do
  not depend on ``PYTHONHASHSEED`` (stable across worker processes);
* :func:`run_sweep` — evaluate ``metric(scenario, payload)`` for every
  scenario, serially or across a :class:`~concurrent.futures.
  ProcessPoolExecutor`, returning values in scenario order.

Parallel mechanics: the shared ``payload`` (a world spec, an anchor
result, a fitted model) is pickled **once** into each worker via the
pool initializer, not once per task; tasks are scheduled in chunks so
short scenarios don't drown in IPC. Each scenario runs under its own
fresh :class:`~repro.telemetry.Telemetry` bundle and ships its counter
totals back with the value; ``run_sweep`` merges the sums into the
ambient bundle, so solver counters survive the process pool. The
serial path runs tasks through the identical wrapper — a sweep's
results (and merged counters) are equal at any worker count, which
``tests/sim/test_sweep.py`` pins.

Spans and histograms are per-process and are *not* merged; trace a
single scenario with ``workers=1`` when you need them.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from typing import Any, Callable, Iterable, Mapping

from ..telemetry import Telemetry, get_telemetry, use_telemetry

__all__ = [
    "sweep_grid",
    "derive_seed",
    "run_sweep",
    "strategy_metric",
    "closedloop_metric",
]

#: A sweep metric: ``metric(scenario, payload) -> value``. For
#: ``workers > 1`` it must be a module-level function (pool tasks are
#: pickled) and the value must be picklable.
Metric = Callable[[Mapping[str, Any], Any], Any]


def sweep_grid(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes as a list of scenario dicts.

    Axis order follows the keyword order; the last axis varies fastest.
    The order is deterministic, so a grid zips stably against its
    :func:`run_sweep` results.
    """
    named = {name: list(values) for name, values in axes.items()}
    if not named:
        raise ValueError("at least one axis required")
    for name, values in named.items():
        if not values:
            raise ValueError(f"axis {name!r} has no values")
    return [dict(zip(named, combo)) for combo in product(*named.values())]


def derive_seed(base: int, *components: Any) -> int:
    """A deterministic 32-bit seed for one scenario of a sweep.

    Hashes ``repr`` with SHA-256 rather than :func:`hash` — the
    built-in is salted per process (``PYTHONHASHSEED``), which would
    make worker-derived seeds irreproducible.
    """
    digest = hashlib.sha256(repr((int(base), components)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


# Worker-process globals, set once by the pool initializer so the
# shared payload crosses the pipe once instead of once per task.
_WORKER_METRIC: Metric | None = None
_WORKER_PAYLOAD: Any = None


def _init_worker(metric: Metric, payload: Any) -> None:
    global _WORKER_METRIC, _WORKER_PAYLOAD
    _WORKER_METRIC = metric
    _WORKER_PAYLOAD = payload


def _run_scenario(metric: Metric, payload: Any, scenario: Mapping[str, Any]):
    """One task: the metric under a fresh telemetry bundle.

    Returns ``(value, counter_totals)``. Serial and parallel sweeps
    both go through here, so a scenario never sees ambient telemetry
    state and the two paths stay equivalent.
    """
    tel = Telemetry()
    with use_telemetry(tel):
        value = metric(scenario, payload)
    counters = {
        m["name"]: m["value"]
        for m in tel.registry.as_dicts()
        if m["type"] == "counter" and m["value"]
    }
    return value, counters


def _pool_task(scenario: Mapping[str, Any]):
    return _run_scenario(_WORKER_METRIC, _WORKER_PAYLOAD, scenario)


def run_sweep(
    metric: Metric,
    scenarios: Iterable[Mapping[str, Any]],
    *,
    workers: int = 1,
    chunksize: int | None = None,
    payload: Any = None,
) -> list[Any]:
    """Evaluate ``metric`` over every scenario; values in input order.

    ``payload`` is shared read-only context handed to every call; with
    ``workers > 1`` it is pickled once per worker (pool initializer),
    so a large payload costs ``workers`` transfers, not ``len(
    scenarios)``. ``chunksize`` defaults to about four chunks per
    worker, amortizing IPC for short tasks while keeping the pool
    load-balanced.

    Counter deltas recorded by the scenarios are summed into the
    ambient telemetry bundle (when one is active) under their own
    names, whatever the worker count.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("at least one scenario required")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(scenarios) == 1:
        outcomes = [_run_scenario(metric, payload, s) for s in scenarios]
    else:
        workers = min(workers, len(scenarios))
        if chunksize is None:
            chunksize = math.ceil(len(scenarios) / (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(metric, payload),
        ) as pool:
            outcomes = list(
                pool.map(_pool_task, scenarios, chunksize=max(1, chunksize))
            )
    ambient = get_telemetry()
    if ambient.enabled:
        merged: dict[str, float] = {}
        for _, counters in outcomes:
            for name, value in counters.items():
                merged[name] = merged.get(name, 0.0) + value
        for name in sorted(merged):
            ambient.counter(name).inc(merged[name])
    return [value for value, _ in outcomes]


def strategy_metric(scenario: Mapping[str, Any], payload: Any = None):
    """Run one registered dispatch strategy on a fresh paper world.

    Scenario keys mirror :func:`repro.sim.parallel.run_one_strategy`:
    ``strategy`` (any :func:`repro.sim.registry.available_strategies`
    name) plus optional ``policy_id``, ``seed``, ``hours``,
    ``budget_fraction``, ``monthly_budget``, ``tariff`` (a
    :func:`repro.billing.make_ledger` spec). Returns the strategy's
    :class:`~repro.sim.records.SimulationResult`.
    """
    from .parallel import run_one_strategy

    return run_one_strategy(**scenario)


def closedloop_metric(scenario: Mapping[str, Any], payload: Any = None):
    """One closed-loop endogenous-pricing run; returns a summary dict.

    The scenario axes of the closed-loop study (ROADMAP: oscillation /
    mitigation dynamics):

    ``policy_id``, ``seed``, ``hours``, ``monthly_budget``, ``strategy``
        The usual world/run knobs (defaults: policy 1, seed 7, 24 h,
        uncapped, ``capping``).
    ``grid``
        Registry name resolved via
        :func:`repro.powermarket.closedloop.get_grid` (default
        ``pjm5bus``).
    ``line_outage``
        A line key (e.g. ``"D-E"``) dropped from the grid before
        coupling — the N-1 contingency axis. ``None`` = intact grid.
    ``background``
        ``"reco"`` (default) keeps the world's diurnal traces;
        ``"renewable"`` swaps in duck-curve net load
        (:func:`repro.powermarket.demand.renewable_background`)
        calibrated to each site's first price breakpoint.
    ``operators``
        K symmetric operators chasing the same buses (amplifies the
        fleet's price impact; the competition axis).
    ``damping``, ``acceleration``, ``max_iterations``
        Fixed-point mitigation knobs
        (:class:`~repro.powermarket.closedloop.ClosedLoopConfig`).

    Returns convergence statistics plus the month's realized cost —
    scalars only, picklable across the process pool.
    """
    from dataclasses import replace

    from ..experiments import paper_world
    from ..powermarket import (
        ClosedLoopConfig,
        line_outage,
        renewable_background,
    )
    from .endogenous import EndogenousPriceMiddleware
    from .engine import Engine

    seed = scenario.get("seed", 7)
    world = paper_world(scenario.get("policy_id", 1), seed=seed)
    if scenario.get("background", "reco") == "renewable":
        world.sites = [
            replace(
                site,
                background_mw=renewable_background(
                    site.background_mw.size,
                    (
                        max(0.8 * site.policy.breakpoints[0], 5.0)
                        if site.policy.breakpoints
                        else 80.0
                    ),
                    seed=seed + 100 + i,
                ),
            )
            for i, site in enumerate(world.sites)
        ]
    engine = Engine(world.sites, world.workload, world.mix)
    config = ClosedLoopConfig(
        damping=scenario.get("damping", 0.5),
        acceleration=scenario.get("acceleration", "relaxation"),
        max_iterations=scenario.get("max_iterations", 8),
        operators=scenario.get("operators", 1),
    )
    mutate = (
        line_outage(scenario["line_outage"])
        if scenario.get("line_outage")
        else None
    )
    middleware = EndogenousPriceMiddleware.for_engine(
        engine,
        grid=scenario.get("grid", "pjm5bus"),
        config=config,
        mutate=mutate,
    )
    budgeter = None
    if scenario.get("monthly_budget") is not None:
        budgeter = world.budgeter(scenario["monthly_budget"])
    result = engine.run(
        scenario.get("strategy", "capping"),
        budgeter=budgeter,
        hours=scenario.get("hours", 24),
        middleware=[middleware],
    )
    tel = get_telemetry()

    def total(name: str) -> float:
        metric = tel.registry.get(name) if tel.enabled else None
        return float(metric.value) if metric is not None else 0.0

    hours = len(result.hours)
    return {
        "hours": hours,
        "total_cost": float(sum(h.settled_cost for h in result.hours)),
        "iterations": total("closedloop.iterations"),
        "mean_iterations": total("closedloop.iterations") / max(1, hours),
        "converged_hours": total("closedloop.converged"),
        "convergence_rate": total("closedloop.converged") / max(1, hours),
        "oscillated_hours": total("closedloop.oscillated"),
        "fallback_hours": total("closedloop.fallback"),
    }
