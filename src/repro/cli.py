"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``lmp-sweep``
    Print the PJM five-bus LMP step curves (the paper's Figure 1).
``simulate`` (alias ``run``)
    Simulate any registered strategy over the paper world and print the
    summary. ``--faults SPEC`` runs the month under deterministic fault
    injection (stale prices, sensor dropout, solver failures, budgeter
    restarts) with graceful degradation instead of crashes — for every
    strategy, not just capping. ``--checkpoint PATH`` persists the run
    state each hour for ``repro resume``.
``resume``
    Continue a checkpointed ``simulate --checkpoint`` run from its last
    settled hour, bit-identically to an uninterrupted run.
``serve``
    Run the always-on streaming control plane: replayed or synthetic
    bursty λ/price ticks drive sub-hourly re-dispatch through the
    engine pipeline, decisions append to a JSONL log, and a thin
    HTTP/JSON API (``/status``, ``/decision``, ``/routing``, ...)
    serves the live state. ``--checkpoint`` persists every settled
    hour; after SIGTERM, ``serve --resume --checkpoint PATH`` continues
    with a byte-identical decision log.
``compare``
    Run several registered strategies side by side
    (``--strategies capping,min-only-avg,...``; defaults to Cost
    Capping plus the Min-Only baselines).
``tariffs``
    List the registered tariff components. ``simulate``, ``serve``,
    ``compare`` and ``sweep`` accept ``--tariff SPEC`` to settle the run
    against a multi-component tariff (e.g. ``energy+demand:rate=6``)
    instead of the paper's energy-only bill.
``headroom``
    LMPs plus single-solve load-growth headroom per consumer bus.
``study``
    Multi-seed robustness of the capping-vs-baseline savings.
``sweep``
    Grid sweep of one strategy over seeds x budget fractions via the
    scenario-sweep engine (``--workers`` fans scenarios over a process
    pool; solver counters merge back into ``--trace``).
``telemetry``
    Summarize (``summary``) or aggregate-export (``export``) a JSONL
    telemetry trace produced with ``--trace``.

The simulation commands (``simulate``, ``compare``, ``study``) accept
``--trace PATH``: the run then records spans and solver metrics and
writes a JSONL sidecar to ``PATH`` on completion.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

__all__ = ["main"]


@contextlib.contextmanager
def _tracing(args: argparse.Namespace):
    """Enable telemetry for a command when ``--trace PATH`` was given."""
    if getattr(args, "trace", None) is None:
        yield None
        return
    if not args.trace:
        raise SystemExit("error: --trace requires a non-empty path")
    from .telemetry import Telemetry, use_telemetry, write_jsonl

    tel = Telemetry()
    with use_telemetry(tel):
        yield tel
    # The run's results are already printed; a bad trace path must not
    # look like a failed simulation.
    try:
        path = write_jsonl(tel, args.trace)
    except OSError as exc:
        print(f"\ncannot write telemetry trace to {args.trace}: "
              f"{exc.strerror or exc}")
        return
    print(f"\ntelemetry trace written to {path} "
          f"({len(tel.tracer.finished)} spans, {len(tel.registry)} metrics)")


def _positive_mw(text: str) -> float:
    """argparse type for a load in MW: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _cmd_lmp_sweep(args: argparse.Namespace) -> int:
    from .powermarket import DcOpf, LOAD_SHARES, pjm5bus

    opf = DcOpf(pjm5bus())
    loads = np.arange(args.step, args.max_load + args.step / 2, args.step)
    sweep = opf.lmp_sweep(LOAD_SHARES, loads)
    print(f"{'system MW':>10} {'LMP B':>8} {'LMP C':>8} {'LMP D':>8}")
    for i, load in enumerate(loads):
        vals = [sweep[bus][i] for bus in ("B", "C", "D")]
        cells = " ".join(f"{v:8.2f}" if np.isfinite(v) else "     inf" for v in vals)
        print(f"{load:>10.0f} {cells}")
    return 0


def _build_world(args: argparse.Namespace):
    from .experiments import paper_world

    return paper_world(args.policy, seed=args.seed)


def _print_summary(name: str, result) -> None:
    s = result.summary()
    print(f"\n[{name}]")
    print(f"  total cost:          ${s['total_cost']:,.0f}")
    print(f"  mean hourly cost:    ${s['mean_hourly_cost']:,.0f}")
    print(f"  premium throughput:  {s['premium_throughput']:.2%}")
    print(f"  ordinary throughput: {s['ordinary_throughput']:.2%}")
    print(f"  hours over budget:   {int(s['hours_over_budget'])}")
    if s.get("degraded_hours"):
        print(f"  degraded hours:      {int(s['degraded_hours'])}")
    print(f"  peak power:          {s['peak_power_mw']:.1f} MW")


def _apply_solver_backend(args: argparse.Namespace) -> int | None:
    """Validate --solver-backend and export it to the optimizers.

    The name is published via ``REPRO_SOLVER_BACKEND`` so every
    optimizer constructed anywhere inside the run (strategies build
    their own) resolves it without threading a parameter through each
    layer. Returns an exit code on a bad name, None to proceed.
    """
    name = getattr(args, "solver_backend", None)
    if not name:
        return None
    from .solver.registry import backend_spec

    try:
        backend_spec(name)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    os.environ["REPRO_SOLVER_BACKEND"] = name
    return None


def _validate_tariff(args: argparse.Namespace) -> int | None:
    """Validate --tariff before any expensive work.

    Parses the spec once through :func:`repro.billing.make_ledger` so a
    typo'd component or parameter fails with the registry's error
    message instead of mid-run. Returns an exit code on a bad spec,
    None to proceed.
    """
    spec = getattr(args, "tariff", None)
    if spec is None:
        return None
    from .billing import make_ledger

    try:
        make_ledger(spec)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    return None


def _print_bill_components(hours) -> None:
    """Per-component bill totals for a settled run.

    Silent for energy-only runs (the component total would just repeat
    the headline cost); any other tariff gets one line per component
    plus the settled total.
    """
    totals: dict[str, float] = {}
    settled = 0.0
    for h in hours:
        for item in h.line_items:
            totals[item.component] = totals.get(item.component, 0.0) + item.amount
            settled += item.amount
    if set(totals) <= {"energy"}:
        return
    breakdown = " + ".join(
        f"{name} ${totals[name]:,.0f}" for name in sorted(totals)
    )
    print(f"  settled bill:        ${settled:,.0f} ({breakdown})")


def _cmd_tariffs(args: argparse.Namespace) -> int:
    """List the registered tariff components (mirrors ``repro solvers``)."""
    from .billing import DEFAULT_TARIFF, available_tariffs, get_tariff

    names = available_tariffs()
    width = max(len("component"), *(len(n) for n in names))
    rows = []
    for name in names:
        component = get_tariff(name)
        doc = (type(component).__doc__ or "").strip().splitlines()
        desc = doc[0].rstrip(".") if doc else ""
        if name == DEFAULT_TARIFF:
            desc += " (default)"
        rows.append((name, desc))
    print(f"{'component':<{width}}  description")
    for name, desc in rows:
        print(f"{name:<{width}}  {desc}")
    print("\ncompose specs with '+', parameters with ':key=value,...' — "
          "e.g. --tariff energy+demand:rate=6,cycle=168")
    return 0


def _cmd_solvers(args: argparse.Namespace) -> int:
    """List the registered solver backends with capability flags."""
    from .solver.registry import available_backends, backend_spec

    names = available_backends()
    width = max(len(n) for n in names)
    flag_names = ("milp", "warm_start", "sparse", "dispatch")
    rows = []
    for name in names:
        spec = backend_spec(name)
        flags = ",".join(f for f in flag_names if getattr(spec, f)) or "-"
        rows.append((name, flags, spec.description))
    fwidth = max(len(f) for _, f, _ in rows)
    print(f"{'backend':<{width}}  {'capabilities':<{fwidth}}  description")
    for name, flags, desc in rows:
        print(f"{name:<{width}}  {flags:<{fwidth}}  {desc}")
    return 0


def _endogenous_runtime(args: argparse.Namespace, engine):
    """Build the closed-loop pricing runtime when the flag is set.

    Returns ``None`` when ``--endogenous-prices`` is off, keeping the
    exogenous pipeline byte-identical (no closed-loop objects are even
    constructed).
    """
    if not getattr(args, "endogenous_prices", False):
        return None
    from .powermarket import ClosedLoopConfig, get_grid
    from .sim.endogenous import EndogenousPrices

    try:
        grid = get_grid(args.grid)
        config = ClosedLoopConfig(damping=args.damping)
        return EndogenousPrices(engine, grid=grid, config=config)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import Engine, get_strategy, resolve_monthly_budget

    code = _apply_solver_backend(args) or _validate_tariff(args)
    if code is not None:
        return code

    faults = None
    degradation = None
    if args.faults:
        from .resilience import DegradationPolicy, FaultInjector, FaultSpec

        try:
            spec = FaultSpec.parse(args.faults)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        faults = FaultInjector(spec)
        degradation = DegradationPolicy(args.degradation)
    world = _build_world(args)
    engine = Engine(world.sites, world.workload, world.mix)
    strategy = get_strategy(args.strategy)
    budgeter = None
    if args.budget_fraction is not None:
        if not strategy.wants_budget:
            print(f"note: {args.strategy} is a price taker; "
                  "--budget-fraction has no effect")
        else:
            # The anchor run is untraced on purpose: it exists only to
            # scale the budget, and would double every solver metric.
            monthly = resolve_monthly_budget(
                world, args.budget_fraction, hours=args.hours, engine=engine
            )
            print(f"monthly budget: ${monthly:,.0f} "
                  f"({args.budget_fraction:.0%} of uncapped spend)")
            budgeter = world.budgeter(monthly)
    meta = None
    if args.checkpoint:
        # Everything 'repro resume' needs to rebuild the same world.
        meta = {"policy": args.policy, "seed": args.seed}
    middleware = None
    runtime = _endogenous_runtime(args, engine)
    if runtime is not None:
        from .sim.endogenous import EndogenousPriceMiddleware

        middleware = [EndogenousPriceMiddleware(runtime)]
        print(f"endogenous prices: grid={args.grid} "
              f"damping={args.damping:g}")
    with _tracing(args):
        result = engine.run(
            strategy,
            budgeter=budgeter,
            hours=args.hours,
            faults=faults,
            degradation=degradation,
            tariff=args.tariff,
            checkpoint_path=args.checkpoint or None,
            checkpoint_meta=meta,
            middleware=middleware,
        )
    _print_summary(args.strategy, result)
    _print_bill_components(result.hours)
    if args.checkpoint:
        print(f"  checkpoint:          {args.checkpoint} "
              f"(resume with 'repro resume {args.checkpoint}')")
    if faults is not None:
        injected = {
            k: v for k, v in faults.schedule_counts(args.hours).items() if v
        }
        print(f"  injected faults:     "
              + (", ".join(f"{k}={v}" for k, v in injected.items()) or "none")
              + f" (policy={degradation.value})")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .experiments import paper_world
    from .sim import Engine

    try:
        payload = Engine.load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        print(f"error: {getattr(exc, 'strerror', None) or exc}")
        return 2
    meta = payload.get("meta") or {}
    world = paper_world(meta.get("policy", 1), seed=meta.get("seed", 7))
    engine = Engine(world.sites, world.workload, world.mix)
    done = payload["next_hour"]
    horizon = args.hours if args.hours is not None else payload["horizon"]
    print(f"resuming {payload['strategy']} from {args.checkpoint}: "
          f"{done}/{horizon} hours already settled")
    with _tracing(args):
        result = engine.resume(args.checkpoint, hours=args.hours)
    _print_summary(payload["strategy"], result)
    _print_bill_components(result.hours)
    return 0


def _serve_fresh(args: argparse.Namespace):
    """Build (loop, ticks, world, meta, start_tick, logged) for a new run."""
    from .experiments import paper_world
    from .resilience import DegradationPolicy
    from .service import ControlLoop, TriggerPolicy, build_ticks
    from .sim import Engine, get_strategy, resolve_monthly_budget
    from .workload import read_trace_csv

    world = paper_world(args.policy, seed=args.seed)
    engine = Engine(world.sites, world.workload, world.mix)
    lam_trace = (
        read_trace_csv(args.trace_file) if args.trace_file
        else world.workload
    )
    hours = min(args.hours, lam_trace.hours, world.hours)
    if hours < args.hours:
        print(f"note: horizon clipped to {hours} h (trace length)")
    site_names = [s.name for s in world.sites]
    source = {
        "kind": args.source,
        "ticks_per_hour": args.ticks_per_hour,
        "hours": hours,
        "seed": args.tick_seed,
        "jitter": args.jitter,
        "ca2": args.ca2,
        "price_jitter": args.price_jitter,
        "sites": site_names if args.price_jitter > 0 else [],
        "trace_file": args.trace_file or None,
    }
    ticks = build_ticks(lam_trace, source)
    strategy = get_strategy(args.strategy)
    budgeter = None
    monthly = args.monthly_budget
    if monthly is None and args.budget_fraction is not None:
        if not strategy.wants_budget:
            print(f"note: {args.strategy} is a price taker; "
                  "--budget-fraction has no effect")
        else:
            monthly = resolve_monthly_budget(
                world, args.budget_fraction, hours=hours, engine=engine
            )
            print(f"monthly budget: ${monthly:,.0f} "
                  f"({args.budget_fraction:.0%} of uncapped spend)")
    if monthly is not None and strategy.wants_budget:
        budgeter = world.budgeter(monthly)
    loop = ControlLoop(
        engine,
        strategy,
        trigger=TriggerPolicy(
            lambda_delta=args.lambda_delta,
            price_delta=args.price_delta,
            debounce_s=args.debounce,
            max_staleness_s=args.max_staleness,
        ),
        budgeter=budgeter,
        hours=hours,
        degradation=DegradationPolicy(args.degradation),
        endogenous=_endogenous_runtime(args, engine),
        tariff=args.tariff,
    )
    meta = {
        "policy": args.policy,
        "seed": args.seed,
        "decision_log": str(args.decision_log),
        "monthly_budget": monthly,
        "source": source,
    }
    return loop, ticks, world, meta, 0, 0


def _serve_resumed(args: argparse.Namespace):
    """Rebuild the service state from a ``serve --checkpoint`` file."""
    from .experiments import paper_world
    from .service import (
        build_ticks,
        load_service_checkpoint,
        restore_loop,
        truncate_jsonl,
    )
    from .sim import Engine
    from .workload import read_trace_csv

    payload = load_service_checkpoint(args.checkpoint)
    if payload["loop"]["settled_hours"] >= payload["horizon"]:
        raise ValueError(
            f"checkpoint {args.checkpoint} already covers its whole "
            f"{payload['horizon']} h horizon; nothing left to serve"
        )
    meta = payload["meta"]
    world = paper_world(meta["policy"], seed=meta["seed"])
    engine = Engine(world.sites, world.workload, world.mix)
    source = meta["source"]
    lam_trace = (
        read_trace_csv(source["trace_file"]) if source.get("trace_file")
        else world.workload
    )
    ticks = build_ticks(lam_trace, source)
    loop = restore_loop(engine, payload)
    loop.endogenous = _endogenous_runtime(args, engine)
    kept = truncate_jsonl(meta["decision_log"], payload["decisions_logged"])
    print(f"resuming {payload['strategy']} from {args.checkpoint}: "
          f"{payload['loop']['settled_hours']}/{payload['horizon']} hours "
          f"settled, {kept} decisions kept in {meta['decision_log']}")
    return loop, ticks, world, meta, payload["next_tick"], kept


def _serve_sharded(args: argparse.Namespace) -> int:
    """The ``--workers N`` / shard-checkpoint path: the multi-process
    sharded control plane (:mod:`repro.service.shard`)."""
    import asyncio

    from .service import ShardedControlPlane
    from .service.shard import build_world
    from .sim import Engine, get_strategy, resolve_monthly_budget
    from .telemetry import Telemetry, use_telemetry

    if getattr(args, "endogenous_prices", False):
        print("error: --endogenous-prices is not supported with --workers "
              "(endogenous LMPs couple regions within the hour)")
        return 2
    try:
        if args.resume:
            service = ShardedControlPlane.resume(
                args.checkpoint,
                workers=args.workers,
                host=args.host,
                port=args.port,
                http=not args.no_http,
                pace_s_per_hour=args.pace,
            )
            print(f"resuming {service.spec['strategy']} from "
                  f"{args.checkpoint}: "
                  f"{service.coordinator.settled_hours}/"
                  f"{service.coordinator.horizon} hours settled, "
                  f"{service.n_workers} workers")
        else:
            n_sites = args.sites
            if n_sites is not None and n_sites != 3:
                world_spec = {"kind": "scaled", "sites": n_sites,
                              "policy": args.policy, "seed": args.seed}
            else:
                world_spec = {"kind": "paper", "policy": args.policy,
                              "seed": args.seed}
            world = build_world(world_spec)
            engine = Engine(world.sites, world.workload, world.mix)
            hours = min(args.hours, world.hours)
            if args.trace_file:
                from .workload import read_trace_csv

                hours = min(hours, read_trace_csv(args.trace_file).hours)
            if hours < args.hours:
                print(f"note: horizon clipped to {hours} h (trace length)")
            site_names = [s.name for s in world.sites]
            strategy = get_strategy(args.strategy)
            monthly = args.monthly_budget
            if monthly is None and args.budget_fraction is not None:
                if not strategy.wants_budget:
                    print(f"note: {args.strategy} is a price taker; "
                          "--budget-fraction has no effect")
                else:
                    monthly = resolve_monthly_budget(
                        world, args.budget_fraction, hours=hours,
                        engine=engine,
                    )
                    print(f"monthly budget: ${monthly:,.0f} "
                          f"({args.budget_fraction:.0%} of uncapped spend)")
            spec = {
                "world": world_spec,
                "source": {
                    "kind": args.source,
                    "ticks_per_hour": args.ticks_per_hour,
                    "hours": hours,
                    "seed": args.tick_seed,
                    "jitter": args.jitter,
                    "ca2": args.ca2,
                    "price_jitter": args.price_jitter,
                    "sites": site_names if args.price_jitter > 0 else [],
                    "trace_file": args.trace_file or None,
                },
                "strategy": args.strategy,
                "trigger": {
                    "lambda_delta": args.lambda_delta,
                    "price_delta": args.price_delta,
                    "debounce_s": args.debounce,
                    "max_staleness_s": args.max_staleness,
                },
                "degradation": args.degradation,
                "horizon": hours,
                "monthly_budget": (
                    monthly if strategy.wants_budget else None
                ),
                "tariff": args.tariff,
            }
            service = ShardedControlPlane(
                spec,
                workers=args.workers,
                decision_log=args.decision_log,
                checkpoint_path=args.checkpoint or None,
                host=args.host,
                port=args.port,
                http=not args.no_http,
                pace_s_per_hour=args.pace,
            )
    except (OSError, ValueError) as exc:
        print(f"error: {getattr(exc, 'strerror', None) or exc}")
        return 2

    async def _run() -> dict:
        if service.http_server is not None:
            await service.http_server.start()
            print(f"serving http://{args.host}:{service.port} "
                  f"(/healthz /status /decision /decisions/stream "
                  f"/regions /hours /telemetry)",
                  flush=True)
        return await service.run_async()

    with use_telemetry(Telemetry()):
        summary = asyncio.run(_run())

    print(f"\n[serve {summary['strategy']} "
          f"x{summary['workers']} workers, {summary['regions']} regions]")
    print(f"  hours settled:       {summary['hours']}"
          f"/{service.coordinator.horizon}")
    print(f"  decisions:           {summary['decisions']}")
    print(f"  total cost:          ${summary['total_cost']:,.0f}")
    print(f"  premium throughput:  {summary['premium_throughput']:.2%}")
    print(f"  ordinary throughput: {summary['ordinary_throughput']:.2%}")
    print(f"  hours over budget:   {summary['hours_over_budget']}")
    if summary["merged_log_lines"] is not None:
        print(f"  decision log:        {service.decision_log} "
              f"({summary['merged_log_lines']} lines merged)")
    for wid, msg in summary["worker_errors"].items():
        print(f"  worker {wid} error:    {msg}")
    if summary["stopped"]:
        where = f" --checkpoint {args.checkpoint}" if args.checkpoint else ""
        print(f"  stopped by signal; resume with 'repro serve --resume{where}'")
    return 1 if summary["worker_errors"] else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .routing import ResolverPopulation, WeightedDnsDispatcher
    from .service import ControlPlaneService
    from .telemetry import RotatingJsonlWriter, Telemetry, use_telemetry

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint")
        return 2
    code = _apply_solver_backend(args) or _validate_tariff(args)
    if code is not None:
        return code
    if args.resume and args.tariff is not None:
        print("note: --resume reads the tariff from the checkpoint; "
              "--tariff ignored")
    if args.resume:
        # The checkpoint kind decides which plane resumes it — a shard
        # checkpoint resumes sharded whether or not --workers is given.
        from .resilience import read_json

        try:
            kind = read_json(args.checkpoint).get("kind")
        except (OSError, ValueError) as exc:
            print(f"error: {getattr(exc, 'strerror', None) or exc}")
            return 2
        if kind == "shard-run":
            return _serve_sharded(args)
    elif args.workers is not None:
        return _serve_sharded(args)
    if args.workers is not None:
        print("note: this checkpoint is a single-process run; "
              "--workers ignored")
    try:
        loop, ticks, world, meta, start_tick, logged = (
            _serve_resumed(args) if args.resume else _serve_fresh(args)
        )
    except (OSError, ValueError) as exc:
        print(f"error: {getattr(exc, 'strerror', None) or exc}")
        return 2
    dns = WeightedDnsDispatcher(
        [s.name for s in world.sites],
        ResolverPopulation(ttl_s=args.dns_ttl),
        seed=meta["seed"],
    )
    writer = (
        RotatingJsonlWriter(args.telemetry) if args.telemetry else None
    )
    service = ControlPlaneService(
        loop,
        ticks,
        host=args.host,
        port=args.port,
        http=not args.no_http,
        decision_log=meta["decision_log"],
        checkpoint_path=args.checkpoint or None,
        meta=meta,
        pace_s_per_hour=args.pace,
        dns=dns,
        telemetry_writer=writer,
        start_tick=start_tick,
        decisions_logged=logged,
        sse=args.sse,
    )

    async def _run() -> dict:
        if service.http_server is not None:
            # Bind before replay starts so the port line is printed
            # (and parseable by scripts) ahead of any decision work.
            await service.http_server.start()
            stream = " /decisions/stream" if args.sse else ""
            print(f"serving http://{args.host}:{service.port} "
                  f"(/healthz /status /decision{stream} /routing /hours "
                  f"/telemetry)",
                  flush=True)
        return await service.run()

    tel = Telemetry() if args.telemetry else None
    if tel is not None:
        with use_telemetry(tel):
            summary = asyncio.run(_run())
    else:
        summary = asyncio.run(_run())

    print(f"\n[serve {summary['strategy']}]")
    print(f"  hours settled:       {summary['hours']}/{loop.horizon}")
    print(f"  decisions:           {summary['decisions']} "
          f"({summary['ticks']} ticks)")
    print(f"  total cost:          ${summary['total_cost']:,.0f}")
    print(f"  premium throughput:  {summary['premium_throughput']:.2%}")
    print(f"  ordinary throughput: {summary['ordinary_throughput']:.2%}")
    print(f"  hours over budget:   {summary['hours_over_budget']}")
    if summary["stopped"]:
        where = f" --checkpoint {args.checkpoint}" if args.checkpoint else ""
        print(f"  stopped by signal; resume with 'repro serve --resume{where}'")
    if args.telemetry and writer is not None:
        print(f"  telemetry:           {args.telemetry} "
              f"({writer.records_written} records, "
              f"{writer.rotations} rotations)")
    return 0


def _cmd_headroom(args: argparse.Namespace) -> int:
    from .powermarket import DcOpf, LOAD_BUSES, pjm5bus

    opf = DcOpf(pjm5bus())
    loads = {b: args.load / 3.0 for b in LOAD_BUSES}
    base = opf.dispatch(loads)
    if not base.feasible:
        print(f"system load {args.load} MW is infeasible")
        return 1
    print(f"PJM 5-bus at {args.load:.0f} MW system load "
          f"({args.load / 3:.0f} MW per consumer bus):")
    print(f"{'bus':>4} {'LMP $/MWh':>10} {'headroom MW':>12}")
    for bus in LOAD_BUSES:
        headroom = opf.load_growth_headroom(loads, bus)
        print(f"{bus:>4} {base.lmp_at(bus):>10.2f} {headroom:>12.2f}")
    print("\nheadroom = extra load at that bus alone before any LMP can "
          "change\n(single-solve simplex RHS ranging; conservative)")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .sim import savings_study

    with _tracing(args):
        study = savings_study(
            seeds=tuple(range(args.seeds)),
            hours=args.hours,
            policy_id=args.policy,
        )
    print(study)
    print(
        f"\nCost Capping beats Min-Only (Avg) on "
        f"{(study.values > 0).sum()}/{study.values.size} seeds."
    )
    return 0


def _report_comparison(ordered: "dict[str, object]") -> None:
    """Print per-strategy summaries plus savings vs the capping run."""
    reference = ordered.get("capping")
    for name, res in ordered.items():
        label = "cost-capping (uncapped)" if name == "capping" else name
        _print_summary(label, res)
        _print_bill_components(res.hours)
        if reference is not None and name != "capping":
            saving = 1 - reference.total_cost / res.total_cost
            print(f"  -> capping saves {saving:.1%} vs this baseline")


def _cmd_compare(args: argparse.Namespace) -> int:
    from .sim import STRATEGIES, available_strategies

    code = _apply_solver_backend(args) or _validate_tariff(args)
    if code is not None:
        return code
    if args.strategies is None:
        strategies = list(STRATEGIES)
    else:
        strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
        known = available_strategies()
        unknown = [s for s in strategies if s not in known]
        if not strategies:
            print("error: --strategies needs at least one name")
            return 2
        if unknown:
            print(f"error: unknown strategies {unknown}; "
                  f"expected among {known}")
            return 2
    workers = args.workers
    if workers > 1 and args.trace is not None:
        # Telemetry is recorded in-process; a fanned-out run would
        # produce an empty trace. Tracing wins.
        print("--trace requires in-process runs; ignoring --workers")
        workers = 1
    if workers > 1:
        from .sim import compare_strategies

        results = compare_strategies(
            policy_id=args.policy,
            seed=args.seed,
            hours=args.hours,
            strategies=strategies,
            workers=workers,
            tariff=args.tariff,
        )
        _report_comparison({name: results[name] for name in strategies})
        return 0

    # Serial path: one engine, every strategy resolved through the
    # registry, all sharing the world's memoized snapshots — and the
    # whole comparison inside one trace when --trace is given.
    from .sim import Engine, get_strategy

    world = _build_world(args)
    engine = Engine(world.sites, world.workload, world.mix)
    with _tracing(args):
        results = {
            name: engine.run(
                get_strategy(name), hours=args.hours, tariff=args.tariff
            )
            for name in strategies
        }
        _report_comparison(results)
    return 0


def _sweep_tariff_axis(args: argparse.Namespace) -> "list[str | None] | int":
    """The sweep's tariff axis from --tariff/--demand-rates/--cycle-hours.

    Without either axis flag the axis is the single base spec (--tariff,
    possibly None = default energy). Each demand rate x cycle length
    otherwise appends a parameterized ``demand`` component to the base
    spec; the rate token 'none' keeps an energy-only scenario in the
    grid as the comparison point. Returns an exit code on a bad value.
    """
    base = args.tariff or "energy"
    rates: list[float | None] | None = None
    if args.demand_rates is not None:
        rates = []
        for token in args.demand_rates.split(","):
            token = token.strip()
            if not token:
                continue
            if token.lower() in ("none", "energy"):
                rates.append(None)
                continue
            try:
                value = float(token)
            except ValueError:
                print(f"error: bad demand rate {token!r}")
                return 2
            if value < 0.0:
                print(f"error: demand rates must be >= 0, got {token}")
                return 2
            rates.append(value)
        if not rates:
            print("error: --demand-rates needs at least one value")
            return 2
    cycles: list[int] | None = None
    if args.cycle_hours is not None:
        cycles = []
        for token in args.cycle_hours.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                value = int(token)
            except ValueError:
                print(f"error: bad billing-cycle length {token!r}")
                return 2
            if value < 1:
                print(f"error: cycle hours must be >= 1, got {token}")
                return 2
            cycles.append(value)
        if not cycles:
            print("error: --cycle-hours needs at least one value")
            return 2
    if rates is None and cycles is None:
        return [args.tariff]
    tariffs: list[str | None] = []
    for rate in rates if rates is not None else [None]:
        if rate is None and rates is not None:
            # 'none': the energy-only comparison point, once.
            if base not in tariffs:
                tariffs.append(base)
            continue
        for cycle in cycles if cycles is not None else [None]:
            params = []
            if rate is not None:
                params.append(f"rate={rate:g}")
            if cycle is not None:
                params.append(f"cycle={cycle}")
            spec = f"{base}+demand"
            if params:
                spec += ":" + ",".join(params)
            tariffs.append(spec)
    return tariffs


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sim.sweep import run_sweep, strategy_metric, sweep_grid

    code = _apply_solver_backend(args) or _validate_tariff(args)
    if code is not None:
        return code
    tariffs = _sweep_tariff_axis(args)
    if isinstance(tariffs, int):
        return tariffs
    from .billing import make_ledger

    for spec in tariffs:
        try:
            make_ledger(spec)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    fractions: list[float | None] = []
    for token in args.budget_fractions.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("none", "uncapped"):
            fractions.append(None)
            continue
        try:
            value = float(token)
        except ValueError:
            print(f"error: bad budget fraction {token!r}")
            return 2
        if value <= 0.0:
            print(f"error: budget fractions must be positive, got {token}")
            return 2
        fractions.append(value)
    if not fractions:
        print("error: --budget-fractions needs at least one value")
        return 2
    if args.seeds < 1:
        print("error: --seeds must be >= 1")
        return 2

    scenarios = sweep_grid(
        seed=[args.seed + i for i in range(args.seeds)],
        budget_fraction=fractions,
        tariff=tariffs,
    )
    for sc in scenarios:
        sc.update(
            strategy=args.strategy, policy_id=args.policy, hours=args.hours
        )
    with _tracing(args):
        results = run_sweep(strategy_metric, scenarios, workers=args.workers)

    multi_tariff = len(tariffs) > 1
    axes = f"{args.seeds} seeds x {len(fractions)} budgets"
    if multi_tariff:
        axes += f" x {len(tariffs)} tariffs"
    print(f"{len(scenarios)} scenarios ({axes}), "
          f"strategy={args.strategy}, {args.hours}h, "
          f"workers={args.workers}")
    twidth = max(len(t or "energy") for t in tariffs) if multi_tariff else 0
    tariff_head = f" {'tariff':<{twidth}}" if multi_tariff else ""
    peak_head = f" {'peak MW':>8}" if multi_tariff else ""
    print(f"{'seed':>6} {'budget':>8} {'total $':>14} {'premium':>8} "
          f"{'ordinary':>9} {'over':>5}" + peak_head + tariff_head)
    for sc, res in zip(scenarios, results):
        s = res.summary()
        frac = (
            "   -" if sc["budget_fraction"] is None
            else f"{sc['budget_fraction']:.2f}"
        )
        # Under multi-component tariffs the headline cost is the full
        # settled bill; energy-only settles identically to total_cost.
        total = sum(h.settled_cost for h in res.hours)
        extra = ""
        if multi_tariff:
            extra = (f" {s['peak_power_mw']:>8.1f}"
                     f" {sc['tariff'] or 'energy':<{twidth}}")
        print(f"{sc['seed']:>6} {frac:>8} {total:>14,.0f} "
              f"{s['premium_throughput']:>8.2%} "
              f"{s['ordinary_throughput']:>9.2%} "
              f"{int(s['hours_over_budget']):>5}" + extra)
    return 0


def _read_trace(path: str):
    """Read a trace file for the ``telemetry`` subcommands.

    Returns the snapshot, or ``None`` (after printing a one-line error)
    when the file is missing or is not JSONL.
    """
    import json

    from .telemetry import read_jsonl

    try:
        return read_jsonl(path)
    except OSError as exc:
        print(f"cannot read trace file {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        print(f"{path} is not a JSONL telemetry trace (line {exc.lineno}: {exc.msg})")
    return None


def _cmd_telemetry_summary(args: argparse.Namespace) -> int:
    from .telemetry import format_summary

    snap = _read_trace(args.trace_file)
    if snap is None:
        return 1
    if snap.empty:
        print("(no telemetry recorded)")
        return 1
    print(format_summary(snap))
    return 0


def _cmd_telemetry_export(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .telemetry import summarize

    snap = _read_trace(args.trace_file)
    if snap is None:
        return 1
    payload = json.dumps(summarize(snap), indent=2, sort_keys=True)
    if args.out:
        pathlib.Path(args.out).write_text(payload + "\n")
        print(f"aggregate summary written to {args.out}")
    else:
        print(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Strategy choices come from the registry, so a newly registered
    # strategy is immediately addressable from every command.
    from .sim.registry import available_strategies

    strategy_names = available_strategies()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Electricity bill capping for cloud-scale data centers "
        "(ICPP 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lmp = sub.add_parser("lmp-sweep", help="PJM 5-bus LMP step curves (Fig. 1)")
    p_lmp.add_argument("--max-load", type=_positive_mw, default=900.0)
    p_lmp.add_argument("--step", type=_positive_mw, default=25.0)
    p_lmp.set_defaults(func=_cmd_lmp_sweep)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--policy", type=int, default=1, choices=(0, 1, 2, 3))
    common.add_argument("--hours", type=int, default=168)
    common.add_argument("--seed", type=int, default=7)
    common.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record telemetry (spans + solver metrics) and write a "
        "JSONL trace to PATH; inspect with 'repro telemetry summary PATH'",
    )
    common.add_argument(
        "--solver-backend",
        metavar="NAME",
        default=None,
        help="registered solver backend for the dispatch optimizers "
        "(see 'repro solvers'); 'decomposition' enables the "
        "region-decomposed large-fleet path explicitly",
    )

    tariff = argparse.ArgumentParser(add_help=False)
    tariff.add_argument(
        "--tariff",
        metavar="SPEC",
        default=None,
        help="tariff the run settles against: '+'-joined registered "
        "components, each optionally parameterized — e.g. 'energy' "
        "(default, the paper's bill) or 'energy+demand:rate=6,cycle=168' "
        "(see 'repro tariffs')",
    )

    endo = argparse.ArgumentParser(add_help=False)
    endo.add_argument(
        "--endogenous-prices",
        action="store_true",
        help="close the loop: after each hour's dispatch, re-run the "
        "DC-OPF with the fleet's realized power injected, regenerate "
        "the stepped price curves from the fresh LMPs, and iterate to "
        "a damped fixed point (bills the hour at the endogenous "
        "prices; off = exogenous curves, bit-identical to before)",
    )
    endo.add_argument(
        "--grid",
        metavar="NAME",
        default="pjm5bus",
        help="registered grid for the closed-loop OPF (see "
        "repro.powermarket.available_grids; default: pjm5bus)",
    )
    endo.add_argument(
        "--damping",
        type=float,
        default=0.5,
        metavar="BETA",
        help="relaxation weight of the dispatch<->OPF fixed point in "
        "(0, 1]; 1.0 is the undamped best response, which can "
        "oscillate across congestion steps (default: 0.5)",
    )

    p_sim = sub.add_parser(
        "simulate", aliases=["run"], parents=[common, endo, tariff],
        help="run one registered strategy",
    )
    p_sim.add_argument(
        "--strategy",
        default="capping",
        choices=strategy_names,
    )
    p_sim.add_argument(
        "--budget-fraction",
        type=float,
        default=None,
        help="monthly budget as a fraction of the uncapped spend "
        "(budget-aware strategies only; omit for pure cost minimization)",
    )
    p_sim.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection, e.g. "
        "'price_stale=0.1,solver_error=0.05,budget_loss=0.02,seed=3' "
        "(channels: price_stale, sensor_dropout, solver_error, "
        "solver_timeout, budget_loss; applies to every strategy)",
    )
    p_sim.add_argument(
        "--degradation",
        default="proportional",
        choices=("hold-last", "proportional", "premium-shed"),
        help="dispatch policy for hours whose solver stack fails "
        "(used with --faults; also applies to genuine solver failures)",
    )
    p_sim.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="persist the run state to PATH (atomic write) after every "
        "settled hour; continue a killed run with 'repro resume PATH'",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_res = sub.add_parser(
        "resume", help="continue a checkpointed simulate run"
    )
    p_res.add_argument(
        "checkpoint", help="checkpoint file from 'simulate --checkpoint'"
    )
    p_res.add_argument(
        "--hours",
        type=int,
        default=None,
        help="override the stored horizon (extend or shorten the run)",
    )
    p_res.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record telemetry for the resumed hours and write a JSONL "
        "trace to PATH",
    )
    p_res.set_defaults(func=_cmd_resume)

    # serve has its own argument set (not the `common` parent: its
    # --trace telemetry flag would collide with serve's streaming
    # telemetry, and half the shared knobs live in the checkpoint).
    p_srv = sub.add_parser(
        "serve", parents=[endo, tariff],
        help="run the streaming control plane (sub-hourly "
        "re-dispatch, HTTP API, checkpointed)"
    )
    p_srv.add_argument("--policy", type=int, default=1, choices=(0, 1, 2, 3))
    p_srv.add_argument("--seed", type=int, default=7, help="world RNG seed")
    p_srv.add_argument("--hours", type=int, default=24)
    p_srv.add_argument(
        "--strategy", default="capping",
        help="registered dispatch strategy (default: capping)",
    )
    p_srv.add_argument(
        "--budget-fraction", type=float, default=None,
        help="monthly budget as a fraction of uncapped spend "
        "(runs the anchor simulation once)",
    )
    p_srv.add_argument(
        "--monthly-budget", type=float, default=None,
        help="monthly budget in dollars (skips the anchor run)",
    )
    p_srv.add_argument(
        "--source", choices=("replay", "bursty"), default="replay",
        help="tick source: replay the hourly trace or synthesize "
        "hyperexponential bursts",
    )
    p_srv.add_argument(
        "--trace-file", default=None,
        help="CSV workload trace to replay (default: the world's month)",
    )
    p_srv.add_argument("--ticks-per-hour", type=int, default=12)
    p_srv.add_argument(
        "--tick-seed", type=int, default=0, help="tick-stream RNG seed"
    )
    p_srv.add_argument(
        "--jitter", type=float, default=0.02,
        help="relative lambda noise for --source replay",
    )
    p_srv.add_argument(
        "--ca2", type=float, default=4.0,
        help="burst CA2 for --source bursty (must be > 1)",
    )
    p_srv.add_argument(
        "--price-jitter", type=float, default=0.0,
        help="per-site price-feed random-walk step (0 disables price ticks)",
    )
    p_srv.add_argument(
        "--lambda-delta", type=float, default=0.05,
        help="relative lambda change that triggers re-dispatch",
    )
    p_srv.add_argument(
        "--price-delta", type=float, default=0.05,
        help="relative price-scale change that triggers re-dispatch",
    )
    p_srv.add_argument(
        "--debounce", type=float, default=120.0,
        help="minimum seconds between delta-triggered dispatches",
    )
    p_srv.add_argument(
        "--max-staleness", type=float, default=900.0,
        help="refresh any dispatch older than this many seconds",
    )
    p_srv.add_argument(
        "--degradation", default="proportional",
        choices=("proportional", "hold-last", "premium-shed"),
        help="solver-failure fallback policy",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=0,
        help="HTTP port (0 = ephemeral; the bound port is printed)",
    )
    p_srv.add_argument(
        "--no-http", action="store_true", help="disable the HTTP API"
    )
    p_srv.add_argument(
        "--decision-log", default="service_decisions.jsonl",
        help="JSONL file appended with one line per dispatch decision",
    )
    p_srv.add_argument(
        "--checkpoint", default=None,
        help="checkpoint file written at every settled hour",
    )
    p_srv.add_argument(
        "--resume", action="store_true",
        help="continue from --checkpoint (world/source/trigger settings "
        "are read from the checkpoint, not the command line)",
    )
    p_srv.add_argument(
        "--pace", type=float, default=0.0,
        help="wall seconds per simulated hour (0 = replay at full speed)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard the control plane across N worker processes (one "
        "market region per control loop, hourly budget barrier); "
        "omit for the single-process service",
    )
    p_srv.add_argument(
        "--sse", action="store_true",
        help="serve the /decisions/stream server-sent-events endpoint "
        "and the /decision?since= long-poll (always on with --workers)",
    )
    p_srv.add_argument(
        "--sites", type=int, default=None, metavar="M",
        help="with --workers: number of sites (default 3 = the paper "
        "world; more cycles the Section VI-A specs into extra regions)",
    )
    p_srv.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="stream spans/metrics to a size-rotated JSONL file",
    )
    p_srv.add_argument(
        "--dns-ttl", type=float, default=300.0,
        help="resolver TTL for the realized-routing model",
    )
    p_srv.add_argument(
        "--solver-backend",
        metavar="NAME",
        default=None,
        help="registered solver backend for the dispatch optimizers "
        "(see 'repro solvers')",
    )
    p_srv.set_defaults(func=_cmd_serve)

    p_sol = sub.add_parser(
        "solvers", help="list the registered solver backends"
    )
    p_sol.set_defaults(func=_cmd_solvers)

    p_trf = sub.add_parser(
        "tariffs", help="list the registered tariff components"
    )
    p_trf.set_defaults(func=_cmd_tariffs)

    p_cmp = sub.add_parser(
        "compare", parents=[common, tariff], help="capping vs all baselines"
    )
    p_cmp.add_argument(
        "--strategies",
        metavar="NAMES",
        default=None,
        help="comma-separated registered strategies to compare "
        f"(default: {','.join(('capping', 'min-only-avg', 'min-only-low', 'min-only-current'))}; "
        f"registered: {', '.join(strategy_names)})",
    )
    p_cmp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run the strategies in a process pool of this size "
        "(they are independent given the world; incompatible with --trace)",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common, tariff],
        help="grid sweep of one strategy over seeds x budget fractions "
        "(x demand-charge tariffs)",
    )
    p_sweep.add_argument(
        "--strategy",
        default="capping",
        choices=strategy_names,
    )
    p_sweep.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="number of consecutive seeds starting at --seed",
    )
    p_sweep.add_argument(
        "--budget-fractions",
        default="none,0.95,0.85",
        help="comma-separated monthly budgets as fractions of the "
        "uncapped spend; 'none' runs uncapped (capping only)",
    )
    p_sweep.add_argument(
        "--demand-rates",
        metavar="RATES",
        default=None,
        help="comma-separated demand-charge rates ($/kW of billing-cycle "
        "peak) appended to the base --tariff as a tariff axis; 'none' "
        "keeps an energy-only scenario as the comparison point",
    )
    p_sweep.add_argument(
        "--cycle-hours",
        metavar="HOURS",
        default=None,
        help="comma-separated billing-cycle lengths (hours) for the "
        "demand-charge axis (default: the component's 720 h month)",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="evaluate scenarios in a process pool of this size; "
        "telemetry counters are merged back into --trace either way",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_head = sub.add_parser(
        "headroom", help="LMPs + load-growth headroom on the 5-bus system"
    )
    p_head.add_argument("--load", type=float, default=450.0,
                        help="system load in MW")
    p_head.set_defaults(func=_cmd_headroom)

    p_study = sub.add_parser(
        "study", parents=[common], help="multi-seed robustness of the savings"
    )
    p_study.add_argument("--seeds", type=int, default=3)
    p_study.set_defaults(func=_cmd_study)

    p_tel = sub.add_parser(
        "telemetry", help="inspect JSONL telemetry traces"
    )
    tel_sub = p_tel.add_subparsers(dest="telemetry_command", required=True)
    p_tel_sum = tel_sub.add_parser(
        "summary", help="aggregate a trace into human-readable tables"
    )
    p_tel_sum.add_argument("trace_file", help="JSONL trace (from --trace)")
    p_tel_sum.set_defaults(func=_cmd_telemetry_summary)
    p_tel_exp = tel_sub.add_parser(
        "export", help="aggregate a trace into machine-readable JSON"
    )
    p_tel_exp.add_argument("trace_file", help="JSONL trace (from --trace)")
    p_tel_exp.add_argument(
        "--out", default=None, help="write JSON here instead of stdout"
    )
    p_tel_exp.set_defaults(func=_cmd_telemetry_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved unix filter. devnull keeps the interpreter from
        # complaining again while flushing stdout at shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
