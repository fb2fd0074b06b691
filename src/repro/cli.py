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
    HTTP/JSON API (``/status``, ``/decision``, ``/decisions/stream``,
    ``/routing``, ...) serves the live state. Without ``--workers`` one
    region holding every site runs in-process; ``--workers N`` shards
    market regions across N processes. ``--checkpoint`` persists every
    settled hour; after SIGTERM, ``serve --resume --checkpoint PATH``
    continues with a byte-identical decision log.
``compare``
    Run several registered strategies side by side
    (``--strategies capping,min-only-avg,...``; defaults to Cost
    Capping plus the Min-Only baselines).
``tariffs``
    List the registered tariff components. ``simulate``, ``serve``,
    ``compare`` and ``sweep`` accept ``--tariff SPEC`` to settle the run
    against a multi-component tariff (e.g. ``energy+demand:rate=6``)
    instead of the paper's energy-only bill.
``solvers``
    List the registered solver backends. ``simulate``, ``serve``,
    ``compare``, ``sweep`` and ``study`` accept ``--solver-backend NAME``.
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

The batch commands (``simulate``, ``resume``, ``compare``, ``sweep``,
``study``) accept ``--trace PATH``: the run then records spans and
solver metrics and writes a JSONL sidecar to ``PATH`` on completion.
``serve`` streams its telemetry with ``--telemetry PATH`` instead.

Each flag is declared once, on a parent parser that every command
taking it shares, and ``main`` checks ``--solver-backend``, ``--tariff``
and a batch command's ``--hours`` in one place before any command runs.
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


def _finite(low: float, *, strict: bool):
    """argparse type factory: a finite number >= ``low`` (> when strict).

    NaN fails every comparison, so a bare sign check would let it in;
    the explicit finiteness test rejects NaN and both infinities.
    """
    bound = f"{'>' if strict else '>='} {low:g}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {bound}, got {text}"
            )
        return value

    return parse


_positive = _finite(0.0, strict=True)
_non_negative = _finite(0.0, strict=False)


def _count(text: str) -> int:
    """argparse type: an integer >= 1 (hours, seeds, cycle lengths)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _registered(names: tuple[str, ...]):
    """argparse type factory: one of the registered ``names``."""

    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {text!r}; expected among {names}"
            )
        return text

    return parse


def _list_of(item, *, none: tuple[str, ...] = ()):
    """argparse type factory: a comma-separated list of ``item`` values.

    Blank tokens are skipped, a token in ``none`` (any case) stands for
    ``None``, and every other token goes through the ``item`` type, so
    it is range-checked like the single-valued flag would be. An empty
    list is refused.
    """

    def parse(text: str) -> list:
        values = []
        for token in text.split(","):
            token = token.strip()
            if token:
                values.append(None if token.lower() in none else item(token))
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values

    return parse


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


def _preflight(args: argparse.Namespace) -> int | None:
    """Check what the parser alone cannot, before any command runs.

    * ``--solver-backend`` must name a registered backend with the
      ``milp`` capability (the dispatch program has integer variables,
      and an LP-only backend would silently solve its relaxation). It
      is then published via ``REPRO_SOLVER_BACKEND`` so every optimizer
      constructed anywhere inside the run (strategies build their own)
      resolves it without threading a parameter through each layer.
    * Each ``--tariff`` spec (for ``sweep``, every spec of its tariff
      axis) is parsed once through :func:`repro.billing.make_ledger`, so
      a typo'd component or parameter fails with the registry's message
      instead of mid-run.
    * A batch command's ``--hours`` must fit the world's month.

    Returns an exit code on a bad value, None to proceed.
    """
    name = getattr(args, "solver_backend", None)
    if name:
        from .solver.registry import backend_spec

        try:
            spec = backend_spec(name)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        if not spec.milp:
            print(f"error: solver backend {name!r} lacks the milp "
                  "capability; it solves LP relaxations only")
            return 2
        os.environ["REPRO_SOLVER_BACKEND"] = name
    if hasattr(args, "tariff"):
        from .billing import make_ledger

        for spec in _tariff_axis(args):
            try:
                make_ledger(spec)
            except ValueError as exc:
                print(f"error: {exc}")
                return 2
    if args.func in (_cmd_simulate, _cmd_compare, _cmd_sweep, _cmd_study):
        horizon = _build_world(args).hours
        if args.hours > horizon:
            print(f"error: --hours must be in 1..{horizon} (the world's "
                  f"month), got {args.hours}")
            return 2
    return None


def _monthly_budget(args: argparse.Namespace, world, strategy, hours: int,
                    engine=None) -> float | None:
    """The monthly budget ``--budget-fraction`` asks for, or None.

    Runs the uncapped anchor over ``hours`` and prints the resolved
    budget; a price taker gets a note instead, since it takes no budget.
    """
    if args.budget_fraction is None:
        return None
    if not strategy.wants_budget:
        print(f"note: {args.strategy} is a price taker; "
              "--budget-fraction has no effect")
        return None
    from .sim import resolve_monthly_budget

    monthly = resolve_monthly_budget(
        world, args.budget_fraction, hours=hours, engine=engine
    )
    print(f"monthly budget: ${monthly:,.0f} "
          f"({args.budget_fraction:.0%} of uncapped spend)")
    return monthly


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


def _endogenous_middleware(endogenous: dict | None, engine):
    """The closed-loop pricing middleware for ``{"grid", "damping"}``.

    Returns ``None`` for exogenous prices, keeping that pipeline
    byte-identical (no closed-loop objects are even constructed).
    """
    if not endogenous:
        return None
    from .sim.endogenous import EndogenousPriceMiddleware, EndogenousPrices

    try:
        runtime = EndogenousPrices.from_spec(engine, endogenous)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    return [EndogenousPriceMiddleware(runtime)]


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import Engine, get_strategy

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
    # The anchor run is untraced on purpose: it exists only to scale
    # the budget, and would double every solver metric.
    monthly = _monthly_budget(args, world, strategy, args.hours, engine)
    budgeter = world.budgeter(monthly) if monthly is not None else None
    endogenous = (
        {"grid": args.grid, "damping": args.damping}
        if args.endogenous_prices else None
    )
    meta = None
    if args.checkpoint:
        # Everything 'repro resume' needs to rebuild the same run.
        meta = {"policy": args.policy, "seed": args.seed,
                "endogenous": endogenous}
    middleware = _endogenous_middleware(endogenous, engine)
    if middleware is not None:
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
        result = engine.resume(
            args.checkpoint,
            hours=args.hours,
            middleware=_endogenous_middleware(meta.get("endogenous"), engine),
        )
    _print_summary(payload["strategy"], result)
    _print_bill_components(result.hours)
    return 0


def _serve_spec(args: argparse.Namespace) -> dict:
    """The control-plane spec for a fresh ``repro serve`` run."""
    from .service.shard import build_world
    from .sim import get_strategy
    from .workload import read_trace_csv

    n_sites = args.sites
    if n_sites is not None and n_sites != 3:
        world_spec = {"kind": "scaled", "sites": n_sites,
                      "policy": args.policy, "seed": args.seed}
    else:
        world_spec = {"kind": "paper", "policy": args.policy,
                      "seed": args.seed}
    world = build_world(world_spec)
    hours = min(args.hours, world.hours)
    if args.trace_file:
        hours = min(hours, read_trace_csv(args.trace_file).hours)
    if hours < args.hours:
        print(f"note: horizon clipped to {hours} h (trace length)")
    strategy = get_strategy(args.strategy)
    monthly = args.monthly_budget
    if monthly is None:
        monthly = _monthly_budget(args, world, strategy, hours)
    return {
        "world": world_spec,
        "source": {
            "kind": args.source,
            "ticks_per_hour": args.ticks_per_hour,
            "hours": hours,
            "seed": args.tick_seed,
            "jitter": args.jitter,
            "ca2": args.ca2,
            "price_jitter": args.price_jitter,
            "sites": (
                [s.name for s in world.sites] if args.price_jitter > 0 else []
            ),
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
        "monthly_budget": monthly if strategy.wants_budget else None,
        "tariff": args.tariff,
        "endogenous": (
            {"grid": args.grid, "damping": args.damping}
            if args.endogenous_prices else None
        ),
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ShardedControlPlane
    from .telemetry import Telemetry, use_telemetry

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint")
        return 2
    if args.resume and args.tariff is not None:
        print("note: --resume reads the tariff from the checkpoint; "
              "--tariff ignored")
    if args.resume and args.endogenous_prices:
        print("note: --resume reads the pricing from the checkpoint; "
              "--endogenous-prices, --grid and --damping ignored")
    options = dict(
        host=args.host,
        port=args.port,
        http=not args.no_http,
        pace_s_per_hour=args.pace,
        dns_ttl=args.dns_ttl,
        telemetry_path=args.telemetry,
    )
    try:
        if args.resume:
            service = ShardedControlPlane.resume(
                args.checkpoint, workers=args.workers, **options
            )
            if service.n_workers is None and args.workers is not None:
                print("note: this checkpoint is a single-process run; "
                      "--workers ignored")
        else:
            service = ShardedControlPlane(
                _serve_spec(args),
                workers=args.workers,
                decision_log=args.decision_log,
                checkpoint_path=args.checkpoint or None,
                **options,
            )
    except (OSError, ValueError) as exc:
        print(f"error: {getattr(exc, 'strerror', None) or exc}")
        return 2
    mode = (
        "in-process" if service.n_workers is None
        else f"x{service.n_workers} workers"
    )
    if args.resume:
        print(f"resuming {service.spec['strategy']} from "
              f"{args.checkpoint}: "
              f"{service.coordinator.settled_hours}/"
              f"{service.coordinator.horizon} hours settled, {mode}")

    async def _run() -> dict:
        if service.http_server is not None:
            # Bind before the run starts so the port line is printed
            # (and parseable by scripts) ahead of any decision work.
            await service.http_server.start()
            print(f"serving http://{args.host}:{service.port} "
                  f"(/healthz /status /decision /decisions/stream "
                  f"/regions /routing /hours /telemetry)",
                  flush=True)
        return await service.run_async()

    # Workers report their counters into the front's bundle; the
    # in-process plane records telemetry only when --telemetry streams
    # (and so drains) it.
    recording = args.telemetry or service.n_workers is not None
    with use_telemetry(Telemetry() if recording else None):
        summary = asyncio.run(_run())

    regions = summary["regions"]
    print(f"\n[serve {summary['strategy']} {mode}, "
          f"{regions} region{'s' if regions != 1 else ''}]")
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
        # Survivors of a failed worker stop too; only a requested stop
        # is a signal.
        cause = (
            "after a worker error" if summary["worker_errors"]
            else "by signal"
        )
        print(f"  stopped {cause}; resume with 'repro serve --resume{where}'")
    writer = service.telemetry_writer
    if writer is not None:
        print(f"  telemetry:           {args.telemetry} "
              f"({writer.records_written} records, "
              f"{writer.rotations} rotations)")
    return 1 if summary["worker_errors"] else 0


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
    from .sim import STRATEGIES

    strategies = args.strategies or list(STRATEGIES)
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


def _tariff_axis(args: argparse.Namespace) -> "list[str | None]":
    """A run's tariff specs: --tariff, or sweep's demand-charge axis.

    Without ``--demand-rates``/``--cycle-hours`` the axis is the single
    base spec (--tariff, possibly None = default energy). Each demand
    rate x cycle length otherwise appends a parameterized ``demand``
    component to the base spec; the rate token 'none' keeps an
    energy-only scenario in the grid as the comparison point.
    """
    base = args.tariff or "energy"
    rates = getattr(args, "demand_rates", None)
    cycles = getattr(args, "cycle_hours", None)
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

    tariffs = _tariff_axis(args)
    fractions = args.budget_fractions
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
    from .sim import STRATEGIES, available_strategies

    strategy_names = available_strategies()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Electricity bill capping for cloud-scale data centers "
        "(ICPP 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lmp = sub.add_parser("lmp-sweep", help="PJM 5-bus LMP step curves (Fig. 1)")
    p_lmp.add_argument("--max-load", type=_positive, default=900.0)
    p_lmp.add_argument("--step", type=_positive, default=25.0)
    p_lmp.set_defaults(func=_cmd_lmp_sweep)

    # Every shared flag is declared once, on one of these parents.
    # argparse hands a parent's Action objects to each child, so a
    # child must never set_defaults() a shared flag: the new default
    # would leak into every other command. serve's 24 h --hours is its
    # own flag for that reason, and resume's too.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--policy", type=int, default=1, choices=(0, 1, 2, 3))
    common.add_argument("--seed", type=int, default=7, help="world RNG seed")
    common.add_argument(
        "--solver-backend",
        metavar="NAME",
        default=None,
        help="registered solver backend for the dispatch optimizers "
        "(see 'repro solvers'); 'decomposition' enables the "
        "region-decomposed large-fleet path explicitly",
    )

    month = argparse.ArgumentParser(add_help=False)
    month.add_argument("--hours", type=_count, default=168)

    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record telemetry (spans + solver metrics) and write a "
        "JSONL trace to PATH; inspect with 'repro telemetry summary PATH'",
    )

    strategy = argparse.ArgumentParser(add_help=False)
    strategy.add_argument(
        "--strategy",
        default="capping",
        choices=strategy_names,
        help="registered dispatch strategy (default: capping)",
    )

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget-fraction",
        type=_positive,
        default=None,
        help="monthly budget as a fraction of the uncapped spend, sized "
        "by one uncapped anchor run (budget-aware strategies only; omit "
        "for pure cost minimization)",
    )
    budget.add_argument(
        "--degradation",
        default="proportional",
        choices=("hold-last", "proportional", "premium-shed"),
        help="dispatch policy for hours whose solver stack fails "
        "(injected with --faults, or genuine)",
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
        type=_positive,
        default=0.5,
        metavar="BETA",
        help="relaxation weight of the dispatch<->OPF fixed point in "
        "(0, 1]; 1.0 is the undamped best response, which can "
        "oscillate across congestion steps (default: 0.5)",
    )

    p_sim = sub.add_parser(
        "simulate", aliases=["run"],
        parents=[common, month, trace, strategy, budget, endo, tariff],
        help="run one registered strategy",
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
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="persist the run state to PATH (atomic write) after every "
        "settled hour; continue a killed run with 'repro resume PATH'",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_res = sub.add_parser(
        "resume", parents=[trace], help="continue a checkpointed simulate run"
    )
    p_res.add_argument(
        "checkpoint", help="checkpoint file from 'simulate --checkpoint'"
    )
    p_res.add_argument(
        "--hours",
        type=_count,
        default=None,
        help="override the stored horizon (extend or shorten the run)",
    )
    p_res.set_defaults(func=_cmd_resume)

    p_srv = sub.add_parser(
        "serve", parents=[common, strategy, budget, endo, tariff],
        help="run the streaming control plane (sub-hourly "
        "re-dispatch, HTTP API, checkpointed)"
    )
    p_srv.add_argument("--hours", type=int, default=24)
    p_srv.add_argument(
        "--monthly-budget", type=_non_negative, default=None,
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
        "--jitter", type=_non_negative, default=0.02,
        help="relative lambda noise for --source replay",
    )
    p_srv.add_argument(
        "--ca2", type=_finite(1.0, strict=True), default=4.0,
        help="burst CA2 for --source bursty (must be > 1)",
    )
    p_srv.add_argument(
        "--price-jitter", type=_non_negative, default=0.0,
        help="per-site price-feed random-walk step (0 disables price ticks)",
    )
    p_srv.add_argument(
        "--lambda-delta", type=_positive, default=0.05,
        help="relative lambda change that triggers re-dispatch",
    )
    p_srv.add_argument(
        "--price-delta", type=_positive, default=0.05,
        help="relative price-scale change that triggers re-dispatch",
    )
    p_srv.add_argument(
        "--debounce", type=_non_negative, default=120.0,
        help="minimum seconds between delta-triggered dispatches",
    )
    p_srv.add_argument(
        "--max-staleness", type=_positive, default=900.0,
        help="refresh any dispatch older than this many seconds",
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
        "--pace", type=_non_negative, default=0.0,
        help="wall seconds per simulated hour (0 = replay at full speed)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard the control plane across N worker processes (one "
        "market region per control loop, hourly budget barrier); "
        "omit to drive one region holding every site in-process",
    )
    p_srv.add_argument(
        "--sites", type=int, default=None, metavar="M",
        help="number of sites (default 3 = the paper world; more cycles "
        "the Section VI-A specs into extra regions)",
    )
    p_srv.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="stream spans/metrics to a size-rotated JSONL file",
    )
    p_srv.add_argument(
        "--dns-ttl", type=_positive, default=300.0,
        help="resolver TTL for the realized-routing model behind /routing "
        "(single-process serve)",
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
        "compare", parents=[common, month, trace, tariff],
        help="capping vs all baselines",
    )
    p_cmp.add_argument(
        "--strategies",
        metavar="NAMES",
        type=_list_of(_registered(strategy_names)),
        default=None,
        help="comma-separated registered strategies to compare "
        f"(default: {','.join(STRATEGIES)}; "
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
        parents=[common, month, trace, strategy, tariff],
        help="grid sweep of one strategy over seeds x budget fractions "
        "(x demand-charge tariffs)",
    )
    p_sweep.add_argument(
        "--seeds",
        type=_count,
        default=3,
        help="number of consecutive seeds starting at --seed",
    )
    p_sweep.add_argument(
        "--budget-fractions",
        type=_list_of(_positive, none=("none", "uncapped")),
        default="none,0.95,0.85",
        help="comma-separated monthly budgets as fractions of the "
        "uncapped spend; 'none' runs uncapped (capping only)",
    )
    p_sweep.add_argument(
        "--demand-rates",
        metavar="RATES",
        type=_list_of(_non_negative, none=("none", "energy")),
        default=None,
        help="comma-separated demand-charge rates ($/kW of billing-cycle "
        "peak) appended to the base --tariff as a tariff axis; 'none' "
        "keeps an energy-only scenario as the comparison point",
    )
    p_sweep.add_argument(
        "--cycle-hours",
        metavar="HOURS",
        type=_list_of(_count),
        default=None,
        help="comma-separated billing-cycle lengths (hours) for the "
        "demand-charge axis (default: the component's 720 h month)",
    )
    p_sweep.add_argument(
        "--workers",
        type=_count,
        default=1,
        help="evaluate scenarios in a process pool of this size; "
        "telemetry counters are merged back into --trace either way",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_head = sub.add_parser(
        "headroom", help="LMPs + load-growth headroom on the 5-bus system"
    )
    p_head.add_argument("--load", type=_non_negative, default=450.0,
                        help="system load in MW")
    p_head.set_defaults(func=_cmd_headroom)

    p_study = sub.add_parser(
        "study", parents=[common, month, trace],
        help="multi-seed robustness of the savings",
    )
    p_study.add_argument("--seeds", type=_count, default=3)
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
        code = _preflight(args)
        return code if code is not None else args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved unix filter. devnull keeps the interpreter from
        # complaining again while flushing stdout at shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
