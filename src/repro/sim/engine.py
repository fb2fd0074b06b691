"""The strategy engine: one hourly control loop for every dispatcher.

The paper evaluates a single control loop (budget -> dispatch -> local
optimization -> billing, Sections IV-VI) under many dispatch policies.
This module is that loop, once. Every simulated hour flows through the
same five-stage pipeline::

    observe -> budget -> dispatch -> realize -> settle

* **observe** — build the hour's offered load and the market snapshots
  the *dispatcher* sees (possibly degraded by injected sensing faults);
* **budget** — ask the budgeter for the hour's budget (skipped for
  price-taker strategies that never consume one);
* **dispatch** — run the strategy's :meth:`DispatchStrategy.decide`;
  solver-stack failures degrade via the effective
  :class:`~repro.resilience.DegradationPolicy` instead of crashing;
* **realize** — evaluate the decision against the exact stepped power
  models at the hour's billing market, ``ctx.market`` (the true hour
  unless a closed loop or a control loop's price feed set it); a
  budgeted hour whose bill would overshoot its budget goes back through
  ``dispatch`` and ``realize`` at a lower budget (:meth:`Engine._replan`);
* **settle** — feed the realized bill back to the budgeter and persist
  the hour's checkpoint when one was requested.

Telemetry spans and resilience fault injection are *stage middleware*
(:class:`TelemetryMiddleware` / :class:`FaultMiddleware`) wrapped
around the pipeline rather than branches inside it, so every registered
strategy — not just Cost Capping — gets tracing, fault tolerance and
graceful degradation for free.

Strategies implement the :class:`DispatchStrategy` protocol
(``prepare(world)`` once per run, ``decide(HourContext)`` once per
hour) and are looked up by name through :mod:`repro.sim.registry`.

Checkpoint/resume: ``Engine.run(..., checkpoint_path=)`` atomically
persists ``(next hour, partial result, budgeter state, fault spec,
degradation policy, strategy state)`` after every settled hour, and
:meth:`Engine.resume` continues a killed run bit-identically to an
uninterrupted one (pinned by ``tests/sim/test_resume.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from ..billing import SettlementLedger, make_ledger, restore_ledger
from ..core import Budgeter, CappingStep, HourlyDecision, Site, SiteHour
from ..datacenter import (
    LocalDecision,
    LocalOptimizer,
    SiteBank,
    required_servers,
    response_time,
    supports_batching,
)
from ..powermarket import CurveBank
from ..resilience import (
    DegradationPolicy,
    FaultInjector,
    FaultSpec,
    HourFaults,
    atomic_write_json,
    degraded_decision,
    read_json,
)
from ..solver import SolverError
from ..telemetry import Telemetry, get_telemetry, use_telemetry
from ..workload import CustomerMix, Trace
from .records import HourRecord, SimulationResult, SiteRecord

__all__ = [
    "DispatchStrategy",
    "HourContext",
    "RunState",
    "StageMiddleware",
    "TelemetryMiddleware",
    "FaultMiddleware",
    "Engine",
    "STAGES",
    "CHECKPOINT_VERSION",
    "dispatch_with_degradation",
]

#: The per-hour pipeline, in execution order. Strategies that never
#: consume a budget (``wants_budget = False``) skip the ``budget``
#: stage entirely — and with it the ``budget`` telemetry span.
STAGES = ("observe", "budget", "dispatch", "realize", "settle")

#: Steps whose decision promises to settle within the hour's budget.
_BUDGETED_STEPS = (CappingStep.COST_MIN, CappingStep.THROUGHPUT_MAX)

#: Engine checkpoint schema version; bump when the payload changes.
#: Version 2: ``records`` entries carry their own ``v`` schema field
#: (see :data:`repro.sim.records.RECORD_VERSION`). Version 3: adds the
#: settlement ``ledger`` (tariff components + accruals); version-2
#: checkpoints load via migration onto the default energy-only ledger,
#: whose settles are bit-identical to the scalar spend they replace.
CHECKPOINT_VERSION = 3


@dataclass
class HourContext:
    """Everything one pipeline pass knows about its invocation period.

    Built fresh by the engine every hour; stages fill it in as they
    run. Strategies read ``site_hours`` (the *observed*, possibly
    fault-degraded snapshots), the per-class offered load and
    ``budget``; they never see the engine's run state. An injected
    solver fault (``forced_failure``) is raised by
    :func:`dispatch_with_degradation` before ``decide`` is called, so
    no strategy reads it.
    """

    hour: int
    strategy: "DispatchStrategy"
    run_name: str
    #: Raw degradation request for this run (``None`` = policy-resolved).
    degradation: DegradationPolicy | None = None
    #: Whether a fault injector is wired into this run.
    faults_active: bool = False
    total_rps: float = 0.0
    demand_premium_rps: float = 0.0
    demand_ordinary_rps: float = 0.0
    budget: float = float("inf")
    site_hours: list[SiteHour] = field(default_factory=list)
    #: The snapshots the hour is billed at, one per site in engine
    #: order; ``None`` bills the true hour. Set by whoever decides the
    #: hour's prices (the closed loop, the control loop's price feed).
    market: list[SiteHour] | None = None
    #: The run's settlement ledger. Demand-aware strategies read its
    #: ``peak_term(hour)`` to price peak excess into the dispatch MILP;
    #: ``None`` (and the default energy-only ledger) yields no term.
    ledger: SettlementLedger | None = None
    faults: HourFaults | None = None
    forced_failure: Exception | None = None
    decision: HourlyDecision | None = None
    record: HourRecord | None = None
    #: The hour's telemetry span (a no-op span when telemetry is off).
    span: Any = None

    @property
    def effective_degradation(self) -> DegradationPolicy | None:
        """The engine-level degradation policy for this hour.

        The explicit request wins; otherwise fault-injected runs default
        to :attr:`~repro.resilience.DegradationPolicy.PROPORTIONAL`,
        and clean runs keep the raise-on-failure contract.
        """
        if self.degradation is not None:
            return self.degradation
        return DegradationPolicy.PROPORTIONAL if self.faults_active else None


@runtime_checkable
class DispatchStrategy(Protocol):
    """The pluggable per-hour dispatcher the engine drives.

    Implementations are registered in :mod:`repro.sim.registry` and
    must expose:

    * ``name`` — the registry key (e.g. ``"capping"``);
    * ``wants_budget`` — whether the budget stage runs (price takers
      such as Min-Only never consume one);
    * :meth:`prepare` — called once per run with the engine (the
      "world": ``sites``, ``workload``, ``mix``) before the first hour;
    * :meth:`decide` — called once per hour with the
      :class:`HourContext`; must return an
      :class:`~repro.core.HourlyDecision`. Raising
      :class:`~repro.solver.SolverError` hands the hour to the
      engine's degradation path; injected faults never reach
      ``decide``.

    Optional hooks: ``result_name`` (display name for the
    :class:`~repro.sim.records.SimulationResult`), ``state_dict()`` /
    ``load_state(state)`` (JSON-serializable strategy state persisted
    into engine checkpoints). The hold-last decision is not strategy
    state: the engine keeps it as :attr:`RunState.last_good`.
    """

    name: str
    wants_budget: bool

    def prepare(self, world: "Engine") -> None: ...

    def decide(self, ctx: HourContext) -> HourlyDecision: ...


@dataclass
class RunState:
    """Mutable engine-owned state threaded through one run.

    Also the carrier of cross-dispatch state for the streaming control
    plane (:mod:`repro.service`), whose sub-hourly re-dispatches go
    through :func:`dispatch_with_degradation` exactly like the engine's
    hourly ``dispatch`` stage.
    """

    budgeter: Budgeter | None = None
    #: The run's settlement ledger (None inside the service control
    #: loop, which owns its own ledger and settles at tick boundaries).
    ledger: SettlementLedger | None = None
    #: Budgeter snapshot backing the ``budget_loss`` fault channel.
    restore_ckpt: dict | None = None
    #: Last successfully solved decision: the HOLD_LAST history of
    #: every strategy, persisted in engine and control-loop checkpoints.
    last_good: HourlyDecision | None = None


def dispatch_with_degradation(
    ctx: HourContext, state: RunState
) -> HourlyDecision:
    """Run the strategy for one context; degrade instead of crashing.

    The one place a :class:`~repro.solver.SolverError` becomes a
    degraded hour. An injected fault (``ctx.forced_failure``) is raised
    here in place of the strategy's ``decide``, so it takes the same
    ``except`` path as a genuine solver-stack failure: the context's
    effective degradation policy dispatches the hour, with the run's
    last good decision as HOLD_LAST history. Shared by the engine's
    ``dispatch`` stage and every sub-hourly re-dispatch of the
    streaming control plane.
    """
    tel = get_telemetry()
    try:
        if ctx.forced_failure is not None:
            raise ctx.forced_failure
        decision = ctx.strategy.decide(ctx)
    except SolverError as exc:
        policy = ctx.effective_degradation
        if policy is None:
            raise
        tel.counter("engine.degraded").inc()
        tel.counter(f"engine.degraded.{type(exc).__name__}").inc()
        decision = degraded_decision(
            policy,
            ctx.site_hours,
            ctx.demand_premium_rps,
            ctx.demand_ordinary_rps,
            ctx.budget,
            last=state.last_good,
        )
    ctx.decision = decision
    if decision.step is CappingStep.DEGRADED:
        tel.counter("resilience.degraded_hours").inc()
    else:
        state.last_good = decision
    return decision


class StageMiddleware:
    """Hooks wrapped around each simulated hour and each stage.

    Middleware composes outside-in in list order: the first middleware's
    :meth:`hour` context opens first and closes last. Subclasses
    override either hook; the defaults are transparent.
    """

    @contextlib.contextmanager
    def hour(self, ctx: HourContext, state: RunState) -> Iterator[None]:
        yield

    @contextlib.contextmanager
    def stage(
        self, name: str, ctx: HourContext, state: RunState
    ) -> Iterator[None]:
        yield


class TelemetryMiddleware(StageMiddleware):
    """Per-hour ``hour`` spans with ``budget``/``dispatch`` children.

    The ``realize`` stage emits its own ``local_optimization`` and
    ``billing`` spans (they bracket the two halves of
    :meth:`Engine._realize`), so only the solver-adjacent stages are
    spanned here. The hour span records the strategy, the injected
    faults (set by :class:`FaultMiddleware`), and on exit the decided
    step and realized cost.
    """

    SPANNED = ("budget", "dispatch")

    @contextlib.contextmanager
    def hour(self, ctx: HourContext, state: RunState) -> Iterator[None]:
        tel = get_telemetry()
        with tel.span("hour", hour=ctx.hour, strategy=ctx.run_name) as span:
            ctx.span = span
            yield
            span.set(
                step=ctx.decision.step.value,
                realized_cost=ctx.record.realized_cost,
            )

    @contextlib.contextmanager
    def stage(
        self, name: str, ctx: HourContext, state: RunState
    ) -> Iterator[None]:
        if name in self.SPANNED:
            with get_telemetry().span(name):
                yield
        else:
            yield


class FaultMiddleware(StageMiddleware):
    """Applies the injector's per-hour faults ahead of the pipeline.

    At hour start it draws the hour's :class:`HourFaults`, records the
    injection counters and span attribute, restores a budgeter lost to
    the ``budget_loss`` channel from the engine's rolling checkpoint,
    and arms ``ctx.forced_failure``, which
    :func:`dispatch_with_degradation` raises in place of the strategy's
    ``decide`` so the hour degrades exactly as a genuine solver-stack
    failure would.
    """

    def __init__(self, injector: FaultInjector):
        self.injector = injector

    @contextlib.contextmanager
    def hour(self, ctx: HourContext, state: RunState) -> Iterator[None]:
        tel = get_telemetry()
        hf = self.injector.faults_for(ctx.hour)
        ctx.faults = hf
        if hf.any:
            for kind in hf.kinds:
                tel.counter(f"resilience.injected.{kind}").inc()
            ctx.span.set(faults=",".join(hf.kinds))
        if hf.budget_loss and state.budgeter is not None:
            state.budgeter = Budgeter.restore(state.restore_ckpt)
            tel.counter("resilience.budgeter_restarts").inc()
        ctx.forced_failure = hf.solver_exception()
        yield


class Engine:
    """Drives any registered dispatch strategy over a workload month.

    Parameters: the site network (markets bound), the offered-load
    trace (premium + ordinary per hour), the customer mix, an optional
    :class:`~repro.telemetry.Telemetry` bundle installed for the
    duration of every run, and the ``batched`` toggle for the
    vectorized realize path (:class:`~repro.datacenter.SiteBank` +
    :class:`~repro.powermarket.CurveBank`, bit-identical to the scalar
    per-site path; heterogeneous sites fall back to scalar).
    """

    def __init__(
        self,
        sites: list[Site],
        workload: Trace,
        mix: CustomerMix,
        telemetry: Telemetry | None = None,
        batched: bool = True,
    ):
        if not sites:
            raise ValueError("at least one site required")
        horizon = min(len(s.background_mw) for s in sites)
        if workload.hours > horizon:
            raise ValueError(
                f"workload ({workload.hours} h) exceeds background "
                f"demand traces ({horizon} h)"
            )
        self.sites = sites
        self.workload = workload
        self.mix = mix
        self.telemetry = telemetry
        self.batched = batched
        self._local = {s.name: LocalOptimizer(s.datacenter) for s in sites}
        # Hour-keyed memos shared by every strategy run on this instance:
        # SiteHour snapshots are immutable and weather-hour optimizers
        # are deterministic, so building either once per (site, hour) is
        # enough however many strategies replay the same month.
        self._hours_memo: dict[int, list[SiteHour]] = {}
        self._local_at_memo: dict[tuple[str, int], LocalOptimizer] = {}
        self._bank: SiteBank | None = None
        self._curves: CurveBank | None = None
        if batched and all(supports_batching(s.datacenter) for s in sites):
            self._bank = SiteBank.from_sites(sites)
            self._curves = CurveBank.from_policies([s.policy for s in sites])

    def subset(self, site_names) -> "Engine":
        """A new engine over a subset of this engine's sites.

        The shard control plane (:mod:`repro.service.shard`) gives each
        market region a :class:`~repro.service.ControlLoop` over only
        its region's sites; the workload trace and customer mix are
        shared (region traffic shares are applied to the λ observations
        by the caller, not baked into the trace). Order follows this
        engine's site order, so subsetting is deterministic.
        """
        wanted = set(site_names)
        picked = [s for s in self.sites if s.name in wanted]
        if len(picked) != len(wanted):
            missing = wanted - {s.name for s in picked}
            raise ValueError(f"unknown sites: {sorted(missing)}")
        return Engine(
            picked,
            self.workload,
            self.mix,
            telemetry=self.telemetry,
            batched=self.batched,
        )

    # -- running -----------------------------------------------------------------

    def run(
        self,
        strategy: "DispatchStrategy | str",
        *,
        budgeter: Budgeter | None = None,
        hours: int | None = None,
        name: str | None = None,
        faults: FaultInjector | None = None,
        degradation: DegradationPolicy | None = None,
        tariff: "str | SettlementLedger | None" = None,
        checkpoint_path=None,
        checkpoint_meta: dict | None = None,
        middleware: "Sequence[StageMiddleware] | None" = None,
    ) -> SimulationResult:
        """Run ``strategy`` through the stage pipeline for ``hours``.

        ``strategy`` is a :class:`DispatchStrategy` instance or a
        registry name (resolved through
        :func:`repro.sim.registry.get_strategy`). ``budgeter`` is only
        legal for strategies that consume one (``wants_budget``);
        ``None`` budgets every hour at infinity. ``faults`` injects the
        deterministic per-hour fault schedule into *any* strategy —
        solver failures degrade via ``degradation`` (default
        :attr:`~repro.resilience.DegradationPolicy.PROPORTIONAL` when
        faults are wired) instead of raising, and ``faults=None`` stays
        bit-identical to a plain run.

        ``tariff`` is a spec string (``"energy"``,
        ``"energy+demand:rate=6"``) or a prebuilt
        :class:`~repro.billing.SettlementLedger`; the settle stage
        charges every component and records per-component line items on
        each hour. The default (energy-only) tariff settles
        bit-identically to the pre-ledger scalar spend.

        ``checkpoint_path`` persists the full run state after every
        settled hour with an atomic write-then-rename;
        ``checkpoint_meta`` is carried verbatim in the payload (the CLI
        stores its world parameters there so ``repro resume`` can
        rebuild the engine).

        ``middleware`` appends extra :class:`StageMiddleware` after the
        built-in telemetry/fault middleware (e.g. the closed-loop
        endogenous-pricing hook); ``None`` keeps the pipeline exactly
        as before.
        """
        strategy = self._resolve(strategy)
        horizon = self._horizon(hours)
        if budgeter is not None and not strategy.wants_budget:
            raise ValueError(
                f"strategy {strategy.name!r} does not consume a budget; "
                "run it without a budgeter"
            )
        self._check_budgeter(budgeter, horizon, needed=horizon)
        strategy.prepare(self)
        result = SimulationResult(name or self._run_name(strategy))
        ledger = (
            tariff if isinstance(tariff, SettlementLedger)
            else make_ledger(tariff)
        )
        state = RunState(budgeter=budgeter, ledger=ledger)
        return self._drive(
            strategy,
            result,
            state,
            start=0,
            horizon=horizon,
            faults=faults,
            degradation=degradation,
            checkpoint_path=checkpoint_path,
            checkpoint_meta=checkpoint_meta,
            middleware=middleware,
        )

    def resume(
        self,
        checkpoint_path,
        *,
        strategy: "DispatchStrategy | str | None" = None,
        hours: int | None = None,
        middleware: "Sequence[StageMiddleware] | None" = None,
    ) -> SimulationResult:
        """Continue a checkpointed run from its last settled hour.

        Rebuilds the budgeter, fault schedule, degradation policy,
        partial result and strategy state from the checkpoint, then
        drives the remaining hours through the identical pipeline — the
        concatenated result is field-for-field identical to a run that
        was never interrupted. ``strategy`` overrides the registry
        default when the original run used a custom-configured
        instance; ``hours`` extends (or shortens) the stored horizon.
        The resumed run keeps checkpointing to the same path.
        """
        payload = self.load_checkpoint(checkpoint_path)
        strategy = self._resolve(strategy or payload["strategy"])
        strategy.prepare(self)
        if payload.get("strategy_state") and hasattr(strategy, "load_state"):
            strategy.load_state(payload["strategy_state"])
        horizon = self._horizon(
            payload["horizon"] if hours is None else hours
        )
        start = int(payload["next_hour"])
        if start > horizon:
            raise ValueError(
                f"checkpoint already covers {start} hours; a resume "
                f"horizon of {horizon} h has nothing left to run"
            )
        records = [HourRecord.from_dict(d) for d in payload["records"]]
        if len(records) != start:
            raise ValueError(
                f"corrupt checkpoint: {len(records)} records for "
                f"next_hour={start}"
            )
        budgeter = (
            Budgeter.restore(payload["budgeter"])
            if payload.get("budgeter") is not None
            else None
        )
        self._check_budgeter(budgeter, horizon, needed=horizon - start)
        faults = (
            FaultInjector(FaultSpec(**payload["fault_spec"]))
            if payload.get("fault_spec") is not None
            else None
        )
        degradation = (
            DegradationPolicy(payload["degradation"])
            if payload.get("degradation") is not None
            else None
        )
        last_good = (
            HourlyDecision.from_dict(payload["last_good"])
            if payload.get("last_good") is not None
            else None
        )
        result = SimulationResult(payload["result_name"], records)
        # Version-2 checkpoints predate the ledger; migration restores
        # the default energy-only ledger, whose settles equal the old
        # scalar spend bit for bit.
        ledger = restore_ledger(payload.get("ledger"))
        state = RunState(
            budgeter=budgeter, ledger=ledger, last_good=last_good
        )
        return self._drive(
            strategy,
            result,
            state,
            start=start,
            horizon=horizon,
            faults=faults,
            degradation=degradation,
            checkpoint_path=checkpoint_path,
            checkpoint_meta=payload.get("meta") or None,
            middleware=middleware,
        )

    def _drive(
        self,
        strategy: "DispatchStrategy",
        result: SimulationResult,
        state: RunState,
        *,
        start: int,
        horizon: int,
        faults: FaultInjector | None,
        degradation: DegradationPolicy | None,
        checkpoint_path,
        checkpoint_meta: dict | None,
        middleware: "Sequence[StageMiddleware] | None" = None,
    ) -> SimulationResult:
        """The hour loop: stages through middleware, records appended."""
        stages = STAGES if strategy.wants_budget else tuple(
            s for s in STAGES if s != "budget"
        )
        middlewares: list[StageMiddleware] = [TelemetryMiddleware()]
        if faults is not None:
            middlewares.append(FaultMiddleware(faults))
        if middleware:
            middlewares.extend(middleware)
        with use_telemetry(self.telemetry or get_telemetry()):
            # Rolling budgeter snapshot backing the budget_loss fault: a
            # lost budgeter is restored from here, exactly as a restarted
            # controller would resume from its last persisted state.
            if state.budgeter is not None and faults is not None:
                state.restore_ckpt = state.budgeter.checkpoint()
            for t in range(start, horizon):
                ctx = HourContext(
                    hour=t,
                    strategy=strategy,
                    run_name=result.name,
                    degradation=degradation,
                    faults_active=faults is not None,
                    ledger=state.ledger,
                )
                with contextlib.ExitStack() as hour_stack:
                    for mw in middlewares:
                        hour_stack.enter_context(mw.hour(ctx, state))
                    for stage in stages:
                        self._run_stage(stage, ctx, state, middlewares)
                        if stage == "realize":
                            self._replan(ctx, state, middlewares)
                result.append(ctx.record)
                if checkpoint_path is not None:
                    self._save_checkpoint(
                        checkpoint_path,
                        strategy,
                        result,
                        state,
                        horizon=horizon,
                        next_hour=t + 1,
                        faults=faults,
                        degradation=degradation,
                        meta=checkpoint_meta,
                    )
        return result

    def _run_stage(
        self,
        name: str,
        ctx: HourContext,
        state: RunState,
        middlewares: "Sequence[StageMiddleware]",
    ) -> None:
        """One pipeline stage, wrapped in every middleware's hook."""
        with contextlib.ExitStack() as stack:
            for mw in middlewares:
                stack.enter_context(mw.stage(name, ctx, state))
            getattr(self, f"_stage_{name}")(ctx, state)

    # -- pipeline stages -----------------------------------------------------------

    def _stage_observe(self, ctx: HourContext, state: RunState) -> None:
        """Offered load plus the snapshots the dispatcher gets to see."""
        t = ctx.hour
        total = float(self.workload.rates_rps[t])
        ctx.total_rps = total
        ctx.demand_premium_rps = self.mix.premium_rate(total)
        ctx.demand_ordinary_rps = self.mix.ordinary_rate(total)
        ctx.site_hours = self._observed_site_hours(t, ctx.faults)

    def _stage_budget(self, ctx: HourContext, state: RunState) -> None:
        """The budgeter's hourly budget (infinite when uncapped)."""
        ctx.budget = (
            state.budgeter.hourly_budget()
            if state.budgeter is not None
            else float("inf")
        )

    def _stage_dispatch(self, ctx: HourContext, state: RunState) -> None:
        """Run the strategy via :func:`dispatch_with_degradation`."""
        dispatch_with_degradation(ctx, state)

    def _stage_realize(self, ctx: HourContext, state: RunState) -> None:
        """Billing of the decision (exact stepped models) at its market."""
        ctx.record = self._realize(ctx.hour, ctx.decision, ctx.market)

    def _replan(
        self,
        ctx: HourContext,
        state: RunState,
        middlewares: "Sequence[StageMiddleware]",
    ) -> None:
        """Re-plan a realized hour whose bill would overshoot its budget.

        The dispatcher plans on smooth power models; realize draws the
        stepped ones, and under a demand charge a sliver of unplanned
        power can cost a few percent of the hour. So a ``cost-min`` or
        ``throughput-max`` hour whose projected bill (every tariff
        component, see :meth:`_overshoot`) exceeds its budget goes back
        through the ``dispatch`` and ``realize`` stages, middleware and
        all: once against the budget lowered by the overshoot plus the
        demand charge on the power the plan missed, then at a zero
        budget (premium load only, flagged ``premium-only``) if it still
        does not fit. Each re-plan starts from the true-hour market the
        observe stage leaves, so a closed loop clears the market again
        for the new decision. The record keeps the hour's true budget.
        """
        budget = ctx.budget
        overshoot = self._overshoot(ctx, state, budget)
        if overshoot <= 0.0:
            return
        get_telemetry().counter("engine.replans").inc()
        planned_mw = sum(a.predicted_power_mw for a in ctx.decision.allocations)
        missed_mw = max(0.0, ctx.record.total_power_mw - planned_mw)
        term = state.ledger.peak_term(ctx.hour)
        penalty = term[1] if term is not None else 0.0
        lowered = max(0.0, budget - overshoot - penalty * missed_mw)
        for replan_budget in (lowered, 0.0):
            ctx.budget, ctx.market = replan_budget, None
            self._run_stage("dispatch", ctx, state, middlewares)
            self._run_stage("realize", ctx, state, middlewares)
            if self._overshoot(ctx, state, budget) <= 0.0:
                break
        ctx.budget = budget
        ctx.record = dataclasses.replace(ctx.record, budget=budget)

    def _overshoot(
        self, ctx: HourContext, state: RunState, budget: float
    ) -> float:
        """How far the realized hour's bill would settle over ``budget``.

        The bill is projected at the prices the dispatcher saw: the
        billing market when one is set, else the observed snapshots.
        Those are the true hour the record is billed at unless a sensing
        fault degraded the view, and a controller must not react to
        prices it could not see. Only steps that promise to fit the
        budget are checked; any other step (or a run without a ledger)
        reads 0.
        """
        record = ctx.record
        if state.ledger is None or record.step not in _BUDGETED_STEPS:
            return 0.0
        cost = record.realized_cost
        if ctx.market is None and any(
            seen is not true
            for seen, true in zip(ctx.site_hours, self._site_hours(ctx.hour))
        ):
            cost = sum(
                sh.policy.price(sh.background_mw + s.power_mw) * s.power_mw
                for sh, s in zip(ctx.site_hours, record.sites)
            )
        return state.ledger.project(
            ctx.hour, cost, record.total_power_mw
        ) - budget

    def _stage_settle(self, ctx: HourContext, state: RunState) -> None:
        """Settle the hour through the ledger; feed the bill back.

        The ledger accrues the whole hour at weight 1.0 (``x * 1.0 ==
        x`` bitwise), settles every tariff component into line items on
        the record, and the folded total — exactly ``realized_cost``
        under the energy-only default — is what the budgeter records.
        """
        spend = ctx.record.realized_cost
        if state.ledger is not None:
            state.ledger.accrue(
                ctx.record.realized_cost, ctx.record.total_power_mw
            )
            items = state.ledger.settle(ctx.hour)
            ctx.record = dataclasses.replace(
                ctx.record, line_items=tuple(items)
            )
            spend = SettlementLedger.total(items)
        if state.budgeter is not None:
            state.budgeter.record_spend(spend)
            if state.restore_ckpt is not None:
                state.restore_ckpt = state.budgeter.checkpoint()

    # -- checkpointing ---------------------------------------------------------------

    def _save_checkpoint(
        self,
        path,
        strategy: "DispatchStrategy",
        result: SimulationResult,
        state: RunState,
        *,
        horizon: int,
        next_hour: int,
        faults: FaultInjector | None,
        degradation: DegradationPolicy | None,
        meta: dict | None,
    ) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "kind": "engine-run",
            "strategy": strategy.name,
            "result_name": result.name,
            "horizon": horizon,
            "next_hour": next_hour,
            "records": [h.to_dict() for h in result.hours],
            "budgeter": (
                state.budgeter.checkpoint()
                if state.budgeter is not None
                else None
            ),
            "fault_spec": (
                dataclasses.asdict(faults.spec) if faults is not None else None
            ),
            "degradation": (
                degradation.value if degradation is not None else None
            ),
            "last_good": (
                state.last_good.to_dict()
                if state.last_good is not None
                else None
            ),
            "strategy_state": (
                strategy.state_dict()
                if hasattr(strategy, "state_dict")
                else None
            ),
            "ledger": (
                state.ledger.to_dict() if state.ledger is not None else None
            ),
            "meta": meta or {},
        }
        atomic_write_json(payload, path)

    @staticmethod
    def load_checkpoint(path) -> dict:
        """Read and validate an engine checkpoint written by :meth:`run`."""
        payload = read_json(path)
        if payload.get("kind") != "engine-run":
            raise ValueError(f"{path} is not an engine run checkpoint")
        version = payload.get("version")
        if version not in (2, CHECKPOINT_VERSION):
            raise ValueError(
                f"unsupported engine checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        for key in ("strategy", "result_name", "horizon", "next_hour", "records"):
            if key not in payload:
                raise ValueError(f"engine checkpoint missing {key!r}")
        return payload

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _resolve(strategy: "DispatchStrategy | str") -> "DispatchStrategy":
        if isinstance(strategy, str):
            from .registry import get_strategy

            return get_strategy(strategy)
        return strategy

    @staticmethod
    def _run_name(strategy: "DispatchStrategy") -> str:
        return getattr(strategy, "result_name", strategy.name)

    @staticmethod
    def _check_budgeter(
        budgeter: Budgeter | None, horizon: int, *, needed: int
    ) -> None:
        if budgeter is None:
            return
        remaining = budgeter.month_hours - budgeter.current_hour
        if needed > remaining:
            raise ValueError(
                f"horizon of {horizon} h exceeds the budgeter's remaining "
                f"{remaining} budgeted hours (month_hours="
                f"{budgeter.month_hours}, {budgeter.current_hour} already "
                f"recorded); pass fewer hours or a longer budgeting period"
            )

    @staticmethod
    def _response_time(site: Site, local) -> float:
        """Realized mean response time from the exact G/G/m model.

        Heterogeneous sites track a blended figure via their slowest
        pool; for simplicity the aggregate model is evaluated with the
        site's nominal service rate when available.
        """
        dc = site.datacenter
        n = local.provisioning.n_servers
        if n == 0 or local.served_rps <= 0:
            return 0.0
        servers = getattr(dc, "servers", None)
        if servers is not None:  # homogeneous site
            return response_time(local.served_rps, n, servers.service_rate, dc.queue)
        # Heterogeneous: slowest pool under the greedy split.
        worst = 0.0
        for pool, rate in dc.split_load(local.served_rps):
            if rate <= 0:
                continue
            n_pool = min(
                pool.count,
                max(
                    int(required_servers(rate, pool.spec.service_rate,
                                         dc.target_response_s, dc.queue)),
                    math.ceil(rate / (dc.utilization_cap * pool.spec.service_rate)),
                    1,
                ),
            )
            worst = max(
                worst, response_time(rate, n_pool, pool.spec.service_rate, dc.queue)
            )
        return worst

    def _site_hours(self, t: int) -> list[SiteHour]:
        """Per-hour market snapshots, built once per hour per instance."""
        hours = self._hours_memo.get(t)
        if hours is None:
            hours = self._hours_memo[t] = [s.hour(t) for s in self.sites]
        return hours

    def _observed_site_hours(
        self, t: int, hf: HourFaults | None
    ) -> list[SiteHour]:
        """The snapshots the *dispatcher* sees at hour ``t``.

        Normally the truth; under an injected sensing fault the view is
        degraded — a stale price feed serves the whole previous-hour
        snapshot, a sensor dropout serves the previous hour's background
        demand under current prices. Hour 0 has no previous snapshot to
        go stale, so faults there are no-ops. Realized billing always
        uses the true hour regardless (see :meth:`_realize`).
        """
        current = self._site_hours(t)
        if hf is None or t == 0:
            return current
        if hf.stale_prices:
            return self._site_hours(t - 1)
        if hf.sensor_dropout:
            previous = self._site_hours(t - 1)
            return [
                dataclasses.replace(sh, background_mw=prev.background_mw)
                for sh, prev in zip(current, previous)
            ]
        return current

    def _local_at(self, site: Site, t: int) -> LocalOptimizer:
        """Weather-hour local optimizer, built once per (site, hour)."""
        key = (site.name, t)
        local = self._local_at_memo.get(key)
        if local is None:
            local = self._local_at_memo[key] = LocalOptimizer(site.datacenter_at(t))
        return local

    def _horizon(self, hours: int | None) -> int:
        if hours is None:
            return self.workload.hours
        if not 0 < hours <= self.workload.hours:
            raise ValueError(f"hours must be in 1..{self.workload.hours}")
        return hours

    def _provision_scalar(self, t: int, decision: HourlyDecision):
        """Reference path: one local-optimizer call per site."""
        provisioned = []
        for site in self.sites:
            dispatched = decision.rate_for(site.name)
            if site.coe_trace is None:
                local = self._local[site.name].decide(dispatched)
            else:
                # Weather-varying cooling: the optimizer around this
                # hour's efficiency (memoized across strategy runs).
                local = self._local_at(site, t).decide(dispatched)
            provisioned.append((site, dispatched, local))
        return provisioned

    def _coe_at(self, t: int) -> np.ndarray | None:
        """Per-site cooling efficiencies for hour ``t`` (None = constants)."""
        if all(s.coe_trace is None for s in self.sites):
            return None
        return np.array(
            [
                float(s.coe_trace[t]) if s.coe_trace is not None
                else s.datacenter.cooling.coe
                for s in self.sites
            ]
        )

    def _provision_batched(self, t: int, decision: HourlyDecision):
        """Vectorized path: one :class:`SiteBank` call for all sites.

        Produces the same ``(site, dispatched, LocalDecision)`` triples
        as :meth:`_provision_scalar` — the bank's arithmetic is
        bit-identical to the scalar models, and sites whose dispatch
        overshoots their physical or contractual limits (the rare
        model-mismatch case) are handed to the scalar local optimizer,
        whose shedding search is the reference behavior.
        """
        bank = self._bank
        rates = np.array([decision.rate_for(s.name) for s in self.sites])
        n, util, server_w, network_w, cooling_w = bank.provision_arrays(
            rates, coe=self._coe_at(t), validate=False
        )
        provisioned = []
        for i, site in enumerate(self.sites):
            dispatched = float(rates[i])
            over_fleet = n[i] > bank.max_servers[i]
            if not over_fleet:
                prov = bank.provisioning(i, n, util, server_w, network_w,
                                         cooling_w)
                if prov.total_power_mw <= bank.power_cap_mw[i] + 1e-12:
                    provisioned.append((
                        site,
                        dispatched,
                        LocalDecision(served_rps=dispatched, shed_rps=0.0,
                                      provisioning=prov),
                    ))
                    continue
            local = (
                self._local[site.name] if site.coe_trace is None
                else self._local_at(site, t)
            ).decide(dispatched)
            provisioned.append((site, dispatched, local))
        return provisioned

    def _realize(
        self,
        t: int,
        decision: HourlyDecision,
        market: list[SiteHour] | None,
    ) -> HourRecord:
        """Evaluate a dispatch decision against the exact physical models.

        Each site is billed at its ``market`` snapshot's policy and
        background demand (``None``: the true hour ``t``).
        """
        if market is None:
            market = self._site_hours(t)
        tel = get_telemetry()
        with tel.span("local_optimization"):
            if self._bank is not None:
                provisioned = self._provision_batched(t, decision)
            else:
                provisioned = self._provision_scalar(t, decision)
        site_records = []
        realized_cost = 0.0
        total_shed = 0.0
        with tel.span("billing"):
            if self._curves is not None:
                power = np.array([l.power_mw for _, _, l in provisioned])
                bg = np.array([sh.background_mw for sh in market])
                prices = self._curves.site_price(power, bg)
                served = np.array([l.served_rps for _, _, l in provisioned])
                ns = np.array(
                    [l.provisioning.n_servers for _, _, l in provisioned],
                    dtype=float,
                )
                rts = self._bank.response_time(served, ns)
                rts = np.where((ns == 0.0) | (served <= 0.0), 0.0, rts)
            for i, ((site, dispatched, local), sh) in enumerate(
                zip(provisioned, market)
            ):
                rt = (
                    float(rts[i]) if self._curves is not None
                    else self._response_time(site, local)
                )
                # The curve bank holds the sites' own policies; a market
                # that swaps one (the closed loop's endogenous curve) is
                # priced on that policy directly.
                if self._curves is not None and sh.policy is site.policy:
                    price = float(prices[i])
                else:
                    price = float(
                        sh.policy.price(sh.background_mw + local.power_mw)
                    )
                cost = price * local.power_mw
                realized_cost += cost
                total_shed += local.shed_rps
                site_records.append(
                    SiteRecord(
                        site=site.name,
                        dispatched_rps=dispatched,
                        served_rps=local.served_rps,
                        power_mw=local.power_mw,
                        price=price,
                        cost=cost,
                        n_servers=local.provisioning.n_servers,
                        response_time_s=rt,
                    )
                )
        # Shedding from decision/physics mismatch hits ordinary traffic
        # first: providers protect their revenue source.
        served_ordinary = max(0.0, decision.served_ordinary_rps - total_shed)
        leftover_shed = max(0.0, total_shed - decision.served_ordinary_rps)
        served_premium = max(0.0, decision.served_premium_rps - leftover_shed)
        return HourRecord(
            hour=t,
            step=decision.step,
            budget=decision.budget,
            predicted_cost=decision.predicted_cost,
            realized_cost=realized_cost,
            demand_premium_rps=decision.demand_premium_rps,
            demand_ordinary_rps=decision.demand_ordinary_rps,
            served_premium_rps=served_premium,
            served_ordinary_rps=served_ordinary,
            sites=tuple(site_records),
        )
