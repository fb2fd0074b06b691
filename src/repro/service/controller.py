"""The synchronous decision core of the streaming control plane.

Everything that *decides* lives here, free of asyncio, sockets and wall
clocks, so the serve runtime in :mod:`repro.service.shard` is a thin
shell: feeding the same tick sequence through :class:`ControlLoop`
serially or through the in-process plane produces byte-identical
decision logs (the property ``benchmarks/bench_service.py`` asserts and
``tests/service`` pin).

One :class:`ControlLoop` drives one strategy over one
:class:`~repro.sim.engine.Engine` world. Each tick updates the observed
state (λ or a site's price-feed scale); the :class:`TriggerPolicy`
decides whether to re-dispatch:

* the first tick of every hour always dispatches (``hour-start``) —
  the batch engine's hourly cadence is the degenerate case;
* a relative λ or price change ≥ the configured threshold re-dispatches
  (``lambda-delta`` / ``price-delta``), but never sooner than
  ``debounce_s`` after the previous dispatch — a burst of threshold
  crossings coalesces into one re-dispatch at the end of the debounce
  window, because the delta is measured against the *last dispatched*
  state and therefore stays armed;
* regardless of deltas, a dispatch older than ``max_staleness_s`` is
  refreshed at the next tick (``staleness``) — the deadline that
  bounds how long a quiet feed can pin a stale decision.

Dispatches run through :func:`~repro.sim.engine.dispatch_with_degradation`
— the exact function behind the engine's ``dispatch`` stage — so solver
failures degrade by policy instead of crashing the service, and the
last good decision feeds HOLD_LAST exactly as in batch runs. Each
decision is realized with
:meth:`Engine._realize <repro.sim.engine.Engine._realize>` (full-hour
rates) at the price-feed view it was dispatched on, and keeps that
price while in force: a later price tick that triggers no re-dispatch
moves the market, not the bill. Settlement time-weights the realized
costs of the hour's decision segments and feeds the blended bill to the
budgeter, so a re-dispatching month remains comparable with a batch
month.

The loop's own :meth:`state_dict`/:meth:`load_state` capture everything
needed to continue bit-identically from a settled hour boundary (λ/price
observations, decision counters, the record in force that bridges hour
boundaries, and the last good decision); the serve runtime snapshots it
at each hour barrier, right after :meth:`settle_open_hour`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from ..billing import SettlementLedger, make_ledger, restore_ledger
from ..core import Budgeter, HourlyDecision
from ..resilience import DegradationPolicy
from ..sim.engine import (
    Engine,
    HourContext,
    RunState,
    dispatch_with_degradation,
)
from ..sim.records import HourRecord
from ..telemetry import get_telemetry
from .ticks import Tick

__all__ = ["TriggerPolicy", "DecisionEvent", "ControlLoop", "run_serial"]

_HOUR_S = 3600.0


@dataclass(frozen=True)
class TriggerPolicy:
    """When a tick is allowed to force a sub-hourly re-dispatch.

    Attributes
    ----------
    lambda_delta:
        Relative change of observed λ versus the last-dispatched λ that
        arms a re-dispatch (``0.05`` = 5 %). A tick landing *exactly*
        on the threshold fires (``>=`` comparison).
    price_delta:
        Same, for the largest relative change of any site's price-feed
        scale versus its value at the last dispatch.
    debounce_s:
        Minimum simulated seconds between dispatches for the delta
        paths. Crossings inside the window coalesce: the first tick
        past it still sees the accumulated delta and fires.
    max_staleness_s:
        A dispatch older than this is refreshed by the next tick even
        with both deltas quiet. Must exceed ``debounce_s``.
    """

    lambda_delta: float = 0.05
    price_delta: float = 0.05
    debounce_s: float = 120.0
    max_staleness_s: float = 900.0

    def __post_init__(self):
        # Values also arrive from checkpoint and spec JSON; NaN would
        # slip past every comparison below.
        if not all(map(math.isfinite, (
            self.lambda_delta, self.price_delta,
            self.debounce_s, self.max_staleness_s,
        ))):
            raise ValueError("trigger thresholds must be finite")
        if self.lambda_delta <= 0 or self.price_delta <= 0:
            raise ValueError("delta thresholds must be positive")
        if self.debounce_s < 0:
            raise ValueError("debounce must be >= 0")
        if self.max_staleness_s <= self.debounce_s:
            raise ValueError("max_staleness_s must exceed debounce_s")


@dataclass(frozen=True)
class DecisionEvent:
    """One dispatch decision as it entered the decision log.

    ``realized_cost_rate`` is the bill *rate* ($ per full hour at this
    operating point) under the exact stepped models, priced at the
    decision's dispatch view (the price feed as of its tick); settlement
    scales it by the fraction of the hour the decision was in force.
    """

    seq: int
    tick_seq: int
    time_s: float
    hour: int
    reason: str
    lambda_rps: float
    budget: float
    step: str
    predicted_cost: float
    realized_cost_rate: float
    allocations: tuple[tuple[str, float], ...]  # (site, rate_rps)

    def fractions(self) -> dict[str, float]:
        """Routing fractions implied by the allocation (uniform if idle)."""
        total = sum(rate for _, rate in self.allocations)
        if total <= 0:
            n = len(self.allocations)
            return {site: 1.0 / n for site, _ in self.allocations}
        return {site: rate / total for site, rate in self.allocations}

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "tick_seq": self.tick_seq,
            "time_s": self.time_s,
            "hour": self.hour,
            "reason": self.reason,
            "lambda_rps": self.lambda_rps,
            "budget": self.budget,
            "step": self.step,
            "predicted_cost": self.predicted_cost,
            "realized_cost_rate": self.realized_cost_rate,
            "allocations": [[site, rate] for site, rate in self.allocations],
        }

    def to_json(self) -> str:
        """The decision-log line (no newline); key order is fixed, and
        JSON float repr round-trips exactly, so identical events always
        serialize to identical bytes — the log-diffing contract."""
        return json.dumps(self.to_dict())


#: Schema version of :meth:`ControlLoop.state_dict` payloads. Version
#: history:
#:
#: * 1 — through the energy-only billing spine.
#: * 2 — adds the settlement ledger state (``"ledger"``); v1 payloads
#:   migrate by keeping the loop's constructed ledger (energy-only
#:   checkpoints carry no cross-hour tariff state).
LOOP_STATE_VERSION = 2


class ControlLoop:
    """Pure synchronous core: ticks in, decision events out.

    Parameters
    ----------
    engine:
        The world (sites, workload trace for ground truth, mix).
    strategy:
        A registry name or :class:`~repro.sim.engine.DispatchStrategy`.
    trigger:
        The re-dispatch :class:`TriggerPolicy`.
    budgeter:
        Optional :class:`~repro.core.Budgeter`; only legal for
        strategies that consume a budget (as in :meth:`Engine.run`).
    budget_source:
        Optional ``callable(hour) -> float`` consulted instead of a
        budgeter when an hour opens — the hook the sharded control
        plane (:mod:`repro.service.shard`) uses to hand each region
        loop its hourly allotment from the shared budget ledger.
        Mutually exclusive with ``budgeter``; spend settlement is then
        the ledger's job (fed from :meth:`settle_open_hour`), not the
        loop's. When neither is given, the loop synthesizes a source
        returning ``inf`` — budgeted and unbudgeted hours open through
        the same code path.
    tariff:
        Tariff spec string (``"energy"``, ``"energy+demand:rate=6"``)
        or a pre-built :class:`~repro.billing.SettlementLedger`. Each
        hour's time-weighted energy cost and average power accrue into
        the ledger; settlement bills through its components. ``None``
        (the default) builds the ``energy`` tariff, whose single line
        item reproduces the pre-ledger spend bit for bit.
    hours:
        Horizon in hours (default: the engine workload's length).
        Ticks beyond the horizon are ignored.
    degradation:
        Degradation policy for solver failures (default
        :attr:`~repro.resilience.DegradationPolicy.PROPORTIONAL` — an
        always-on service must not crash on a solver hiccup).
    """

    def __init__(
        self,
        engine: Engine,
        strategy,
        *,
        trigger: TriggerPolicy | None = None,
        budgeter: Budgeter | None = None,
        budget_source=None,
        tariff: "str | SettlementLedger | None" = None,
        hours: int | None = None,
        degradation: DegradationPolicy | None = DegradationPolicy.PROPORTIONAL,
        name: str | None = None,
        endogenous=None,
    ):
        self.engine = engine
        self.strategy = engine._resolve(strategy)
        #: Optional closed-loop pricing runtime
        #: (:class:`repro.sim.endogenous.EndogenousPrices`): every
        #: sub-hourly dispatch is iterated to the LMP fixed point and
        #: billed at the endogenous prices. ``None`` keeps the exogenous
        #: path bit-identical.
        self.endogenous = endogenous
        self.trigger = trigger or TriggerPolicy()
        self.horizon = engine._horizon(hours)
        self.degradation = degradation
        self.name = name or engine._run_name(self.strategy)
        if budgeter is not None and budget_source is not None:
            raise ValueError(
                "pass either a budgeter or a budget_source, not both"
            )
        if (budgeter is not None or budget_source is not None) and (
            not self.strategy.wants_budget
        ):
            raise ValueError(
                f"strategy {self.strategy.name!r} does not consume a "
                "budget; run it without a budgeter"
            )
        # Hours always open through a budget source: an explicit one
        # (the shard ledger's hook) or the synthesized budgeter-or-inf
        # source below — one code path, so the two can't drift.
        self.budget_source = (
            budget_source
            if budget_source is not None
            else self._budgeter_source
        )
        self.ledger = (
            tariff
            if isinstance(tariff, SettlementLedger)
            else make_ledger(tariff)
        )
        # A freshly restored budgeter already has its settled hours
        # recorded, so only the remaining horizon must fit.
        already = budgeter.current_hour if budgeter is not None else 0
        engine._check_budgeter(
            budgeter, self.horizon, needed=self.horizon - already
        )
        self.strategy.prepare(engine)
        self.state = RunState(budgeter=budgeter)

        # Observed state (what the dispatcher sees).
        self.lambda_now = 0.0
        self.price_scale: dict[str, float] = {}
        # The open hour's snapshots through ``price_scale``; derived
        # state, dropped whenever either moves and never checkpointed.
        self._view: list | None = None
        # Dispatch bookkeeping.
        self.decisions = 0
        self.current_record: HourRecord | None = None
        self._last_dispatch_s = 0.0
        self._lambda_at_dispatch = 0.0
        self._scale_at_dispatch: dict[str, float] = {}
        # Hour bookkeeping.
        self.hour: int | None = None
        self._start_hour = 0
        self._hour_open = False
        self.hour_budget = math.inf
        self._hour_decisions = 0
        self._segment_start = 0.0
        self._accrued: dict[str, float] = {}
        self.hour_summaries: list[dict] = []
        self.finished = False
        self._last_time = -math.inf

    # -- tick intake --------------------------------------------------------

    def on_tick(self, tick: Tick) -> tuple[DecisionEvent, ...]:
        """Advance the loop by one tick; return any decisions it caused."""
        if self.finished:
            return ()
        if tick.time_s < self._last_time:
            raise ValueError(
                f"tick {tick.seq} goes back in time "
                f"({tick.time_s} < {self._last_time})"
            )
        self._last_time = tick.time_s
        hour_of = int(tick.time_s // _HOUR_S)
        if self.hour is None:
            if hour_of < self._start_hour:
                raise ValueError(
                    f"first tick falls in hour {hour_of}, before the "
                    f"loop's start hour {self._start_hour}"
                )
            # Hours between the start and the first tick (possible on a
            # sparse feed) are settled by the catch-up loop below with
            # the decision in force, exactly as in an uninterrupted run.
            self._begin_hour(self._start_hour)
        while hour_of > self.hour:
            self._settle_hour()
            if self.hour + 1 >= self.horizon:
                self.finished = True
                return ()
            self._begin_hour(self.hour + 1)
        # Apply the observation.
        if tick.kind == "lambda":
            self.lambda_now = float(tick.value)
        else:  # "price" — validated by Tick
            self.price_scale[tick.site] = float(tick.value)
            self._view = None
        reason = self._trigger_reason(tick)
        if reason is None:
            return ()
        return (self._dispatch(tick, reason),)

    def finish(self) -> None:
        """End of stream: settle the hour in progress at its boundary.

        The decision in force is extended to the hour's end — the same
        accrual an uninterrupted stream would have produced had its
        remaining ticks caused no re-dispatch — so stream truncation
        never leaves a half-accounted hour.
        """
        if not self.finished and self._hour_open:
            self._settle_hour()
        self.finished = True

    # -- explicit hour control (the sharded two-phase barrier) --------------

    def open_hour(self, hour: int) -> None:
        """Open ``hour`` explicitly (phase 2 of a shard hour barrier).

        :meth:`on_tick` normally advances hours on its own; a shard
        worker instead settles *all* its region loops, exchanges spends
        for allotments at the budget ledger, and only then opens the
        next hour on each loop — this method is that second phase.
        Only the hour right after the last settled one is legal.
        """
        if self._hour_open:
            raise ValueError(f"hour {self.hour} is still open")
        expected = self._start_hour if self.hour is None else self.hour + 1
        if hour != expected:
            raise ValueError(f"expected hour {expected}, got {hour}")
        if hour >= self.horizon:
            raise ValueError(f"hour {hour} is past the {self.horizon} h horizon")
        self._begin_hour(hour)

    def settle_open_hour(self) -> dict | None:
        """Settle the open hour at its boundary (phase 1 of a barrier).

        Returns the hour summary, or ``None`` when no hour is open
        (idempotent, so stream-end and explicit settlement compose).
        """
        if not self._hour_open:
            return None
        return self._settle_hour()

    # -- triggers -----------------------------------------------------------

    def _trigger_reason(self, tick: Tick) -> str | None:
        if self._hour_decisions == 0:
            return "hour-start"
        since = tick.time_s - self._last_dispatch_s
        if since >= self.trigger.debounce_s:
            if self._lambda_rel_delta() >= self.trigger.lambda_delta:
                return "lambda-delta"
            if self._price_rel_delta() >= self.trigger.price_delta:
                return "price-delta"
        if since >= self.trigger.max_staleness_s:
            return "staleness"
        return None

    def _lambda_rel_delta(self) -> float:
        base = self._lambda_at_dispatch
        if base <= 0:
            return math.inf if self.lambda_now > 0 else 0.0
        return abs(self.lambda_now - base) / base

    def _price_rel_delta(self) -> float:
        worst = 0.0
        for site, scale in self.price_scale.items():
            base = self._scale_at_dispatch.get(site, 1.0)
            worst = max(worst, abs(scale - base) / base)
        return worst

    # -- dispatch -----------------------------------------------------------

    def _observed_site_hours(self):
        """This hour's snapshots through the price-feed scale lens.

        Built once per hour and price-scale state: every re-dispatch
        on the same view gets the same list, whose identical snapshots
        the kernel's table memo then matches without comparing values.
        """
        view = self._view
        if view is not None:
            return view
        view = self.engine._site_hours(self.hour)
        if self.price_scale:
            view = [
                sh if (s := self.price_scale.get(sh.name, 1.0)) == 1.0
                else dataclasses.replace(
                    sh, background_mw=sh.background_mw * s
                )
                for sh in view
            ]
        self._view = view
        return view

    def _dispatch(self, tick: Tick, reason: str) -> DecisionEvent:
        tel = get_telemetry()
        self._close_segment(tick.time_s)
        ctx = HourContext(
            hour=self.hour,
            strategy=self.strategy,
            run_name=self.name,
            degradation=self.degradation,
        )
        ctx.total_rps = self.lambda_now
        ctx.demand_premium_rps = self.engine.mix.premium_rate(self.lambda_now)
        ctx.demand_ordinary_rps = self.engine.mix.ordinary_rate(self.lambda_now)
        # The decision is billed at the price-feed view it was
        # dispatched on: a feed that only misled the dispatcher would
        # bill it at prices it never saw.
        ctx.site_hours = ctx.market = self._observed_site_hours()
        ctx.budget = self.hour_budget
        ctx.ledger = self.ledger
        with tel.span("service.dispatch", hour=self.hour, reason=reason):
            dispatch_with_degradation(ctx, self.state)
            if self.endogenous is not None:
                self.endogenous.apply(ctx, self.state)
            decision = ctx.decision
            record = self.engine._realize(self.hour, decision, ctx.market)
        tel.counter("service.dispatches").inc()
        tel.counter(f"service.trigger.{reason}").inc()

        self.current_record = record
        self._hour_decisions += 1
        self._last_dispatch_s = tick.time_s
        self._lambda_at_dispatch = self.lambda_now
        self._scale_at_dispatch = dict(self.price_scale)
        event = DecisionEvent(
            seq=self.decisions,
            tick_seq=tick.seq,
            time_s=tick.time_s,
            hour=self.hour,
            reason=reason,
            lambda_rps=self.lambda_now,
            budget=self.hour_budget,
            step=decision.step.value,
            predicted_cost=decision.predicted_cost,
            realized_cost_rate=record.realized_cost,
            allocations=tuple(
                (a.site, a.rate_rps) for a in decision.allocations
            ),
        )
        self.decisions += 1
        return event

    # -- hour accounting ----------------------------------------------------

    def _budgeter_source(self, hour: int) -> float:
        """Default budget source: the budgeter's hourly budget, or
        ``inf`` when the loop runs uncapped — the same shape as the
        shard ledger's external source, so :meth:`_begin_hour` has one
        path regardless of who allots the hour."""
        budgeter = self.state.budgeter
        return budgeter.hourly_budget() if budgeter is not None else math.inf

    def _begin_hour(self, hour: int) -> None:
        self.hour = hour
        self._view = None
        self._hour_open = True
        self._hour_decisions = 0
        self._segment_start = hour * _HOUR_S
        self._accrued = {
            "realized_cost": 0.0,
            "served_premium_rps": 0.0,
            "served_ordinary_rps": 0.0,
            "demand_premium_rps": 0.0,
            "demand_ordinary_rps": 0.0,
        }
        self.hour_budget = float(self.budget_source(hour))

    def _close_segment(self, end_s: float) -> None:
        """Accrue the in-force decision over ``[segment_start, end_s)``.

        Weights are fractions of the hour, so a decision in force for
        the whole hour contributes exactly its full-hour record — the
        batch-engine equivalence the determinism tests rely on.
        """
        record = self.current_record
        weight = (end_s - self._segment_start) / _HOUR_S
        if record is not None and weight > 0:
            acc = self._accrued
            acc["realized_cost"] += record.realized_cost * weight
            acc["served_premium_rps"] += record.served_premium_rps * weight
            acc["served_ordinary_rps"] += record.served_ordinary_rps * weight
            acc["demand_premium_rps"] += record.demand_premium_rps * weight
            acc["demand_ordinary_rps"] += record.demand_ordinary_rps * weight
            # Same `x * weight` fold the accruals above use, so the
            # ledger's energy equals acc["realized_cost"] bit for bit.
            self.ledger.accrue(
                record.realized_cost, record.total_power_mw, weight
            )
        self._segment_start = end_s

    def _settle_hour(self) -> dict:
        self._close_segment((self.hour + 1) * _HOUR_S)
        items = self.ledger.settle(self.hour)
        spend = SettlementLedger.total(items)
        summary = {
            "hour": self.hour,
            "budget": self.hour_budget,
            "decisions": self._hour_decisions,
            **self._accrued,
            "spend": spend,
            "line_items": [li.to_dict() for li in items],
        }
        budgeter = self.state.budgeter
        if budgeter is not None:
            budgeter.record_spend(spend)
        self.hour_summaries.append(summary)
        self._hour_open = False
        get_telemetry().counter("service.hours_settled").inc()
        return summary

    # -- aggregate view ------------------------------------------------------

    @property
    def settled_hours(self) -> int:
        return len(self.hour_summaries)

    # -- checkpoint state ----------------------------------------------------
    # Valid only at a settled hour boundary (right after an hour
    # settles), where the in-progress-hour accruals are empty by
    # construction.

    def state_dict(self) -> dict:
        return {
            "v": LOOP_STATE_VERSION,
            "settled_hours": self.settled_hours,
            "lambda_now": self.lambda_now,
            "price_scale": dict(self.price_scale),
            "decisions": self.decisions,
            "hour_summaries": list(self.hour_summaries),
            "current_record": (
                self.current_record.to_dict()
                if self.current_record is not None
                else None
            ),
            "last_good": (
                self.state.last_good.to_dict()
                if self.state.last_good is not None
                else None
            ),
            "ledger": self.ledger.to_dict(),
        }

    def load_state(self, data: dict) -> None:
        """Rewind to a settled hour boundary captured by :meth:`state_dict`.

        The budgeter (already restored by the caller into
        ``self.state.budgeter``) and strategy state are external to the
        loop, mirroring the engine checkpoint layout.
        """
        version = data.get("v")
        if version not in (1, LOOP_STATE_VERSION):
            raise ValueError(
                f"unsupported control-loop state version {version!r} "
                f"(expected {LOOP_STATE_VERSION})"
            )
        self._start_hour = int(data["settled_hours"])
        if self._start_hour >= self.horizon:
            raise ValueError(
                f"checkpoint already covers {self._start_hour} hours of a "
                f"{self.horizon} h horizon; nothing left to run"
            )
        self.engine._check_budgeter(
            self.state.budgeter,
            self.horizon,
            needed=self.horizon - self._start_hour,
        )
        self.lambda_now = float(data["lambda_now"])
        self.price_scale = dict(data["price_scale"])
        self._view = None
        self.decisions = int(data["decisions"])
        self.hour_summaries = list(data["hour_summaries"])
        self.current_record = (
            HourRecord.from_dict(data["current_record"])
            if data.get("current_record") is not None
            else None
        )
        self.state.last_good = (
            HourlyDecision.from_dict(data["last_good"])
            if data.get("last_good") is not None
            else None
        )
        # v1 states predate the ledger: keep the constructed one (the
        # energy-only default carries no cross-hour tariff state).
        if data.get("ledger") is not None:
            self.ledger = restore_ledger(data["ledger"])
        self._last_time = self._start_hour * _HOUR_S


def run_serial(loop: ControlLoop, ticks) -> list[DecisionEvent]:
    """Drive a loop through a tick sequence without an event loop.

    The reference execution: the in-process serve plane must produce
    exactly this sequence of events for the same ticks.
    """
    events: list[DecisionEvent] = []
    for tick in ticks:
        events.extend(loop.on_tick(tick))
    loop.finish()
    return events
