"""The budgeter: monthly cost budget -> hourly budgets.

Section III + VI-B: "When the budgeter receives a monthly budget at the
beginning of the budgeting period ... it breaks the monthly budget into
hourly budgets based on the historical incoming workload data." The
hourly budget reflects (i) the monthly budget, (ii) what was already
spent, and (iii) hour-of-week workload weights from the trailing weeks
of history. Unused budget is carried over "from previous invocation
periods to the remaining invocation periods in the same week" — which
is why Figure 6's hourly budget grows over each week.

:class:`Budgeter` is stateful across the month: call
:meth:`hourly_budget` at the start of each hour and
:meth:`record_spend` with the realized cost afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from ..telemetry import get_telemetry
from ..workload import HOURS_PER_WEEK, HourOfWeekPredictor

__all__ = [
    "Budgeter",
    "available_budget",
    "clawed_back_carry",
    "month_weights",
]


def month_weights(
    predictor: HourOfWeekPredictor, month_hours: int, start_weekday: int
) -> np.ndarray:
    """Per-hour budget weights over the month, summing to 1.

    The hour-of-week profile tiled across the month and normalized,
    falling back to uniform weights on an all-zero profile. Shared by
    :class:`Budgeter` and
    :class:`~repro.core.robust_budgeter.AdaptiveBudgeter` so the two
    splitters can never disagree on what an hour's predicted share is.
    """
    weekly = predictor.weekly_profile()
    idx = (np.arange(month_hours) + start_weekday * 24) % HOURS_PER_WEEK
    profile = weekly[idx]
    total = profile.sum()
    if total <= 0:
        return np.full(month_hours, 1.0 / month_hours)
    return profile / total


def available_budget(base: float, carry: float, *, carryover: bool) -> float:
    """The zero-floored budget an hour actually hands the dispatcher.

    ``base`` plus the week's carryover (when enabled), floored at zero:
    a claw-back-driven negative balance must never surface as a
    negative hourly budget. Both budgeters route every budget they
    publish — and every overspend test — through this one floor.
    """
    budget = base
    if carryover:
        budget += carry
    return max(0.0, budget)


def clawed_back_carry(
    available: float, cost: float, *, claw_back_deficit: bool
) -> float:
    """Carryover left after settling an hour that was handed ``available``.

    Unused budget rolls forward; a deficit is forgotten (the paper's
    behaviour — overspent hours simply violate the budget) unless
    ``claw_back_deficit`` keeps it negative to starve later hours.
    """
    carry = available - cost
    if not claw_back_deficit:
        carry = max(0.0, carry)
    return carry


class Budgeter:
    """Splits a monthly electricity budget into carryover-aware hourly ones.

    Parameters
    ----------
    monthly_budget:
        Total budget for the budgeting period, $.
    predictor:
        Hour-of-week workload predictor built from history (the paper's
        two trailing weeks).
    month_hours:
        Invocation periods in the budgeting period (default 30 days).
    start_weekday:
        Weekday of the month's first hour (0 = Monday); aligns the
        weight profile with the real calendar.
    carryover:
        Roll unused budget forward within each week (paper behaviour);
        disable for the ablation study.
    claw_back_deficit:
        When an hour overspends (the mandatory-premium case of Section
        V-B), subtract the deficit from later hours' budgets. The paper
        carries over only *unused* budget — overspent hours simply
        violate the budget (Figure 8) — so this defaults to off; it is
        exposed for the ablation study (aggressive claw-back starves
        ordinary customers for the rest of the week).
    """

    def __init__(
        self,
        monthly_budget: float,
        predictor: HourOfWeekPredictor,
        month_hours: int = 30 * 24,
        start_weekday: int = 0,
        carryover: bool = True,
        claw_back_deficit: bool = False,
    ):
        if not (math.isfinite(monthly_budget) and monthly_budget >= 0):
            raise ValueError("monthly budget must be finite and >= 0")
        if month_hours <= 0:
            raise ValueError("month_hours must be positive")
        self.monthly_budget = float(monthly_budget)
        self.month_hours = int(month_hours)
        self.start_weekday = int(start_weekday)
        self.carryover = carryover
        self.claw_back_deficit = claw_back_deficit
        self._weights = month_weights(predictor, month_hours, start_weekday)
        self._base = self.monthly_budget * self._weights
        self._spent = np.zeros(month_hours)
        self._next_hour = 0
        self._carry = 0.0

    # -- the hourly protocol ----------------------------------------------------

    @property
    def current_hour(self) -> int:
        """Index of the next hour to be budgeted."""
        return self._next_hour

    def base_budget(self, hour: int) -> float:
        """The hour's weight-proportional share of the monthly budget."""
        return float(self._base[hour])

    def hourly_budget(self) -> float:
        """Budget available for the current hour (base + carryover)."""
        if self._next_hour >= self.month_hours:
            raise RuntimeError("budgeting period exhausted")
        return available_budget(
            self.base_budget(self._next_hour),
            self._carry,
            carryover=self.carryover,
        )

    def record_spend(self, cost: float) -> None:
        """Record the hour's realized cost and advance to the next hour.

        Unused budget is carried to the next hour of the same week; an
        overspent hour (the mandatory-premium case of Section V-B)
        simply violates the budget unless ``claw_back_deficit`` is on.
        """
        if not cost >= 0:  # also rejects NaN
            raise ValueError("cost must be >= 0")
        hour = self._next_hour
        if hour >= self.month_hours:
            raise RuntimeError("budgeting period exhausted")
        self._spent[hour] = cost
        # Same floor as hourly_budget(): carry and the overspend test are
        # relative to the budget the capper was actually handed, not to a
        # claw-back-driven negative balance it never saw.
        available = available_budget(
            self.base_budget(hour), self._carry, carryover=self.carryover
        )
        self._carry = clawed_back_carry(
            available, cost, claw_back_deficit=self.claw_back_deficit
        )
        self._next_hour += 1
        # Weeks are budgeted independently: carryover resets at calendar
        # week edges (aligned with the start weekday).
        if (self.start_weekday * 24 + self._next_hour) % HOURS_PER_WEEK == 0:
            self._carry = 0.0
        tel = get_telemetry()
        if tel.enabled:
            tel.histogram("budgeter.hourly_budget").observe(available)
            tel.histogram("budgeter.spend").observe(cost)
            tel.gauge("budgeter.carryover").set(self._carry)
            if cost > available:
                tel.counter("budgeter.overspend_hours").inc()

    # -- checkpoint / restore ----------------------------------------------------

    #: Checkpoint schema version; bump when the payload shape changes.
    CHECKPOINT_VERSION = 1

    def checkpoint(self) -> dict:
        """Snapshot the full budgeting state as a JSON-serializable dict.

        A budgeter restored from this snapshot produces exactly the
        same remaining hourly budgets as the original: the month
        weights, per-hour spend, carryover and position all round-trip.
        """
        return {
            "version": self.CHECKPOINT_VERSION,
            "monthly_budget": self.monthly_budget,
            "month_hours": self.month_hours,
            "start_weekday": self.start_weekday,
            "carryover": self.carryover,
            "claw_back_deficit": self.claw_back_deficit,
            "weights": self._weights.tolist(),
            "spent": self._spent.tolist(),
            "next_hour": self._next_hour,
            "carry": self._carry,
        }

    @classmethod
    def restore(cls, state: dict) -> "Budgeter":
        """Rebuild a budgeter from a :meth:`checkpoint` snapshot.

        No predictor is needed: the derived month weights are part of
        the snapshot. Raises :class:`ValueError` on version or shape
        mismatches rather than resuming from corrupt state.
        """
        version = state.get("version")
        if version != cls.CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported budgeter checkpoint version {version!r} "
                f"(expected {cls.CHECKPOINT_VERSION})"
            )
        month_hours = int(state["month_hours"])
        weights = np.asarray(state["weights"], dtype=float)
        spent = np.asarray(state["spent"], dtype=float)
        next_hour = int(state["next_hour"])
        if month_hours <= 0:
            raise ValueError("checkpoint month_hours must be positive")
        monthly_budget = float(state["monthly_budget"])
        if not (math.isfinite(monthly_budget) and monthly_budget >= 0):
            raise ValueError("checkpoint monthly budget must be finite and >= 0")
        if weights.shape != (month_hours,) or spent.shape != (month_hours,):
            raise ValueError(
                "checkpoint weights/spent do not match month_hours "
                f"({weights.shape}/{spent.shape} vs {month_hours})"
            )
        if not 0 <= next_hour <= month_hours:
            raise ValueError(f"checkpoint next_hour {next_hour} out of range")
        b = cls.__new__(cls)
        b.monthly_budget = monthly_budget
        b.month_hours = month_hours
        b.start_weekday = int(state["start_weekday"])
        b.carryover = bool(state["carryover"])
        b.claw_back_deficit = bool(state["claw_back_deficit"])
        b._weights = weights
        b._base = b.monthly_budget * weights
        b._spent = spent
        b._next_hour = next_hour
        b._carry = float(state["carry"])
        return b

    # -- reporting ----------------------------------------------------------------

    @property
    def total_spent(self) -> float:
        return float(self._spent[: self._next_hour].sum())

    @property
    def remaining_budget(self) -> float:
        return self.monthly_budget - self.total_spent

    def spent_through(self, hour: int) -> float:
        """Cumulative spend through hour ``hour`` (exclusive)."""
        return float(self._spent[:hour].sum())
