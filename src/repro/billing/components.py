"""Tariff components: the per-hour charges a settlement is made of.

The paper's bill model is energy-only — the hourly bill is the sum of
the sites' stepped energy charges, and a single scalar rode through the
budgeter, the engine settle stage, the service accrual and the shard
ledger. Real cloud tariffs add more terms, most importantly a **demand
charge**: a per-kW price on the billing cycle's peak average power.

This module defines the component protocol and the first two concrete
components:

* :class:`EnergyCharge` — reproduces today's bill bit-for-bit: its line
  item *is* the accrued realized energy cost, unchanged.
* :class:`DemandCharge` — tracks the billing-cycle peak of the hourly
  average power and bills the *increment* each hour, so the cycle's
  line items always sum to ``rate × cycle_peak_kW`` no matter when the
  cycle is cut by a checkpoint/resume.

Components are stateful across the hours of one run (the demand charge
carries its cycle peak) and serialize through ``to_dict``/``from_dict``
for checkpoints, exactly like strategies and budgeters do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "HourUsage",
    "LineItem",
    "TariffComponent",
    "EnergyCharge",
    "DemandCharge",
    "DEFAULT_DEMAND_RATE_PER_KW",
    "HOURS_PER_MONTH",
]

#: Default demand-charge rate ($ per kW of billing-cycle peak). Real
#: utility tariffs run $5-20/kW-month; the paper world draws ~100 MW at
#: ~$1M/month energy, where $12/kW would dominate the bill. The default
#: is deliberately mild so `energy+demand` perturbs rather than
#: replaces the energy economics; sweeps scan the interesting range.
DEFAULT_DEMAND_RATE_PER_KW = 2.0

#: Default billing-cycle length: one month of hours (the paper's 30-day
#: month), matching the budgeter's month horizon.
HOURS_PER_MONTH = 720


@dataclass(frozen=True)
class HourUsage:
    """What one settled hour consumed — the input to ``charge``.

    ``energy_cost`` is the accrued realized energy cost over the hour
    ($); ``power_mw`` is the time-weighted average fleet power (MW).
    For whole-hour engine settles the average is just the hour's
    ``total_power_mw``; the service control loop accrues both with the
    same segment weights it uses for everything else.
    """

    hour: int
    energy_cost: float
    power_mw: float


@dataclass(frozen=True)
class LineItem:
    """One component's charge for one settled hour."""

    component: str
    amount: float
    detail: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"component": self.component, "amount": self.amount}
        if self.detail:
            out["detail"] = dict(self.detail)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "LineItem":
        return cls(
            component=str(data["component"]),
            amount=float(data["amount"]),
            detail=dict(data.get("detail", {})),
        )


class TariffComponent:
    """Base class / protocol for one term of a tariff.

    Subclasses implement :meth:`charge` (consume one hour's usage,
    update any accrual state, return the hour's line item) and the
    ``to_dict``/``from_dict`` checkpoint pair. The remaining hooks have
    neutral defaults:

    * :meth:`project` — the charge this hour's *candidate* dispatch
      would add, used by the capper to reserve budget headroom before
      committing;
    * :meth:`peak_term` — ``(cycle_peak_mw, penalty_per_mw)`` when the
      component prices peak power, feeding the linearized peak term in
      the dispatch MILP; ``None`` otherwise.
    """

    #: Registry name; instances of one class share it.
    name = "component"

    def charge(self, hour_ctx: HourUsage) -> LineItem:
        raise NotImplementedError

    def project(self, hour: int, energy_cost: float, power_mw: float) -> float:
        return 0.0

    def peak_term(self, hour: int) -> tuple[float, float] | None:
        return None

    def to_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: Mapping) -> "TariffComponent":
        raise NotImplementedError

    @classmethod
    def from_params(cls, params: Mapping[str, str]) -> "TariffComponent":
        """Build from CLI spec parameters (``demand:rate=4,cycle=168``)."""
        if params:
            raise ValueError(
                f"tariff component {cls.name!r} takes no parameters, got "
                f"{sorted(params)}"
            )
        return cls()


class EnergyCharge(TariffComponent):
    """The paper's energy-only bill, verbatim.

    The line item's amount is exactly the accrued realized energy cost
    — the same float the pre-tariff code fed straight to
    ``Budgeter.record_spend`` — so a ledger holding only this component
    settles bit-identically to the old scalar plumbing.
    """

    name = "energy"

    def charge(self, hour_ctx: HourUsage) -> LineItem:
        return LineItem("energy", hour_ctx.energy_cost)

    def project(self, hour: int, energy_cost: float, power_mw: float) -> float:
        return energy_cost

    def to_dict(self) -> dict:
        return {"kind": "energy"}

    @classmethod
    def from_dict(cls, data: Mapping) -> "EnergyCharge":
        return cls()


class DemandCharge(TariffComponent):
    """Billing-cycle peak-demand charge, billed incrementally.

    Tracks the running peak of the hourly average power within the
    current billing cycle (``hour // cycle_hours``). Each settled hour
    bills only the *new* peak established that hour::

        amount = penalty_per_mw * max(0, power_mw - peak_so_far)

    so the cycle's line items telescope to ``penalty * cycle_peak`` —
    the classic demand charge — while staying attributable hour by
    hour, surviving checkpoint/resume mid-cycle, and folding across
    shard regions like any other spend. A new cycle resets the peak.

    ``peak_term`` exposes ``(cycle_peak_mw, penalty_per_mw)`` to the
    dispatcher: the capper adds a ``peak_excess`` variable to the MILP
    priced at the penalty, which is exactly this marginal charge, so
    the optimizer shaves peaks only when the energy saved elsewhere
    doesn't cover the demand charge incurred.
    """

    name = "demand"

    def __init__(
        self,
        rate_per_kw: float = DEFAULT_DEMAND_RATE_PER_KW,
        cycle_hours: int = HOURS_PER_MONTH,
    ) -> None:
        # NaN fails every comparison, so the sign check alone would
        # let it (and inf) through into a $nan bill or an infeasible
        # peak row.
        if not (math.isfinite(rate_per_kw) and rate_per_kw >= 0):
            raise ValueError(
                f"demand rate must be finite and >= 0, got {rate_per_kw}"
            )
        if cycle_hours < 1:
            raise ValueError("billing cycle must be >= 1 hour")
        self.rate_per_kw = float(rate_per_kw)
        self.cycle_hours = int(cycle_hours)
        #: Peak hourly average power (MW) seen in the current cycle.
        self.peak_mw = 0.0
        #: Index of the cycle ``peak_mw`` belongs to; None = unstarted.
        self.cycle: int | None = None

    @property
    def penalty_per_mw(self) -> float:
        """Demand-charge rate in $ per MW of cycle peak."""
        return self.rate_per_kw * 1000.0

    def _cycle_peak(self, hour: int) -> float:
        """The effective prior peak for ``hour`` (0 across a cycle cut)."""
        if self.cycle is not None and hour // self.cycle_hours == self.cycle:
            return self.peak_mw
        return 0.0

    def charge(self, hour_ctx: HourUsage) -> LineItem:
        cycle = hour_ctx.hour // self.cycle_hours
        if cycle != self.cycle:
            self.cycle = cycle
            self.peak_mw = 0.0
        increment = max(0.0, hour_ctx.power_mw - self.peak_mw)
        self.peak_mw = max(self.peak_mw, hour_ctx.power_mw)
        return LineItem(
            "demand",
            self.penalty_per_mw * increment,
            detail={"peak_mw": self.peak_mw, "increment_mw": increment},
        )

    def project(self, hour: int, energy_cost: float, power_mw: float) -> float:
        return self.penalty_per_mw * max(
            0.0, power_mw - self._cycle_peak(hour)
        )

    def peak_term(self, hour: int) -> tuple[float, float] | None:
        if self.penalty_per_mw <= 0.0:
            return None
        return (self._cycle_peak(hour), self.penalty_per_mw)

    def to_dict(self) -> dict:
        return {
            "kind": "demand",
            "rate_per_kw": self.rate_per_kw,
            "cycle_hours": self.cycle_hours,
            "peak_mw": self.peak_mw,
            "cycle": self.cycle,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DemandCharge":
        out = cls(
            rate_per_kw=float(data["rate_per_kw"]),
            cycle_hours=int(data["cycle_hours"]),
        )
        out.peak_mw = float(data["peak_mw"])
        cycle = data.get("cycle")
        out.cycle = None if cycle is None else int(cycle)
        return out

    @classmethod
    def from_params(cls, params: Mapping[str, str]) -> "DemandCharge":
        kwargs: dict = {}
        for key, value in params.items():
            if key in ("rate", "rate_per_kw"):
                kwargs["rate_per_kw"] = float(value)
            elif key in ("cycle", "cycle_hours"):
                kwargs["cycle_hours"] = int(value)
            else:
                raise ValueError(
                    f"unknown demand-charge parameter {key!r}; expected "
                    "'rate' or 'cycle'"
                )
        return cls(**kwargs)
