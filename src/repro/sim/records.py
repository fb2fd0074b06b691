"""Per-hour simulation records and aggregate summaries."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..billing import LineItem
from ..core import CappingStep

__all__ = ["RECORD_VERSION", "SiteRecord", "HourRecord", "SimulationResult"]

#: Schema version of serialized :class:`HourRecord` payloads. Bump when
#: a record's shape changes incompatibly; :meth:`HourRecord.from_dict`
#: rejects mismatches with a clear error instead of a ``KeyError`` deep
#: inside a checkpoint load. Version history:
#:
#: * 1 — through the energy-only billing spine.
#: * 2 — adds per-component ``line_items`` from the settlement ledger;
#:   v1 payloads migrate with an empty item list (their realized cost
#:   *is* the energy line item).
RECORD_VERSION = 2


@dataclass(frozen=True)
class SiteRecord:
    """Realized per-site outcome for one hour (exact models)."""

    site: str
    dispatched_rps: float
    served_rps: float
    power_mw: float
    price: float
    cost: float
    n_servers: int
    response_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SiteRecord":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"malformed site record: {exc}") from None


@dataclass(frozen=True)
class HourRecord:
    """One invocation period of a simulated month.

    ``budget`` is the hourly budget in force (``inf`` when uncapped);
    ``realized_cost`` is the bill actually incurred under the exact
    power models and stepped prices; ``predicted_cost`` is what the
    dispatcher's decision model expected. ``line_items`` is the
    settlement ledger's per-component breakdown of the hour's bill
    (energy, demand charge, ...); under the default ``energy`` tariff
    the single item's amount equals ``realized_cost`` exactly.
    """

    hour: int
    step: CappingStep
    budget: float
    predicted_cost: float
    realized_cost: float
    demand_premium_rps: float
    demand_ordinary_rps: float
    served_premium_rps: float
    served_ordinary_rps: float
    sites: tuple[SiteRecord, ...]
    line_items: tuple[LineItem, ...] = ()

    @property
    def served_total_rps(self) -> float:
        return self.served_premium_rps + self.served_ordinary_rps

    @property
    def demand_total_rps(self) -> float:
        return self.demand_premium_rps + self.demand_ordinary_rps

    @property
    def over_budget(self) -> bool:
        """True when the hour's full bill settled above its budget.

        Compares :attr:`settled_cost`, the bill the cap and the
        budgeter see, so a demand line pushing an hour over counts.
        """
        return self.settled_cost > self.budget * (1 + 1e-9)

    @property
    def degraded(self) -> bool:
        """True when a degradation policy (not a solve) dispatched this hour."""
        return self.step is CappingStep.DEGRADED

    @property
    def total_power_mw(self) -> float:
        return sum(s.power_mw for s in self.sites)

    @property
    def settled_cost(self) -> float:
        """The hour's full bill across tariff components.

        Folded from 0.0 in ledger order; equals ``realized_cost``
        bitwise under the energy-only tariff (``0.0 + x == x``). Hours
        recorded without a ledger (decision records inside the service
        loop, migrated v1 checkpoints) fall back to the energy cost.
        """
        if not self.line_items:
            return self.realized_cost
        total = 0.0
        for item in self.line_items:
            total += item.amount
        return total

    def line_item(self, component: str) -> LineItem | None:
        for item in self.line_items:
            if item.component == component:
                return item
        return None

    @property
    def worst_response_time_s(self) -> float:
        """Slowest realized mean response time across active sites."""
        active = [s.response_time_s for s in self.sites if s.served_rps > 0]
        return max(active) if active else 0.0

    # -- serialization (engine checkpoints) ---------------------------------------
    # JSON float round-trips are exact (repr-based, Infinity included),
    # so a record restored from a checkpoint is field-for-field
    # identical — the engine's resume bit-identity rests on this.

    def to_dict(self) -> dict:
        return {
            "v": RECORD_VERSION,
            "hour": self.hour,
            "step": self.step.value,
            "budget": self.budget,
            "predicted_cost": self.predicted_cost,
            "realized_cost": self.realized_cost,
            "demand_premium_rps": self.demand_premium_rps,
            "demand_ordinary_rps": self.demand_ordinary_rps,
            "served_premium_rps": self.served_premium_rps,
            "served_ordinary_rps": self.served_ordinary_rps,
            "sites": [s.to_dict() for s in self.sites],
            "line_items": [li.to_dict() for li in self.line_items],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HourRecord":
        version = data.get("v")
        if version not in (1, RECORD_VERSION):
            raise ValueError(
                f"unsupported hour-record version {version!r} (expected "
                f"{RECORD_VERSION}); the checkpoint was written by an "
                "incompatible release"
            )
        try:
            return cls(
                hour=data["hour"],
                step=CappingStep(data["step"]),
                budget=data["budget"],
                predicted_cost=data["predicted_cost"],
                realized_cost=data["realized_cost"],
                demand_premium_rps=data["demand_premium_rps"],
                demand_ordinary_rps=data["demand_ordinary_rps"],
                served_premium_rps=data["served_premium_rps"],
                served_ordinary_rps=data["served_ordinary_rps"],
                sites=tuple(SiteRecord.from_dict(s) for s in data["sites"]),
                # v1 payloads predate line items; their realized cost
                # *is* the (single, energy) charge, so migration keeps
                # settled_cost identical.
                line_items=tuple(
                    LineItem.from_dict(li) for li in data.get("line_items", ())
                ),
            )
        except KeyError as exc:
            raise ValueError(f"hour record missing field {exc}") from None


@dataclass
class SimulationResult:
    """A simulated month: every hour's record plus aggregate views."""

    name: str
    hours: list[HourRecord] = field(default_factory=list)

    def append(self, record: HourRecord) -> None:
        self.hours.append(record)

    def __len__(self) -> int:
        return len(self.hours)

    # -- series ---------------------------------------------------------------

    def _series(self, getter) -> np.ndarray:
        return np.array([getter(h) for h in self.hours])

    @property
    def hourly_costs(self) -> np.ndarray:
        """Each hour's energy cost (``realized_cost``), $."""
        return self._series(lambda h: h.realized_cost)

    @property
    def hourly_bills(self) -> np.ndarray:
        """Each hour's full bill across tariff components (``settled_cost``), $."""
        return self._series(lambda h: h.settled_cost)

    @property
    def hourly_budgets(self) -> np.ndarray:
        return self._series(lambda h: h.budget)

    @property
    def hourly_power_mw(self) -> np.ndarray:
        return self._series(lambda h: h.total_power_mw)

    @property
    def served_premium(self) -> np.ndarray:
        return self._series(lambda h: h.served_premium_rps)

    @property
    def served_ordinary(self) -> np.ndarray:
        return self._series(lambda h: h.served_ordinary_rps)

    @property
    def demand_premium(self) -> np.ndarray:
        return self._series(lambda h: h.demand_premium_rps)

    @property
    def demand_ordinary(self) -> np.ndarray:
        return self._series(lambda h: h.demand_ordinary_rps)

    # -- aggregates -------------------------------------------------------------

    @property
    def total_cost(self) -> float:
        """The monthly electricity bill, $: every hour's settled bill.

        Under the energy-only tariff each hour settles at its
        ``realized_cost`` bit for bit, so this is the energy cost.
        """
        return float(self.hourly_bills.sum())

    @property
    def premium_throughput_fraction(self) -> float:
        """Served / offered premium requests over the month."""
        demand = self.demand_premium.sum()
        return float(self.served_premium.sum() / demand) if demand > 0 else 1.0

    @property
    def ordinary_throughput_fraction(self) -> float:
        """Served / offered ordinary requests over the month."""
        demand = self.demand_ordinary.sum()
        return float(self.served_ordinary.sum() / demand) if demand > 0 else 1.0

    @property
    def hours_over_budget(self) -> int:
        return int(sum(h.over_budget for h in self.hours))

    @property
    def degraded_hours(self) -> int:
        """Hours dispatched by a degradation policy instead of a solve."""
        return int(sum(h.degraded for h in self.hours))

    def budget_utilization(self, monthly_budget: float) -> float:
        """Total spend as a fraction of the monthly budget."""
        if monthly_budget <= 0:
            raise ValueError("monthly budget must be positive")
        return self.total_cost / monthly_budget

    def step_counts(self) -> dict[CappingStep, int]:
        """How many hours each algorithm branch decided."""
        out: dict[CappingStep, int] = {}
        for h in self.hours:
            out[h.step] = out.get(h.step, 0) + 1
        return out

    def summary(self) -> dict[str, float]:
        """A flat dict of the headline metrics (for reports/benches)."""
        return {
            "total_cost": self.total_cost,
            "mean_hourly_cost": float(self.hourly_bills.mean()) if self.hours else 0.0,
            "premium_throughput": self.premium_throughput_fraction,
            "ordinary_throughput": self.ordinary_throughput_fraction,
            "hours_over_budget": float(self.hours_over_budget),
            "degraded_hours": float(self.degraded_hours),
            "peak_power_mw": float(self.hourly_power_mw.max()) if self.hours else 0.0,
        }

    # -- export -------------------------------------------------------------------

    def to_csv(self, path) -> "Path":
        """Write the hourly series (plus per-site columns) to a CSV file.

        One row per hour: step, budget, costs, class demand/served, and
        ``<site>_rate``/``<site>_power``/``<site>_price`` columns per
        site — everything needed to re-plot the paper's figures with
        external tooling.
        """
        import csv
        from pathlib import Path

        path = Path(path)
        if not self.hours:
            raise ValueError("empty result")
        site_names = [rec.site for rec in self.hours[0].sites]
        header = [
            "hour", "step", "budget", "predicted_cost", "realized_cost",
            "demand_premium_rps", "served_premium_rps",
            "demand_ordinary_rps", "served_ordinary_rps",
        ]
        for s in site_names:
            header += [f"{s}_rate_rps", f"{s}_power_mw", f"{s}_price"]
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for h in self.hours:
                row = [
                    h.hour, h.step.value,
                    "" if h.budget == float("inf") else repr(h.budget),
                    repr(h.predicted_cost), repr(h.realized_cost),
                    repr(h.demand_premium_rps), repr(h.served_premium_rps),
                    repr(h.demand_ordinary_rps), repr(h.served_ordinary_rps),
                ]
                by_name = {rec.site: rec for rec in h.sites}
                for s in site_names:
                    rec = by_name[s]
                    row += [repr(rec.served_rps), repr(rec.power_mw), repr(rec.price)]
                writer.writerow(row)
        return path
