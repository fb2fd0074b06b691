"""Output checks every timed run applies to its own results.

An *operation* is one simulated hour on the batch workloads and one
published decision on ``serve-storm``. Each operation is checked
against the paper's guarantees and the repo's settlement contract; an
operation that fails any check counts once against ``ok_ops_frac``,
and every failed check is tallied by name so the result line says
which guarantee broke.

Checks (names as reported):

* ``premium-served`` — the premium load offered was served in full, up
  to what the fleet can physically serve that hour (the capper clamps
  offered load to servable capacity before it splits classes);
* ``overspend-unflagged`` — spend went over the hour's budget on an
  operation not flagged ``premium-only`` or ``degraded``;
* ``degraded`` — the operation fell back to a degradation policy;
* ``line-items`` — the tariff's line items do not sum to the spend the
  budget ledger recorded for the hour (a settlement-contract breach);
* ``closedloop-converged`` — the hour's dispatch <-> DC-OPF fixed point
  fell back or oscillated;
* ``raised`` — the run raised before the operation completed.

``line-items`` is a contract of the program rather than a service
guarantee, so it also clears ``consistent`` (reported as the result
line's ``correct`` together with the benchmark's own determinism
checks).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

#: Relative slack for float comparisons against budgets and sums.
REL_TOL = 1e-9

FLAGGED_STEPS = ("premium-only", "degraded")


@dataclass
class Tally:
    """Operations attempted and failed, with failures by check name."""

    attempted: int = 0
    failed: int = 0
    by_check: Counter = field(default_factory=Counter)
    consistent: bool = True

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.by_check.update(failures)
            if "line-items" in failures:
                self.consistent = False

    def record_raised(self, count: int) -> None:
        """``count`` operations that never completed because a run raised."""
        self.attempted += count
        self.failed += count
        self.by_check["raised"] += count
        self.consistent = False

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.by_check.update(other.by_check)
        self.consistent = self.consistent and other.consistent

    @property
    def ok_frac(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def _over(spend: float, budget: float) -> bool:
    return spend > budget * (1.0 + REL_TOL) + 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def check_hour(
    record,
    *,
    capacity_rps: float,
    ledger_spend: float,
    fixed_point=None,
) -> list[str]:
    """Failed check names for one batch ``HourRecord``.

    ``capacity_rps`` is the fleet's servable rate that hour,
    ``ledger_spend`` the spend the budget ledger recorded for it, and
    ``fixed_point`` the hour's closed-loop ``FixedPointResult`` (None
    when prices are exogenous).
    """
    failures = []
    step = record.step.value
    if step == "degraded":
        failures.append("degraded")
    owed = min(record.demand_premium_rps, capacity_rps)
    if record.served_premium_rps < owed * (1.0 - REL_TOL):
        failures.append("premium-served")
    items_total = sum(li.amount for li in record.line_items)
    if not _close(items_total, ledger_spend):
        failures.append("line-items")
    if _over(items_total, record.budget) and step not in FLAGGED_STEPS:
        failures.append("overspend-unflagged")
    if fixed_point is not None and (
        not fixed_point.converged or fixed_point.oscillated
    ):
        failures.append("closedloop-converged")
    return failures


def check_decision(
    event: dict, *, capacity_rps: float, premium_fraction: float
) -> list[str]:
    """Failed check names for one serve decision (a decision-log dict).

    The event carries the region's observed λ and the dispatched
    allocation; premium is served first, so the premium served is the
    allocated total capped at the premium offered. ``realized_cost_rate``
    is the hour bill the decision runs up if it stays in force.
    """
    failures = []
    step = event["step"]
    if step == "degraded":
        failures.append("degraded")
    served = sum(rate for _, rate in event["allocations"])
    owed = min(premium_fraction * event["lambda_rps"], capacity_rps)
    if served < owed * (1.0 - REL_TOL):
        failures.append("premium-served")
    if _over(event["realized_cost_rate"], event["budget"]) and (
        step not in FLAGGED_STEPS
    ):
        failures.append("overspend-unflagged")
    return failures


def check_region_hour(summary: dict) -> list[str]:
    """Settlement contract for one settled serve region-hour."""
    items_total = sum(li["amount"] for li in summary["line_items"])
    return [] if _close(items_total, summary["spend"]) else ["line-items"]
