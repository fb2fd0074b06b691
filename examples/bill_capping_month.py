#!/usr/bin/env python
"""Bill capping over a simulated week under a tight monthly budget.

Reproduces the Section VII-C scenario in miniature: a monthly budget too
small to serve everyone is split into hourly budgets by the
history-driven budgeter; the bill capper guarantees premium customers
(80 % of traffic) and admits ordinary customers best-effort. The run
prints a per-day ledger and the month-level guarantees.

Run:
    python examples/bill_capping_month.py [--days N]
"""

import argparse

from repro.core import CappingStep
from repro.experiments import paper_world
from repro.sim import Engine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=7, help="days to simulate")
    args = parser.parse_args()
    hours = args.days * 24

    world = paper_world(max_servers=500_000)
    engine = Engine(world.sites, world.workload, world.mix)

    # Calibrate the budget: 85% of the uncapped spend — the "tight"
    # regime of the paper's $1.5M level (premium traffic alone costs
    # ~75% of the bill in this world, so 85% forces real trade-offs).
    uncapped = engine.run("capping", hours=hours)
    monthly_budget = uncapped.total_cost * (world.hours / hours) * 0.85
    print(
        f"Uncapped spend over {args.days} days: ${uncapped.total_cost:,.0f}; "
        f"monthly budget set to ${monthly_budget:,.0f}"
    )

    budgeter = world.budgeter(monthly_budget)
    capped = engine.run("capping", budgeter=budgeter, hours=hours)

    print(f"\n{'day':>4} {'cost $':>10} {'budget $':>10} {'prem%':>7} {'ord%':>7} {'steps'}")
    for day in range(args.days):
        sl = slice(day * 24, (day + 1) * 24)
        recs = capped.hours[sl]
        cost = sum(h.realized_cost for h in recs)
        budget = sum(min(h.budget, 10 * cost + 1) for h in recs)
        prem = sum(h.served_premium_rps for h in recs) / max(
            1e-9, sum(h.demand_premium_rps for h in recs)
        )
        ordi = sum(h.served_ordinary_rps for h in recs) / max(
            1e-9, sum(h.demand_ordinary_rps for h in recs)
        )
        steps = "".join(
            {
                CappingStep.COST_MIN: ".",
                CappingStep.THROUGHPUT_MAX: "t",
                CappingStep.PREMIUM_ONLY: "P",
            }[h.step]
            for h in recs
        )
        print(f"{day:>4} {cost:>10,.0f} {budget:>10,.0f} {prem:>6.1%} {ordi:>6.1%}  {steps}")

    print("\nWeek totals:")
    print(f"  spend:              ${capped.total_cost:,.0f}")
    print(f"  premium throughput: {capped.premium_throughput_fraction:.1%} (guaranteed)")
    print(f"  ordinary admitted:  {capped.ordinary_throughput_fraction:.1%} (best effort)")
    print(f"  hours over budget:  {capped.hours_over_budget} (mandatory-premium hours)")
    print(f"  saved vs uncapped:  {1 - capped.total_cost / uncapped.total_cost:.1%}")


if __name__ == "__main__":
    main()
