#!/usr/bin/env python
"""Surviving a breaking-news flash crowd within the electricity budget.

The paper motivates bill capping with "breaking news on major newspaper
websites [that] may incur a huge number of accesses in a short time and
thus lead to unexpectedly high electricity costs". This example injects
a 3x flash crowd into day two of the simulated month and compares how
the capped system rides through it: premium customers keep full QoS,
ordinary admission is squeezed during the spike, and the bill stays at
the budget.

Run:
    python examples/flash_crowd_capping.py
"""

from repro.experiments import paper_world
from repro.sim import Engine
from repro.workload import FlashCrowd


def main() -> None:
    crowd = FlashCrowd(start_hour=30, duration_h=10, magnitude=3.0)
    calm = paper_world(max_servers=500_000)
    stormy = paper_world(max_servers=500_000, flash_crowds=(crowd,))

    hours = 72
    calm_engine = Engine(calm.sites, calm.workload, calm.mix)
    storm_engine = Engine(stormy.sites, stormy.workload, stormy.mix)

    # Budget provisioned from *calm* history — the spike is unexpected.
    base = calm_engine.run("capping", hours=hours)
    monthly_budget = base.total_cost * (calm.hours / hours) * 1.05
    print(
        f"Budget provisioned for calm traffic (+5% safety): "
        f"${monthly_budget:,.0f}/month"
    )

    uncapped = storm_engine.run("capping", hours=hours)
    capped = storm_engine.run(
        "capping", budgeter=stormy.budgeter(monthly_budget), hours=hours
    )

    print(f"\n{'hour':>5} {'demand Mrps':>12} {'uncapped $':>11} {'capped $':>10} {'ord%':>6}")
    for t in range(24, 48):
        h_un, h_cap = uncapped.hours[t], capped.hours[t]
        marker = " <- flash crowd" if crowd.start_hour <= t < crowd.start_hour + crowd.duration_h else ""
        print(
            f"{t:>5} {h_cap.demand_premium_rps + h_cap.demand_ordinary_rps:>10.2e} "
            f"{h_un.realized_cost:>11,.0f} {h_cap.realized_cost:>10,.0f} "
            f"{h_cap.served_ordinary_rps / max(1e-9, h_cap.demand_ordinary_rps):>5.0%}"
            f"{marker}"
        )

    scale = calm.hours / hours
    print("\nThree-day totals (scaled to the month):")
    print(f"  uncapped spend:  ${uncapped.total_cost * scale:,.0f} "
          f"(budget ${monthly_budget:,.0f} would be violated)")
    print(f"  capped spend:    ${capped.total_cost * scale:,.0f}")
    print(f"  premium service: {capped.premium_throughput_fraction:.1%} — guaranteed")
    print(f"  ordinary served: {capped.ordinary_throughput_fraction:.1%} — throttled through the spike")


if __name__ == "__main__":
    main()
