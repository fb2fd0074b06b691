"""Figures 5 & 6: capping under an abundant budget ($2.5M analogue).

Figure 5: with an abundant monthly budget every premium *and* ordinary
request is served. Figure 6: the hourly cost stays below the hourly
budget, and the allocated hourly budget grows over each week because
unused budget is carried over.
"""

import numpy as np

from repro.experiments import PAPER_BUDGET_LEVELS
from repro.workload import HOURS_PER_WEEK

from conftest import BENCH_HOURS, monthly_budget_from, run_once

from _report import report, table


def test_fig5_6_abundant_budget(benchmark, world, engine, uncapped):
    monthly = monthly_budget_from(uncapped, world, PAPER_BUDGET_LEVELS["2.5M"])
    capped = run_once(
        benchmark,
        lambda: engine.run(
            "capping", budgeter=world.budgeter(monthly), hours=BENCH_HOURS
        ),
    )

    step = max(1, BENCH_HOURS // 48)
    rows = [
        (
            t,
            f"{capped.hours[t].demand_premium_rps / 1e6:,.0f}",
            f"{capped.hours[t].served_premium_rps / 1e6:,.0f}",
            f"{capped.hours[t].demand_ordinary_rps / 1e6:,.0f}",
            f"{capped.hours[t].served_ordinary_rps / 1e6:,.0f}",
            f"{capped.hourly_budgets[t]:,.0f}",
            f"{capped.hourly_costs[t]:,.0f}",
        )
        for t in range(0, BENCH_HOURS, step)
    ]
    report(
        "fig5_6",
        f"abundant budget (${monthly:,.0f}/month analogue of $2.5M)",
        table(
            ("hour", "prem in", "prem out", "ord in", "ord out", "budget $", "cost $"),
            rows,
        )
        + [
            "",
            f"premium throughput: {capped.premium_throughput_fraction:.3%}",
            f"ordinary throughput: {capped.ordinary_throughput_fraction:.3%}",
            f"hours over budget: {capped.hours_over_budget}",
        ],
    )

    # -- Figure 5 shape: everything served ------------------------------------
    assert capped.premium_throughput_fraction > 1 - 1e-6
    assert capped.ordinary_throughput_fraction > 1 - 1e-6

    # -- Figure 6 shape: cost below budget everywhere -------------------------
    assert capped.hours_over_budget == 0
    assert np.all(capped.hourly_costs <= capped.hourly_budgets + 1e-6)

    # Carryover makes the weekly budget staircase grow: within each full
    # calendar week the mean budget of the last two days exceeds the
    # mean of the first two.
    offset = (HOURS_PER_WEEK - world.workload.start_weekday * 24) % HOURS_PER_WEEK
    budgets = capped.hourly_budgets
    checked = 0
    start = offset
    while start + HOURS_PER_WEEK <= BENCH_HOURS:
        week = budgets[start : start + HOURS_PER_WEEK]
        assert week[-48:].mean() > week[:48].mean()
        checked += 1
        start += HOURS_PER_WEEK
    assert checked >= 1
