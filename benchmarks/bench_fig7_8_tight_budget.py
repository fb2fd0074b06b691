"""Figures 7 & 8: capping under an insufficient budget ($1.5M analogue).

Figure 7: premium requests keep full service regardless; ordinary
requests are admitted best-effort, with some hours serving none at all.
Figure 8: the hourly cost is controlled below the hourly budget except
in mandatory-premium hours, where the budget is knowingly violated.
"""

import numpy as np

from repro.core import CappingStep
from repro.experiments import PAPER_BUDGET_LEVELS

from conftest import BENCH_HOURS, monthly_budget_from, run_once

from _report import report, table


def test_fig7_8_tight_budget(benchmark, world, engine, uncapped):
    monthly = monthly_budget_from(uncapped, world, PAPER_BUDGET_LEVELS["1.5M"])
    capped = run_once(
        benchmark,
        lambda: engine.run(
            "capping", budgeter=world.budgeter(monthly), hours=BENCH_HOURS
        ),
    )

    step = max(1, BENCH_HOURS // 48)
    marker = {
        CappingStep.COST_MIN: ".",
        CappingStep.THROUGHPUT_MAX: "t",
        CappingStep.PREMIUM_ONLY: "P",
    }
    rows = [
        (
            t,
            marker[capped.hours[t].step],
            f"{capped.hours[t].served_premium_rps / 1e6:,.0f}",
            f"{capped.hours[t].demand_ordinary_rps / 1e6:,.0f}",
            f"{capped.hours[t].served_ordinary_rps / 1e6:,.0f}",
            f"{capped.hourly_budgets[t]:,.0f}",
            f"{capped.hourly_costs[t]:,.0f}",
        )
        for t in range(0, BENCH_HOURS, step)
    ]
    zero_ordinary = int(np.sum(capped.served_ordinary < 1e-6))
    report(
        "fig7_8",
        f"tight budget (${monthly:,.0f}/month analogue of $1.5M)",
        table(("hour", "step", "prem out", "ord in", "ord out", "budget $", "cost $"), rows)
        + [
            "",
            f"premium throughput: {capped.premium_throughput_fraction:.3%}",
            f"ordinary throughput: {capped.ordinary_throughput_fraction:.1%}",
            f"hours with zero ordinary service: {zero_ordinary}/{BENCH_HOURS}",
            f"hours over budget (mandatory premium): {capped.hours_over_budget}",
        ],
    )

    # -- Figure 7 shape -----------------------------------------------------
    # Premium always fully served.
    assert capped.premium_throughput_fraction > 1 - 1e-6
    # Ordinary customers throttled overall, but not eliminated.
    assert 0.0 < capped.ordinary_throughput_fraction < 1.0
    # Some hours serve no ordinary requests at all (paper's hours 176-178).
    assert zero_ordinary > 0
    # ... and some hours serve all of them (off-peak).
    full_hours = np.sum(
        capped.served_ordinary >= capped.demand_ordinary - 1e-6
    )
    assert full_hours > 0

    # -- Figure 8 shape -----------------------------------------------------
    # Every *materially* over-budget hour is a mandatory-premium hour;
    # steps 1-2 leave a safety headroom, so any residual overshoot from
    # the smooth-vs-stepped model gap stays within ~2%.
    material = np.flatnonzero(capped.hourly_costs > capped.hourly_budgets * 1.02 + 1e-6)
    steps = [capped.hours[int(t)].step for t in material]
    assert all(s is CappingStep.PREMIUM_ONLY for s in steps)
    within = [h for h in capped.hours if h.step is not CappingStep.PREMIUM_ONLY]
    assert all(h.realized_cost <= h.budget * 1.02 + 1e-6 for h in within)
    # The safety headroom works for the overwhelming majority of
    # step-1/2 hours even at the strict threshold.
    strict_over = [
        h
        for h in within
        if h.realized_cost > h.budget * (1 + 1e-9)
    ]
    assert len(strict_over) <= max(2, len(within) // 20)
