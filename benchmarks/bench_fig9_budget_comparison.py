"""Figure 9: cost & throughput vs baselines under a stringent budget.

The paper's Figure 9 normalizes monthly bills against a $1.5M budget
and throughput against Min-Only. Claims reproduced:

* Min-Only serves 100% of both classes but busts the budget
  (paper: +23.3% Avg, +39.5% Low);
* Cost Capping keeps the bill at or below the budget with high
  utilization (paper: 98.5%), guarantees 100% premium throughput, and
  serves a substantial best-effort fraction of ordinary requests.
"""

import pytest

from repro.experiments import PAPER_BUDGET_LEVELS

from conftest import BENCH_HOURS, monthly_budget_from, run_once

from _report import report, table


def test_fig9_budget_comparison(
    benchmark, world, engine, uncapped, min_only_avg, min_only_low
):
    monthly = monthly_budget_from(uncapped, world, PAPER_BUDGET_LEVELS["1.5M"])
    capped = run_once(
        benchmark,
        lambda: engine.run(
            "capping", budgeter=world.budgeter(monthly), hours=BENCH_HOURS
        ),
    )

    budget_slice = monthly * BENCH_HOURS / world.hours
    rows = []
    for name, res in (
        ("CostCapping", capped),
        ("MinOnly(Avg)", min_only_avg),
        ("MinOnly(Low)", min_only_low),
    ):
        rows.append(
            (
                name,
                f"{res.total_cost / budget_slice:.3f}",
                f"{res.premium_throughput_fraction:.3f}",
                f"{res.ordinary_throughput_fraction:.3f}",
            )
        )
    report(
        "fig9",
        f"normalized cost & throughput at the $1.5M-analogue budget",
        table(("strategy", "cost/budget", "premium", "ordinary"), rows)
        + [
            "",
            "paper: MinOnly(Avg) 1.233, MinOnly(Low) 1.395, "
            "CostCapping 0.985 with 100% premium / 80.3% peak ordinary",
        ],
    )

    cc_util = capped.total_cost / budget_slice
    # Min-Only busts the budget; Cost Capping respects it (within the
    # mandatory-premium violations, which stay small in aggregate).
    assert min_only_avg.total_cost / budget_slice > 1.05
    assert min_only_low.total_cost / budget_slice > 1.05
    assert cc_util <= 1.02
    # ... while using most of it (the paper reports 98.5%).
    assert cc_util > 0.80
    # Service guarantees.
    assert capped.premium_throughput_fraction > 1 - 1e-6
    assert min_only_avg.premium_throughput_fraction > 1 - 1e-6
    assert 0.0 < capped.ordinary_throughput_fraction < 1.0
