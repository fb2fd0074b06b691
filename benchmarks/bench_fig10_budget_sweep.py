"""Figure 10: monthly throughput across a series of monthly budgets.

The paper sweeps budgets {$0.5M, $1.0M, $1.5M, $2.0M, $2.5M} and plots
served vs offered requests per class. Claims reproduced:

* premium requests are fully served at every budget;
* ordinary throughput rises monotonically with the budget;
* at the abundant level everything is served;
* at the next-to-abundant level a small sliver of ordinary requests is
  lost to imperfect historical budgeting (the paper's 0.99%).
"""

import os

import pytest

from repro.experiments import PAPER_BUDGET_LEVELS
from repro.sim.sweep import run_sweep, strategy_metric, sweep_grid

from conftest import BENCH_HOURS, monthly_budget_from, run_once

from _report import report, table


@pytest.fixture(scope="module")
def sweep(world, engine, uncapped):
    """The paper's five budget levels through the scenario-sweep engine.

    Budget levels are independent given the world, so they form a
    one-axis sweep; ``REPRO_BENCH_WORKERS=N`` fans them over a process
    pool (results are identical to the serial run — each worker
    regenerates the same seed-keyed world).
    """
    labels = list(PAPER_BUDGET_LEVELS)
    scenarios = sweep_grid(
        monthly_budget=[
            monthly_budget_from(uncapped, world, PAPER_BUDGET_LEVELS[label])
            for label in labels
        ]
    )
    for sc in scenarios:
        sc.update(strategy="capping", hours=BENCH_HOURS)
    results = run_sweep(
        strategy_metric,
        scenarios,
        workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
    )
    return dict(zip(labels, results))


def test_fig10_budget_sweep(benchmark, world, engine, uncapped, sweep):
    benchmark.pedantic(
        lambda: engine.run(
            "capping",
            budgeter=world.budgeter(
                monthly_budget_from(uncapped, world, 0.85)
            ),
            hours=min(48, BENCH_HOURS),
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for label, res in sweep.items():
        rows.append(
            (
                label,
                f"{PAPER_BUDGET_LEVELS[label]:.2f}",
                f"{res.premium_throughput_fraction:.4f}",
                f"{res.ordinary_throughput_fraction:.4f}",
                f"{res.total_cost:,.0f}",
            )
        )
    report(
        "fig10",
        "throughput vs monthly budget",
        table(
            ("budget", "x uncapped bill", "premium", "ordinary", "spend $"), rows
        )
        + [
            "",
            "paper: premium always 1.0; ordinary 94M -> 2.3B -> 3B requests "
            "at 0.5/1.0/1.5M; all served at 2.5M; 0.99% ordinary lost at 2.0M",
        ],
    )

    ordered = [sweep[k] for k in ("500K", "1.0M", "1.5M", "2.0M", "2.5M")]
    # Premium guaranteed at every budget level.
    for res in ordered:
        assert res.premium_throughput_fraction > 1 - 1e-6
    # Ordinary throughput rises monotonically with budget.
    fractions = [r.ordinary_throughput_fraction for r in ordered]
    for lo, hi in zip(fractions, fractions[1:]):
        assert hi >= lo - 1e-9
    # Severely insufficient -> almost nothing; abundant -> everything.
    assert fractions[0] < 0.10
    assert fractions[-1] > 1 - 1e-6
    # Next-to-abundant loses only a small sliver (imperfect budgeting).
    assert 0.5 < fractions[3] <= 1.0
    # Spend grows with budget.
    costs = [r.total_cost for r in ordered]
    for lo, hi in zip(costs, costs[1:]):
        assert hi >= lo * 0.98
