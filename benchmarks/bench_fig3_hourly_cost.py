"""Figure 3: hourly electricity cost, Cost Capping vs Min-Only.

The paper's Figure 3 plots hourly bills over the November trace for
Cost Capping, Min-Only (Avg) and Min-Only (Low); Cost Capping saves
17.9% / 33.5% versus the two baselines. This benchmark regenerates the
three hourly series over the bench horizon and asserts the shape: Cost
Capping's bill is lower in aggregate and never materially higher in any
hour, with double-digit total savings.

Reproduction note (EXPERIMENTS.md): with the Section VI-A server
parameters, Min-Only (Avg) and Min-Only (Low) believe the *same*
cheapest-site ordering, so their dispatches — and realized bills —
coincide in our world; the paper's two baselines differ from each
other for reasons its text does not pin down. The Cost-Capping-vs-
baseline gap is the claim under test.
"""

import numpy as np

from conftest import BENCH_HOURS, run_once

from _report import report, table


def test_fig3_hourly_cost_comparison(benchmark, engine, uncapped, min_only_avg, min_only_low):
    # The heavy runs are session fixtures; benchmark the capping month once
    # more so pytest-benchmark reports its cost.
    capping = run_once(
        benchmark, lambda: engine.run("capping", hours=min(48, BENCH_HOURS))
    )
    assert capping.total_cost > 0

    cc = uncapped.hourly_costs
    avg = min_only_avg.hourly_costs
    low = min_only_low.hourly_costs

    step = max(1, BENCH_HOURS // 48)
    rows = [
        (t, f"{cc[t]:,.0f}", f"{avg[t]:,.0f}", f"{low[t]:,.0f}")
        for t in range(0, BENCH_HOURS, step)
    ]
    savings_avg = 1 - cc.sum() / avg.sum()
    savings_low = 1 - cc.sum() / low.sum()
    report(
        "fig3",
        "hourly cost ($): Cost Capping vs Min-Only",
        table(("hour", "CostCapping", "MinOnly(Avg)", "MinOnly(Low)"), rows)
        + [
            "",
            f"total: cc=${cc.sum():,.0f} avg=${avg.sum():,.0f} low=${low.sum():,.0f}",
            f"savings vs Min-Only (Avg): {savings_avg:.1%}   (paper: 17.9%)",
            f"savings vs Min-Only (Low): {savings_low:.1%}   (paper: 33.5%)",
        ],
    )

    # -- shape assertions ------------------------------------------------------
    # Cost Capping wins in aggregate by a double-digit margin.
    assert savings_avg > 0.10
    assert savings_low > 0.10
    # Hour-by-hour, capping is never materially worse than the baselines.
    assert np.all(cc <= avg * 1.02 + 1.0)
    # Both serve the full workload - the saving is not from shedding.
    assert uncapped.premium_throughput_fraction > 1 - 1e-9
    assert min_only_avg.premium_throughput_fraction > 1 - 1e-9
