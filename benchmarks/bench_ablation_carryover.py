"""Ablation: weekly budget carryover on / off / with deficit claw-back.

The paper carries unused hourly budget forward within the week
(Figure 6's growing staircase). This ablation runs the tight-budget
month three ways:

* ``carryover`` (paper behaviour) — unused budget rolls forward;
* ``no-carryover`` — every hour gets only its base share;
* ``claw-back`` — carryover *and* deficits propagate (overspent
  mandatory-premium hours starve the rest of the week).

Carryover should dominate no-carryover on ordinary throughput at equal
budget discipline; claw-back should trade throughput for stricter
adherence.
"""

import pytest

from repro.experiments import PAPER_BUDGET_LEVELS

from conftest import BENCH_HOURS, monthly_budget_from, run_once

from _report import report, table


def test_ablation_carryover(benchmark, world, engine, uncapped):
    monthly = monthly_budget_from(uncapped, world, PAPER_BUDGET_LEVELS["1.5M"])

    with_carry = run_once(
        benchmark,
        lambda: engine.run(
            "capping",
            budgeter=world.budgeter(monthly, carryover=True),
            hours=BENCH_HOURS,
        ),
    )
    without = engine.run(
        "capping",
        budgeter=world.budgeter(monthly, carryover=False),
        hours=BENCH_HOURS,
    )
    clawback = engine.run(
        "capping",
        budgeter=world.budgeter(monthly, claw_back_deficit=True),
        hours=BENCH_HOURS,
    )

    rows = [
        (
            name,
            f"{res.total_cost:,.0f}",
            f"{res.ordinary_throughput_fraction:.3f}",
            res.hours_over_budget,
        )
        for name, res in (
            ("carryover (paper)", with_carry),
            ("no carryover", without),
            ("carryover + claw-back", clawback),
        )
    ]
    report(
        "ablation_carryover",
        "budgeter carryover variants at the tight budget",
        table(("variant", "spend $", "ordinary", "over-budget h"), rows),
    )

    for res in (with_carry, without, clawback):
        assert res.premium_throughput_fraction > 1 - 1e-6

    # Carryover converts unused off-peak budget into peak-hour service.
    assert (
        with_carry.ordinary_throughput_fraction
        >= without.ordinary_throughput_fraction - 1e-9
    )
    # Claw-back is the most conservative: it can only reduce spending.
    assert clawback.total_cost <= with_carry.total_cost * 1.001
    assert (
        clawback.ordinary_throughput_fraction
        <= with_carry.ordinary_throughput_fraction + 1e-9
    )
