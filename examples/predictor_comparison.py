#!/usr/bin/env python
"""Comparing workload predictors for the budgeter.

Section VI-B uses a 2-week hour-of-week average; Section IX asks what
happens when predictions go wrong. This example scores three
forecasters walk-forward on a fresh month — the paper's window average,
an EWMA variant, and naive last-week persistence — then shows how each
drives the budgeter's hourly split, and how the adaptive budgeter
absorbs a deliberately corrupted forecast.

Run:
    python examples/predictor_comparison.py
"""

import numpy as np

from repro.core import AdaptiveBudgeter, Budgeter
from repro.sim import Engine
from repro.experiments import paper_world
from repro.workload import (
    EwmaByHourPredictor,
    HourOfWeekPredictor,
    LastWeekPredictor,
    evaluate_predictor,
    wikipedia_like_trace,
)


def main() -> None:
    world = paper_world(max_servers=500_000)

    print("Walk-forward forecast accuracy on the evaluated month:")
    print(f"{'predictor':<28} {'MAPE':>7} {'RMSE Mrps':>10} {'bias Mrps':>10}")
    predictors = {
        "hour-of-week avg (paper)": HourOfWeekPredictor(world.history),
        "EWMA (alpha=0.5)": EwmaByHourPredictor(world.history, alpha=0.5),
        "last-week persistence": LastWeekPredictor(world.history),
    }
    for name, pred in predictors.items():
        score = evaluate_predictor(pred, world.workload)
        print(
            f"{name:<28} {score.mape:>6.1%} {score.rmse / 1e6:>10.1f} "
            f"{score.bias / 1e6:>+10.1f}"
        )

    # --- budget consequences of a corrupted forecast -----------------------
    engine = Engine(world.sites, world.workload, world.mix)
    hours = 7 * 24
    anchor = engine.run("capping", hours=hours)
    budget = anchor.total_cost * 0.85

    bad_history = wikipedia_like_trace(
        world.history.hours,
        0.6 * float(world.history.rates_rps.max()),
        seed=999,
        noise=0.25,
        start_weekday=world.history.start_weekday,
    )
    corrupted = HourOfWeekPredictor(bad_history)

    plain = engine.run(
        "capping",
        budgeter=Budgeter(budget, corrupted, month_hours=hours,
                          start_weekday=world.workload.start_weekday),
        hours=hours,
    )
    adaptive = engine.run(
        "capping",
        budgeter=AdaptiveBudgeter(budget, corrupted, month_hours=hours,
                                  start_weekday=world.workload.start_weekday),
        hours=hours,
    )

    print(f"\nOne week at 85% budget (${budget:,.0f}) with a corrupted forecast:")
    print(f"{'budgeter':<22} {'spend':>10} {'vs budget':>10} {'ordinary':>9}")
    for name, res in (("plain (paper)", plain), ("adaptive (robust)", adaptive)):
        print(
            f"{name:<22} {res.total_cost:>10,.0f} "
            f"{res.total_cost / budget:>9.1%} "
            f"{res.ordinary_throughput_fraction:>8.1%}"
        )
    print(
        "\nThe adaptive budgeter re-normalizes hourly grants against the\n"
        "remaining budget, amortizing forecast error instead of violating\n"
        "the period total."
    )


if __name__ == "__main__":
    main()
