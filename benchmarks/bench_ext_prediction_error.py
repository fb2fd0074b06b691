"""Extension: budgeting robustness under workload-prediction error.

Section IX asks how the scheme behaves "when the workload prediction is
inaccurate from time to time". Here the budgeter's history is
deliberately corrupted (a different month with extra noise and a level
bias), and the plain weekly-carryover budgeter is compared against the
self-correcting :class:`~repro.core.AdaptiveBudgeter` at the tight
budget level. Shape asserted: both keep the premium guarantee; the
adaptive budgeter's monthly spend tracks the budget at least as closely
as the plain one's under a corrupted forecast.
"""

import pytest

from repro.core import AdaptiveBudgeter, Budgeter
from repro.experiments import PAPER_BUDGET_LEVELS
from repro.workload import HourOfWeekPredictor, wikipedia_like_trace

from conftest import BENCH_HOURS, monthly_budget_from, run_once

from _report import report, table

_HOURS = max(48, BENCH_HOURS // 2)


def _corrupted_predictor(world):
    """History from a different, noisier, downward-biased month."""
    bad_history = wikipedia_like_trace(
        world.history.hours,
        0.6 * float(world.history.rates_rps.max()),  # 40% level bias
        seed=999,
        noise=0.25,
        start_weekday=world.history.start_weekday,
    )
    return HourOfWeekPredictor(bad_history)


def test_ext_prediction_error(benchmark, world, engine, uncapped):
    monthly = monthly_budget_from(uncapped, world, PAPER_BUDGET_LEVELS["1.5M"])
    predictor = _corrupted_predictor(world)
    # Treat the bench horizon as a complete budgeting period so both
    # budgeters (including the adaptive one's end-of-period reserve
    # release) play out fully.
    budget_slice = monthly * _HOURS / world.hours

    plain = run_once(
        benchmark,
        lambda: engine.run(
            "capping",
            budgeter=Budgeter(
                budget_slice,
                predictor,
                month_hours=_HOURS,
                start_weekday=world.workload.start_weekday,
            ),
            hours=_HOURS,
            name="plain-corrupted",
        ),
    )
    adaptive = engine.run(
        "capping",
        budgeter=AdaptiveBudgeter(
            budget_slice,
            predictor,
            month_hours=_HOURS,
            start_weekday=world.workload.start_weekday,
        ),
        hours=_HOURS,
        name="adaptive-corrupted",
    )
    rows = [
        (
            name,
            f"{res.total_cost:,.0f}",
            f"{res.total_cost / budget_slice:.3f}",
            f"{res.ordinary_throughput_fraction:.3f}",
            res.hours_over_budget,
        )
        for name, res in (("plain budgeter", plain), ("adaptive budgeter", adaptive))
    ]
    report(
        "ext_prediction_error",
        f"corrupted forecast at the $1.5M-analogue budget ({_HOURS} h)",
        table(("budgeter", "spend $", "spend/budget", "ordinary", "over h"), rows),
    )

    # Premium guaranteed under either budgeter, corrupted forecast or not.
    assert plain.premium_throughput_fraction > 1 - 1e-6
    assert adaptive.premium_throughput_fraction > 1 - 1e-6
    # Adaptive tracks the monthly budget at least as well.
    plain_err = abs(plain.total_cost / budget_slice - 1.0)
    adaptive_err = abs(adaptive.total_cost / budget_slice - 1.0)
    assert adaptive_err <= plain_err + 0.02
    # Neither blows through the budget slice by more than a few percent.
    assert adaptive.total_cost <= budget_slice * 1.05
