"""Tests for the monthly -> hourly budgeter."""

import numpy as np
import pytest

from repro.core import Budgeter
from repro.workload import HOURS_PER_WEEK, HourOfWeekPredictor, Trace, wikipedia_like_trace


def _predictor(seed=0, weeks=4):
    return HourOfWeekPredictor(
        wikipedia_like_trace(HOURS_PER_WEEK * weeks, 1e6, seed=seed, start_weekday=0)
    )


def _flat_predictor():
    return HourOfWeekPredictor(Trace(np.full(HOURS_PER_WEEK, 100.0)))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budgeter(-1.0, _flat_predictor())
        with pytest.raises(ValueError):
            Budgeter(100.0, _flat_predictor(), month_hours=0)

    @pytest.mark.parametrize("monthly", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, monthly):
        # `nan < 0` is false: a sign check alone would accept it.
        with pytest.raises(ValueError, match="finite"):
            Budgeter(monthly, _flat_predictor())


class TestBaseAllocation:
    def test_base_budgets_sum_to_monthly(self):
        b = Budgeter(720.0, _predictor(), month_hours=720)
        total = sum(b.base_budget(h) for h in range(720))
        assert total == pytest.approx(720.0)

    def test_flat_history_uniform_budgets(self):
        b = Budgeter(720.0, _flat_predictor(), month_hours=720)
        assert b.base_budget(0) == pytest.approx(1.0)
        assert b.base_budget(500) == pytest.approx(1.0)

    def test_busy_hours_get_bigger_budgets(self):
        pred = _predictor()
        b = Budgeter(1000.0, pred, month_hours=720, start_weekday=0)
        profile = pred.weekly_profile()
        busy = int(np.argmax(profile))
        quiet = int(np.argmin(profile))
        assert b.base_budget(busy) > b.base_budget(quiet)


class TestCarryover:
    def test_unused_budget_rolls_forward(self):
        b = Budgeter(240.0, _flat_predictor(), month_hours=240)
        first = b.hourly_budget()
        b.record_spend(0.0)  # spend nothing
        second = b.hourly_budget()
        assert second == pytest.approx(first + b.base_budget(1))

    def test_budget_grows_within_week_under_underspend(self):
        b = Budgeter(720.0, _flat_predictor(), month_hours=720)
        budgets = []
        for _ in range(100):
            budgets.append(b.hourly_budget())
            b.record_spend(budgets[-1] * 0.5)  # spend half each hour
        assert budgets[-1] > budgets[0]  # Figure 6's growing staircase

    def test_carryover_resets_at_week_boundary(self):
        b = Budgeter(float(HOURS_PER_WEEK * 2), _flat_predictor(),
                     month_hours=HOURS_PER_WEEK * 2, start_weekday=0)
        for _ in range(HOURS_PER_WEEK):
            b.hourly_budget()
            b.record_spend(0.0)  # accumulate a full week of carryover
        # First hour of week 2: back to the base allocation.
        assert b.hourly_budget() == pytest.approx(b.base_budget(HOURS_PER_WEEK))

    def test_week_boundary_respects_start_weekday(self):
        # Starting Thursday (3): the calendar week ends after 4 days = 96 h.
        b = Budgeter(1000.0, _flat_predictor(), month_hours=300, start_weekday=3)
        for _ in range(96):
            b.hourly_budget()
            b.record_spend(0.0)
        assert b.hourly_budget() == pytest.approx(b.base_budget(96))

    def test_overspend_absorbed_by_default(self):
        # Paper behaviour: only *unused* budget carries over; an
        # overspent (mandatory-premium) hour does not starve later hours.
        b = Budgeter(240.0, _flat_predictor(), month_hours=240)
        first = b.hourly_budget()
        b.record_spend(first * 3.0)
        assert b.hourly_budget() == pytest.approx(b.base_budget(1))

    def test_overspend_claw_back_option(self):
        b = Budgeter(240.0, _flat_predictor(), month_hours=240,
                     claw_back_deficit=True)
        first = b.hourly_budget()
        b.record_spend(first * 3.0)  # forced violation (premium-only hour)
        # Next budget is reduced (possibly to zero) by the deficit.
        assert b.hourly_budget() < b.base_budget(1)
        assert b.hourly_budget() >= 0.0

    def test_claw_back_carry_matches_handed_budget(self):
        # Regression: record_spend used to compute its `available` figure
        # without the zero floor hourly_budget() applies, so a deep
        # deficit kept accruing against budgets the capper never saw.
        b = Budgeter(240.0, _flat_predictor(), month_hours=240,
                     claw_back_deficit=True)
        b.hourly_budget()
        b.record_spend(10.0)  # deficit worth several base budgets
        assert b.hourly_budget() == 0.0  # clawed all the way back
        b.record_spend(0.0)  # spent exactly what was handed
        # Nothing was over- or under-spent against the handed (floored)
        # budget, so the next hour is back to its base allocation.
        assert b.hourly_budget() == pytest.approx(b.base_budget(2))

    def test_claw_back_overspend_measured_against_handed_budget(self):
        b = Budgeter(480.0, _flat_predictor(), month_hours=240,
                     claw_back_deficit=True)  # base budget 2.0/hour
        b.hourly_budget()
        b.record_spend(10.0)
        assert b.hourly_budget() == 0.0
        b.record_spend(1.0)  # premium-only hour violating the zero budget
        # Only that $1 overspend carries forward, not the stale deficit.
        assert b.hourly_budget() == pytest.approx(b.base_budget(2) - 1.0)

    def test_carryover_disabled(self):
        b = Budgeter(240.0, _flat_predictor(), month_hours=240, carryover=False)
        b.hourly_budget()
        b.record_spend(0.0)
        assert b.hourly_budget() == pytest.approx(b.base_budget(1))


class TestAccounting:
    def test_spend_tracking(self):
        b = Budgeter(100.0, _flat_predictor(), month_hours=10)
        b.hourly_budget()
        b.record_spend(3.0)
        b.hourly_budget()
        b.record_spend(4.0)
        assert b.total_spent == pytest.approx(7.0)
        assert b.remaining_budget == pytest.approx(93.0)
        assert b.spent_through(1) == pytest.approx(3.0)
        assert b.current_hour == 2

    def test_exhaustion_guard(self):
        b = Budgeter(10.0, _flat_predictor(), month_hours=2)
        for _ in range(2):
            b.hourly_budget()
            b.record_spend(1.0)
        with pytest.raises(RuntimeError):
            b.hourly_budget()
        with pytest.raises(RuntimeError):
            b.record_spend(1.0)

    def test_negative_cost_rejected(self):
        b = Budgeter(10.0, _flat_predictor(), month_hours=2)
        with pytest.raises(ValueError):
            b.record_spend(-1.0)
        with pytest.raises(ValueError):
            b.record_spend(float("nan"))
