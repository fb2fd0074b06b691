"""Tests for the adaptive budgeter (prediction-error robustness)."""

import numpy as np
import pytest

from repro.core import AdaptiveBudgeter, Budgeter
from repro.workload import HOURS_PER_WEEK, HourOfWeekPredictor, Trace


def _flat_predictor(level=100.0):
    return HourOfWeekPredictor(Trace(np.full(HOURS_PER_WEEK, level)))


def _biased_predictor():
    """Predicts a strong peak in the first day that won't materialize."""
    profile = np.full(HOURS_PER_WEEK, 50.0)
    profile[:24] = 500.0
    return HourOfWeekPredictor(Trace(profile))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBudgeter(-1.0, _flat_predictor())
        with pytest.raises(ValueError):
            AdaptiveBudgeter(1.0, _flat_predictor(), month_hours=0)
        with pytest.raises(ValueError):
            AdaptiveBudgeter(1.0, _flat_predictor(), reserve_fraction=1.0)
        with pytest.raises(ValueError):
            AdaptiveBudgeter(1.0, _flat_predictor(), release_hours=0)


class TestSelfCorrection:
    def test_flat_world_flat_budgets(self):
        b = AdaptiveBudgeter(240.0, _flat_predictor(), month_hours=240,
                             reserve_fraction=0.0)
        first = b.hourly_budget()
        b.record_spend(first)
        second = b.hourly_budget()
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(1.0)

    def test_underspend_grows_future_budgets(self):
        b = AdaptiveBudgeter(240.0, _flat_predictor(), month_hours=240,
                             reserve_fraction=0.0)
        for _ in range(24):
            b.hourly_budget()
            b.record_spend(0.5)  # half the allocation
        assert b.hourly_budget() > 1.0

    def test_overspend_shrinks_future_budgets(self):
        b = AdaptiveBudgeter(240.0, _flat_predictor(), month_hours=240,
                             reserve_fraction=0.0)
        for _ in range(24):
            b.hourly_budget()
            b.record_spend(2.0)  # double the allocation
        assert b.hourly_budget() < 1.0
        assert b.hourly_budget() >= 0.0

    def test_monthly_total_tracks_budget_under_bias(self):
        # Spend exactly what's granted each hour: totals must approach
        # the monthly budget even with a badly biased forecast.
        b = AdaptiveBudgeter(1000.0, _biased_predictor(), month_hours=336,
                             reserve_fraction=0.0)
        for _ in range(336):
            grant = b.hourly_budget()
            b.record_spend(grant)
        assert b.total_spent == pytest.approx(1000.0, rel=1e-6)

    def test_amortizes_forced_overspend_where_plain_violates(self):
        # First half of the month: mandatory (premium-only style) spend
        # 40% above the fair share, regardless of the grant. Second
        # half: spend whatever is granted. The plain budgeter's fixed
        # base split cannot take the early overrun back across weeks,
        # so it finishes over the monthly budget; the adaptive one
        # shrinks later grants and lands on target.
        M, H = 1000.0, 336
        forced = 1.4 * M / H
        plain = Budgeter(M, _flat_predictor(), month_hours=H)
        adaptive = AdaptiveBudgeter(M, _flat_predictor(), month_hours=H,
                                    reserve_fraction=0.0)
        for b in (plain, adaptive):
            for t in range(H):
                grant = b.hourly_budget()
                b.record_spend(forced if t < H // 2 else grant)
        assert adaptive.total_spent == pytest.approx(M, rel=1e-6)
        assert plain.total_spent > M * 1.05
        assert adaptive.total_spent < plain.total_spent


class TestReserve:
    def test_reserve_withheld_early(self):
        with_res = AdaptiveBudgeter(240.0, _flat_predictor(), month_hours=240,
                                    reserve_fraction=0.2, release_hours=24)
        without = AdaptiveBudgeter(240.0, _flat_predictor(), month_hours=240,
                                   reserve_fraction=0.0)
        assert with_res.hourly_budget() < without.hourly_budget()

    def test_reserve_released_at_tail(self):
        b = AdaptiveBudgeter(240.0, _flat_predictor(), month_hours=240,
                             reserve_fraction=0.2, release_hours=24)
        for _ in range(239):
            b.hourly_budget()
            b.record_spend(0.0)
        # Final hour: the entire monthly budget is allocatable.
        assert b.hourly_budget() == pytest.approx(240.0, rel=1e-6)

    def test_full_spend_with_reserve_hits_total(self):
        b = AdaptiveBudgeter(500.0, _flat_predictor(), month_hours=120,
                             reserve_fraction=0.1, release_hours=24)
        for _ in range(120):
            b.record_spend(b.hourly_budget())
        assert b.total_spent == pytest.approx(500.0, rel=1e-6)


class TestProtocolCompatibility:
    def test_accounting_properties(self):
        b = AdaptiveBudgeter(100.0, _flat_predictor(), month_hours=10)
        b.hourly_budget()
        b.record_spend(3.0)
        assert b.current_hour == 1
        assert b.total_spent == pytest.approx(3.0)
        assert b.remaining_budget == pytest.approx(97.0)
        assert b.spent_through(1) == pytest.approx(3.0)

    def test_exhaustion_guard(self):
        b = AdaptiveBudgeter(10.0, _flat_predictor(), month_hours=1)
        b.hourly_budget()
        b.record_spend(1.0)
        with pytest.raises(RuntimeError):
            b.hourly_budget()
        with pytest.raises(RuntimeError):
            b.record_spend(1.0)

    def test_negative_cost_rejected(self):
        b = AdaptiveBudgeter(10.0, _flat_predictor(), month_hours=2)
        with pytest.raises(ValueError):
            b.record_spend(-1.0)

    def test_works_in_simulator(self):
        from repro.experiments import paper_world
        from repro.sim import Engine

        w = paper_world(max_servers=500_000)
        engine = Engine(w.sites, w.workload, w.mix)
        anchor = engine.run("capping", hours=24)
        budget = anchor.total_cost * w.hours / 24 * 0.8
        adaptive = AdaptiveBudgeter(
            budget, w.predictor(), month_hours=w.hours,
            start_weekday=w.workload.start_weekday,
        )
        res = engine.run("capping", budgeter=adaptive, hours=24)
        assert res.premium_throughput_fraction == pytest.approx(1.0)
        assert res.total_cost > 0
