"""Budgeter checkpoint/restore round trips (in memory and on disk)."""

import json

import numpy as np
import pytest

from repro.core import Budgeter
from repro.resilience import load_checkpoint, save_checkpoint
from repro.workload import HOURS_PER_WEEK, HourOfWeekPredictor, Trace, wikipedia_like_trace


def _predictor(seed=0):
    return HourOfWeekPredictor(
        wikipedia_like_trace(HOURS_PER_WEEK * 4, 1e6, seed=seed)
    )


def _spend_hours(b, costs):
    for c in costs:
        b.hourly_budget()
        b.record_spend(c)


class TestRoundTrip:
    def test_restored_budgeter_continues_identically(self):
        original = Budgeter(720.0, _predictor(), month_hours=720, start_weekday=2)
        _spend_hours(original, [0.3, 2.0, 0.0, 1.1, 0.7] * 10)
        twin = Budgeter.restore(original.checkpoint())
        assert twin.current_hour == original.current_hour
        assert twin.total_spent == pytest.approx(original.total_spent)
        for _ in range(100):
            assert twin.hourly_budget() == pytest.approx(original.hourly_budget())
            cost = original.hourly_budget() * 0.8
            original.record_spend(cost)
            twin.record_spend(cost)

    def test_restore_preserves_week_reset_alignment(self):
        original = Budgeter(
            1000.0, _predictor(), month_hours=400, start_weekday=3
        )
        _spend_hours(original, [0.0] * 90)  # carryover built up mid-week
        twin = Budgeter.restore(original.checkpoint())
        # 6 hours later the Thursday-started calendar week ends (96 h):
        # both must reset carryover at the same hour.
        budgets_orig, budgets_twin = [], []
        for _ in range(12):
            budgets_orig.append(original.hourly_budget())
            budgets_twin.append(twin.hourly_budget())
            original.record_spend(0.0)
            twin.record_spend(0.0)
        assert budgets_twin == pytest.approx(budgets_orig)

    def test_checkpoint_is_json_serializable(self):
        b = Budgeter(100.0, _predictor(), month_hours=48)
        _spend_hours(b, [1.0, 2.0])
        payload = json.dumps(b.checkpoint())
        twin = Budgeter.restore(json.loads(payload))
        assert twin.hourly_budget() == pytest.approx(b.hourly_budget())

    def test_checkpoint_captures_claw_back_state(self):
        b = Budgeter(100.0, _predictor(), month_hours=48, claw_back_deficit=True)
        b.hourly_budget()
        b.record_spend(50.0)  # deep deficit
        twin = Budgeter.restore(b.checkpoint())
        assert twin.hourly_budget() == pytest.approx(b.hourly_budget())
        assert twin.claw_back_deficit is True


class TestValidation:
    def test_version_mismatch_rejected(self):
        state = Budgeter(10.0, _predictor(), month_hours=24).checkpoint()
        state["version"] = 999
        with pytest.raises(ValueError, match="version"):
            Budgeter.restore(state)

    def test_shape_mismatch_rejected(self):
        state = Budgeter(10.0, _predictor(), month_hours=24).checkpoint()
        state["weights"] = state["weights"][:-1]
        with pytest.raises(ValueError, match="month_hours"):
            Budgeter.restore(state)

    def test_next_hour_out_of_range_rejected(self):
        state = Budgeter(10.0, _predictor(), month_hours=24).checkpoint()
        state["next_hour"] = 25
        with pytest.raises(ValueError, match="next_hour"):
            Budgeter.restore(state)

    @pytest.mark.parametrize("monthly", [float("nan"), -1.0])
    def test_bad_monthly_budget_rejected(self, monthly):
        state = Budgeter(10.0, _predictor(), month_hours=24).checkpoint()
        state["monthly_budget"] = monthly
        with pytest.raises(ValueError, match="monthly budget"):
            Budgeter.restore(state)


class TestFiles:
    def test_save_load_round_trip(self, tmp_path):
        b = Budgeter(500.0, _predictor(), month_hours=100)
        _spend_hours(b, [3.0, 1.0, 4.0])
        path = save_checkpoint(b, tmp_path / "budgeter.json")
        twin = load_checkpoint(path)
        assert twin.current_hour == 3
        assert twin.hourly_budget() == pytest.approx(b.hourly_budget())

    def test_save_overwrites_atomically(self, tmp_path):
        b = Budgeter(500.0, _predictor(), month_hours=100)
        path = tmp_path / "ck.json"
        save_checkpoint(b, path)
        b.hourly_budget()
        b.record_spend(2.0)
        save_checkpoint(b, path)
        assert load_checkpoint(path).current_hour == 1
        assert not path.with_suffix(".json.tmp").exists()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(ValueError, match="not a budgeter checkpoint"):
            load_checkpoint(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a budgeter checkpoint"):
            load_checkpoint(path)
