"""Tests for trace CSV I/O and the alternative forecasters."""

import numpy as np
import pytest

from repro.workload import (
    HOURS_PER_WEEK,
    EwmaByHourPredictor,
    HourOfWeekPredictor,
    LastWeekPredictor,
    Trace,
    evaluate_predictor,
    read_trace_csv,
    trace_to_csv_string,
    wikipedia_like_trace,
    write_trace_csv,
)


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        t = wikipedia_like_trace(100, 1e5, seed=4, start_weekday=3, name="demo")
        path = write_trace_csv(t, tmp_path / "demo.csv")
        t2 = read_trace_csv(path)
        assert t2.name == "demo"
        assert t2.start_weekday == 3
        assert np.array_equal(t2.rates_rps, t.rates_rps)

    def test_csv_string_has_metadata(self):
        t = Trace(np.array([1.0, 2.0]), start_weekday=5, name="tiny")
        s = trace_to_csv_string(t)
        assert "# name: tiny" in s
        assert "# start_weekday: 5" in s
        assert "hour,rate_rps" in s

    def test_read_without_metadata(self, tmp_path):
        p = tmp_path / "bare.csv"
        p.write_text("hour,rate_rps\n0,10.5\n1,11.0\n")
        t = read_trace_csv(p)
        assert t.name == "bare"
        assert t.start_weekday == 0
        assert t.rates_rps.tolist() == [10.5, 11.0]

    def test_non_contiguous_hours_rejected(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("hour,rate_rps\n0,1.0\n2,2.0\n")
        with pytest.raises(ValueError, match="contiguous"):
            read_trace_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("hour,rate_rps\n")
        with pytest.raises(ValueError, match="no data"):
            read_trace_csv(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("hour,rate_rps\n0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_trace_csv(p)

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_rate_rejected(self, tmp_path, rate):
        p = tmp_path / "bad.csv"
        p.write_text(f"hour,rate_rps\n0,5\n1,{rate}\n")
        with pytest.raises(ValueError, match="finite and >= 0"):
            read_trace_csv(p)


def _history(weeks=4, seed=0):
    return wikipedia_like_trace(
        HOURS_PER_WEEK * weeks, 1e6, seed=seed, noise=0.03, start_weekday=0
    )


class TestEwmaPredictor:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EwmaByHourPredictor(_history(), alpha=0.0)
        with pytest.raises(ValueError):
            EwmaByHourPredictor(_history(), alpha=1.5)

    def test_needs_full_week(self):
        with pytest.raises(ValueError):
            EwmaByHourPredictor(Trace(np.ones(10)))

    def test_constant_history_exact(self):
        p = EwmaByHourPredictor(Trace(np.full(HOURS_PER_WEEK * 2, 42.0)))
        assert p.predicted_rate(7) == pytest.approx(42.0)

    def test_reacts_to_level_shift_faster_than_window(self):
        # Two flat weeks at 10, then observe a shift to 30 once.
        hist = Trace(np.full(HOURS_PER_WEEK * 2, 10.0))
        ewma = EwmaByHourPredictor(hist, alpha=0.7)
        window = HourOfWeekPredictor(hist, history_weeks=4)
        ewma.observe(0, 30.0)
        window.observe(0, 30.0)
        assert ewma.predicted_rate(0) > window.predicted_rate(0)

    def test_weights_sum_to_one(self):
        w = EwmaByHourPredictor(_history()).weekly_weights()
        assert w.sum() == pytest.approx(1.0)

    def test_budgeter_compatible(self):
        from repro.core import Budgeter

        b = Budgeter(100.0, EwmaByHourPredictor(_history()), month_hours=48)
        assert b.hourly_budget() > 0


class TestLastWeekPredictor:
    def test_persistence(self):
        rates = np.concatenate(
            [np.full(HOURS_PER_WEEK, 10.0), np.full(HOURS_PER_WEEK, 25.0)]
        )
        p = LastWeekPredictor(Trace(rates))
        assert p.predicted_rate(3) == pytest.approx(25.0)

    def test_observe_overwrites(self):
        p = LastWeekPredictor(Trace(np.full(HOURS_PER_WEEK, 5.0)))
        p.observe(0, 99.0)
        assert p.predicted_rate(0) == pytest.approx(99.0)


class TestEvaluatePredictor:
    def test_perfect_forecast_on_deterministic_trace(self):
        hist = wikipedia_like_trace(HOURS_PER_WEEK, 1e5, seed=0, noise=0.0)
        future = wikipedia_like_trace(HOURS_PER_WEEK, 1e5, seed=0, noise=0.0)
        score = evaluate_predictor(LastWeekPredictor(hist), future, update=False)
        assert score.mape == pytest.approx(0.0, abs=1e-12)
        assert score.rmse == pytest.approx(0.0, abs=1e-6)
        assert score.n_hours == HOURS_PER_WEEK

    def test_scores_reasonable_on_noisy_trace(self):
        hist = _history(weeks=4, seed=1)
        future = wikipedia_like_trace(
            HOURS_PER_WEEK * 2, 1e6, seed=77, noise=0.03, start_weekday=0
        )
        score = evaluate_predictor(HourOfWeekPredictor(hist), future)
        assert 0.0 < score.mape < 0.15
        assert score.n_hours == future.hours

    def test_window_average_beats_persistence_on_noise(self):
        # The paper's 2-week average should beat naive persistence on a
        # noisy but stationary workload (averaging cancels noise).
        hist = _history(weeks=4, seed=2)
        future = wikipedia_like_trace(
            HOURS_PER_WEEK * 2, 1e6, seed=55, noise=0.06, start_weekday=0
        )
        s_window = evaluate_predictor(HourOfWeekPredictor(hist), future)
        s_naive = evaluate_predictor(LastWeekPredictor(hist), future)
        assert s_window.rmse < s_naive.rmse
