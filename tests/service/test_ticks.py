"""Tests for the streaming tick sources."""

import numpy as np
import pytest

from repro.service import Tick, build_ticks, bursty_ticks, replay_ticks
from repro.workload import Trace

HOUR = 3600.0


def _trace(hours: int = 4) -> Trace:
    rates = 100.0 + 20.0 * np.sin(np.arange(hours))
    return Trace(rates, name="unit")


class TestTick:
    def test_price_tick_must_name_a_site(self):
        with pytest.raises(ValueError):
            Tick(seq=0, time_s=0.0, kind="price", value=1.1)
        Tick(seq=0, time_s=0.0, kind="price", value=1.1, site="east")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Tick(seq=0, time_s=0.0, kind="weather", value=1.0)

    @pytest.mark.parametrize(
        ("time_s", "value"),
        [
            (float("nan"), 1.0),
            (float("inf"), 1.0),
            (0.0, float("nan")),
            (0.0, float("inf")),
            (float("inf"), float("nan")),
        ],
    )
    def test_non_finite_time_or_value_rejected(self, time_s, value):
        with pytest.raises(ValueError, match="finite"):
            Tick(seq=0, time_s=time_s, kind="lambda", value=value)

    def test_to_dict_round_trips_through_json(self):
        import json

        t = Tick(seq=3, time_s=120.5, kind="lambda", value=99.25)
        assert json.loads(json.dumps(t.to_dict())) == t.to_dict()


class TestReplayTicks:
    def test_same_seed_is_byte_identical(self):
        a = replay_ticks(_trace(), ticks_per_hour=6, jitter=0.05, seed=11)
        b = replay_ticks(_trace(), ticks_per_hour=6, jitter=0.05, seed=11)
        assert a == b

    def test_different_seed_differs(self):
        a = replay_ticks(_trace(), ticks_per_hour=6, jitter=0.05, seed=11)
        b = replay_ticks(_trace(), ticks_per_hour=6, jitter=0.05, seed=12)
        assert a != b

    def test_lambda_tick_exactly_at_each_hour_boundary(self):
        ticks = replay_ticks(_trace(4), ticks_per_hour=6, seed=0)
        boundary_times = {
            t.time_s for t in ticks if t.kind == "lambda" and t.time_s % HOUR == 0
        }
        assert boundary_times == {h * HOUR for h in range(4)}

    def test_seqs_contiguous_and_times_sorted(self):
        ticks = replay_ticks(
            _trace(3),
            ticks_per_hour=4,
            price_jitter=0.1,
            sites=("east", "west"),
            seed=5,
        )
        assert [t.seq for t in ticks] == list(range(len(ticks)))
        times = [t.time_s for t in ticks]
        assert times == sorted(times)

    def test_no_price_ticks_without_sites(self):
        ticks = replay_ticks(_trace(), ticks_per_hour=4, price_jitter=0.1, seed=0)
        assert all(t.kind == "lambda" for t in ticks)

    def test_price_ticks_name_sites_and_stay_clipped(self):
        ticks = replay_ticks(
            _trace(6),
            ticks_per_hour=4,
            price_jitter=0.5,
            sites=("east", "west"),
            seed=0,
        )
        prices = [t for t in ticks if t.kind == "price"]
        assert prices
        assert {t.site for t in prices} == {"east", "west"}
        assert all(0.5 <= t.value <= 2.0 for t in prices)

    def test_lambda_never_negative_under_heavy_jitter(self):
        ticks = replay_ticks(_trace(6), ticks_per_hour=12, jitter=5.0, seed=3)
        assert all(t.value >= 0.0 for t in ticks if t.kind == "lambda")

    def test_hours_clamps_the_stream(self):
        ticks = replay_ticks(_trace(6), ticks_per_hour=4, hours=2, seed=0)
        assert max(t.time_s for t in ticks) < 2 * HOUR


class TestBurstyTicks:
    def test_same_seed_is_byte_identical(self):
        a = bursty_ticks(_trace(), ticks_per_hour=6, ca2=4.0, seed=9)
        b = bursty_ticks(_trace(), ticks_per_hour=6, ca2=4.0, seed=9)
        assert a == b

    def test_burstier_than_replay(self):
        smooth = replay_ticks(_trace(6), ticks_per_hour=12, seed=2)
        bursty = bursty_ticks(_trace(6), ticks_per_hour=12, ca2=8.0, seed=2)
        cv = lambda ts: np.std(v := [t.value for t in ts]) / np.mean(v)
        assert cv(bursty) > cv(smooth)


class TestBuildTicks:
    def test_spec_round_trip_is_deterministic(self):
        spec = {
            "kind": "bursty",
            "ticks_per_hour": 8,
            "hours": 3,
            "seed": 42,
            "ca2": 4.0,
            "price_jitter": 0.1,
            "sites": ["east", "west"],
        }
        trace = _trace()
        assert build_ticks(trace, spec) == build_ticks(trace, dict(spec))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_ticks(_trace(), {"kind": "mystery"})
