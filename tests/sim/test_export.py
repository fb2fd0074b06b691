"""Tests for result CSV export and pricing-policy serialization."""

import csv
import json

import numpy as np
import pytest

from repro.powermarket import SteppedPricingPolicy
from repro.sim import SimulationResult

from .test_records import make_hour


class TestResultCsv:
    def test_round_trippable_columns(self, tmp_path):
        res = SimulationResult("t")
        for i in range(5):
            res.append(make_hour(hour=i, realized=100.0 + i, budget=200.0))
        path = res.to_csv(tmp_path / "run.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert rows[3]["realized_cost"] == repr(103.0)
        assert rows[0]["step"] == "cost-min"
        assert rows[0]["DC1_power_mw"] == repr(5.0)
        assert float(rows[0]["budget"]) == 200.0

    def test_infinite_budget_written_empty(self, tmp_path):
        res = SimulationResult("t")
        res.append(make_hour())
        path = res.to_csv(tmp_path / "run.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["budget"] == ""

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SimulationResult("empty").to_csv(tmp_path / "x.csv")

    def test_real_simulation_exports(self, tmp_path):
        from repro.core import Site
        from repro.sim import Engine
        from repro.workload import CustomerMix, Trace
        from tests.sim.test_simulator_properties import tiny_site

        site = tiny_site()
        wl = Trace(np.full(4, 2e6))
        res = Engine([site], wl, CustomerMix()).run("capping", hours=4)
        path = res.to_csv(tmp_path / "sim.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        total = sum(float(r["realized_cost"]) for r in rows)
        assert total == pytest.approx(res.total_cost)


class TestPolicySerialization:
    def test_round_trip(self):
        pol = SteppedPricingPolicy("B", (100.0, 200.0), (10.0, 20.0, 30.0))
        again = SteppedPricingPolicy.from_dict(pol.to_dict())
        assert again == pol

    def test_json_round_trip(self):
        pol = SteppedPricingPolicy("B", (100.0,), (10.0, 20.0))
        blob = json.dumps(pol.to_dict())
        again = SteppedPricingPolicy.from_dict(json.loads(blob))
        assert again.price(150.0) == 20.0

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            SteppedPricingPolicy.from_dict({"name": "x", "prices": [1.0]})
        with pytest.raises(ValueError):
            SteppedPricingPolicy.from_dict(
                {"name": "x", "breakpoints": [5.0, 1.0], "prices": [1, 2, 3]}
            )
