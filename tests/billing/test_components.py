"""Unit tests for the tariff components (energy + demand charges)."""

import pytest

from repro.billing import (
    DEFAULT_DEMAND_RATE_PER_KW,
    DemandCharge,
    EnergyCharge,
    HourUsage,
    LineItem,
)


class TestLineItem:
    def test_round_trip_without_detail(self):
        item = LineItem("energy", 123.456)
        back = LineItem.from_dict(item.to_dict())
        assert back.component == "energy"
        assert back.amount == 123.456
        assert "detail" not in item.to_dict()

    def test_round_trip_with_detail(self):
        item = LineItem("demand", 9.0, detail={"peak_mw": 4.5})
        back = LineItem.from_dict(item.to_dict())
        assert back.detail == {"peak_mw": 4.5}


class TestEnergyCharge:
    def test_charge_is_the_energy_cost_bitwise(self):
        # The default-identity contract: the line item IS the accrued
        # realized cost, the exact float, not a recomputation.
        cost = 0.1 + 0.2  # a float with representation error on purpose
        item = EnergyCharge().charge(HourUsage(0, cost, 50.0))
        assert item.component == "energy"
        assert item.amount == cost

    def test_project_returns_candidate_energy(self):
        assert EnergyCharge().project(3, 77.0, 10.0) == 77.0

    def test_no_peak_term(self):
        assert EnergyCharge().peak_term(0) is None

    def test_round_trip(self):
        back = EnergyCharge.from_dict(EnergyCharge().to_dict())
        assert isinstance(back, EnergyCharge)

    def test_rejects_parameters(self):
        with pytest.raises(ValueError, match="no parameters"):
            EnergyCharge.from_params({"rate": "2"})


class TestDemandCharge:
    def test_validation(self):
        with pytest.raises(ValueError):
            DemandCharge(rate_per_kw=-1.0)
        # NaN passes a bare sign check; it used to settle a $nan bill,
        # and inf an infeasible peak row.
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                DemandCharge(rate_per_kw=rate)
        with pytest.raises(ValueError):
            DemandCharge(cycle_hours=0)

    def test_defaults(self):
        d = DemandCharge()
        assert d.rate_per_kw == DEFAULT_DEMAND_RATE_PER_KW
        assert d.penalty_per_mw == DEFAULT_DEMAND_RATE_PER_KW * 1000.0

    def test_incremental_billing_telescopes_to_peak(self):
        d = DemandCharge(rate_per_kw=2.0, cycle_hours=24)
        powers = [10.0, 30.0, 20.0, 30.0, 45.0, 5.0]
        items = [d.charge(HourUsage(h, 0.0, p)) for h, p in enumerate(powers)]
        total = sum(i.amount for i in items)
        assert total == pytest.approx(2.0 * 1000.0 * max(powers))
        # Non-peak hours bill nothing.
        assert items[2].amount == 0.0
        assert items[5].amount == 0.0

    def test_cycle_boundary_resets_the_peak(self):
        d = DemandCharge(rate_per_kw=1.0, cycle_hours=2)
        d.charge(HourUsage(0, 0.0, 40.0))
        d.charge(HourUsage(1, 0.0, 10.0))
        # Hour 2 opens a new cycle: the whole power is new peak again.
        item = d.charge(HourUsage(2, 0.0, 25.0))
        assert item.amount == pytest.approx(1000.0 * 25.0)
        assert d.cycle == 1
        assert d.peak_mw == 25.0

    def test_project_prices_only_the_excess(self):
        d = DemandCharge(rate_per_kw=1.0, cycle_hours=24)
        d.charge(HourUsage(0, 0.0, 30.0))
        assert d.project(1, 0.0, 20.0) == 0.0
        assert d.project(1, 0.0, 50.0) == pytest.approx(1000.0 * 20.0)
        # A different cycle projects against a zero peak.
        assert d.project(24, 0.0, 50.0) == pytest.approx(1000.0 * 50.0)

    def test_peak_term_exposes_cycle_peak_and_penalty(self):
        d = DemandCharge(rate_per_kw=3.0, cycle_hours=24)
        assert d.peak_term(0) == (0.0, 3000.0)
        d.charge(HourUsage(0, 0.0, 12.0))
        assert d.peak_term(1) == (12.0, 3000.0)
        assert d.peak_term(24) == (0.0, 3000.0)  # next cycle

    def test_zero_rate_has_no_peak_term(self):
        assert DemandCharge(rate_per_kw=0.0).peak_term(0) is None

    def test_round_trip_preserves_cycle_state(self):
        d = DemandCharge(rate_per_kw=2.5, cycle_hours=48)
        d.charge(HourUsage(5, 0.0, 33.25))
        back = DemandCharge.from_dict(d.to_dict())
        assert back.rate_per_kw == 2.5
        assert back.cycle_hours == 48
        assert back.peak_mw == d.peak_mw
        assert back.cycle == d.cycle

    def test_unstarted_round_trip_keeps_cycle_none(self):
        back = DemandCharge.from_dict(DemandCharge().to_dict())
        assert back.cycle is None

    def test_from_params_aliases(self):
        d = DemandCharge.from_params({"rate": "6", "cycle": "168"})
        assert (d.rate_per_kw, d.cycle_hours) == (6.0, 168)
        d = DemandCharge.from_params(
            {"rate_per_kw": "1.5", "cycle_hours": "720"}
        )
        assert (d.rate_per_kw, d.cycle_hours) == (1.5, 720)

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown demand-charge"):
            DemandCharge.from_params({"ratez": "6"})
