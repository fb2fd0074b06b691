"""Tests for the canonical paper setup (`repro.experiments`)."""

import numpy as np
import pytest

from repro.experiments import (
    PAPER_BUDGET_LEVELS,
    paper_datacenters,
    paper_pricing,
    paper_world,
)


class TestPaperDatacenters:
    def test_three_sites_with_paper_parameters(self):
        dcs = paper_datacenters()
        assert [dc.name for dc in dcs] == ["DC1", "DC2", "DC3"]
        assert [dc.servers.service_rate for dc in dcs] == [500.0, 300.0, 725.0]
        assert [round(dc.cooling.coe, 2) for dc in dcs] == [1.94, 1.39, 1.74]

    def test_price_maker_scale(self):
        # Sites must reach the 100-237 MW breakpoint ladder.
        for dc in paper_datacenters():
            assert dc.peak_power_mw() > 100.0

    def test_power_cap_passthrough(self):
        dcs = paper_datacenters(power_cap_mw=50.0)
        assert all(dc.power_cap_mw == 50.0 for dc in dcs)


class TestPaperPricing:
    def test_policy0_flat(self):
        assert all(p.is_flat() for p in paper_pricing(0))

    def test_policy1_is_base(self):
        pols = paper_pricing(1)
        assert pols[0].prices == (10.00, 13.90, 15.00, 22.00, 24.00)

    def test_policies_scale_increments(self):
        base = paper_pricing(1)[0]
        for pid, factor in ((2, 2.0), (3, 3.0)):
            scaled = paper_pricing(pid)[0]
            for b, s in zip(base.prices, scaled.prices):
                assert s == pytest.approx(10.0 + factor * (b - 10.0))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            paper_pricing(4)


class TestPaperWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return paper_world(max_servers=500_000)

    def test_structure(self, world):
        assert len(world.sites) == 3
        assert world.hours == 720
        assert world.history.hours == 720
        assert world.mix.premium_fraction == pytest.approx(0.8)

    def test_background_traces_cover_month(self, world):
        for site in world.sites:
            assert site.background_mw.size >= world.hours

    def test_demand_fraction_validated(self):
        with pytest.raises(ValueError):
            paper_world(demand_fraction=0.0)
        with pytest.raises(ValueError):
            paper_world(demand_fraction=1.5)

    def test_peak_demand_within_capacity(self, world):
        capacity = sum(dc.max_throughput_rps() for dc in world.datacenters)
        # Lognormal jitter can push single hours a few percent over the
        # nominal peak, but the trace stays well within total capacity.
        assert world.workload.rates_rps.max() < capacity * 0.75

    def test_budgeter_construction(self, world):
        b = world.budgeter(1_000_000.0)
        assert b.monthly_budget == 1_000_000.0
        assert b.hourly_budget() > 0

    def test_min_only_construction(self, world):
        from repro.core import PriceMode

        disp = world.min_only(PriceMode.LOW)
        assert set(disp.server_slopes) == {"DC1", "DC2", "DC3"}

    def test_budget_levels_ordered(self):
        fracs = list(PAPER_BUDGET_LEVELS.values())
        assert fracs == sorted(fracs)
        assert fracs[0] < 0.75 < fracs[-1]  # spans the premium cost share

    def test_heterogeneous_world(self):
        from repro.datacenter import HeterogeneousDataCenter
        from repro.sim import Engine

        w = paper_world(heterogeneous=True, max_servers=400_000)
        assert all(
            isinstance(dc, HeterogeneousDataCenter) for dc in w.datacenters
        )
        assert all(len(dc.pools) == 2 for dc in w.datacenters)
        # The full pipeline works end to end, baselines included.
        engine = Engine(w.sites, w.workload, w.mix)
        capping = engine.run("capping", hours=4)
        baseline = engine.run("min-only-avg", hours=4)
        assert capping.total_cost > 0
        assert capping.total_cost <= baseline.total_cost * 1.001

    def test_heterogeneous_legacy_fraction_validated(self):
        from repro.experiments import paper_heterogeneous_datacenters

        with pytest.raises(ValueError):
            paper_heterogeneous_datacenters(legacy_fraction=0.0)

    def test_seed_changes_workload_not_hardware(self):
        w1 = paper_world(seed=1, max_servers=500_000)
        w2 = paper_world(seed=2, max_servers=500_000)
        assert not np.array_equal(w1.workload.rates_rps, w2.workload.rates_rps)
        assert [dc.name for dc in w1.datacenters] == [
            dc.name for dc in w2.datacenters
        ]
