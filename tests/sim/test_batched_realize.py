"""``Engine(batched=True)`` must be bit-identical to the scalar path.

The batched realize loop swaps the per-site ``LocalOptimizer`` /
``policy.price`` calls for :class:`SiteBank` / :class:`CurveBank`
evaluations. It is the default, so any drift — a reordered float
addition, a different step-boundary convention — would silently change
every published number. These tests replay identical worlds down both
paths and compare every record field exactly, including a power-capped
world (the scalar shedding fallback) and a weather-cooling world (the
per-hour ``coe`` override).
"""

import dataclasses

from repro.core import PriceMode
from repro.datacenter import synthetic_coe_trace
from repro.experiments.paper_setup import paper_world
from repro.sim import Engine
from repro.sim.strategies import MinOnlyStrategy


def run_pair(world, hours, strategy="capping", budget_fraction=None):
    results = []
    for batched in (True, False):
        engine = Engine(world.sites, world.workload, world.mix, batched=batched)
        if strategy == "capping":
            budgeter = None
            if budget_fraction is not None:
                anchor = Engine(
                    world.sites, world.workload, world.mix
                ).run("capping", hours=hours)
                monthly = (
                    anchor.total_cost * world.hours / hours * budget_fraction
                )
                budgeter = world.budgeter(monthly)
            results.append(
                engine.run("capping", budgeter=budgeter, hours=hours)
            )
        else:
            results.append(engine.run(MinOnlyStrategy(strategy), hours=hours))
    return results


def assert_identical(a, b):
    assert len(a) == len(b)
    assert a.total_cost == b.total_cost
    for ha, hb in zip(a.hours, b.hours):
        assert ha.realized_cost == hb.realized_cost
        assert ha.predicted_cost == hb.predicted_cost
        assert ha.served_premium_rps == hb.served_premium_rps
        assert ha.served_ordinary_rps == hb.served_ordinary_rps
        for sa, sb in zip(ha.sites, hb.sites):
            assert sa.site == sb.site
            assert sa.dispatched_rps == sb.dispatched_rps
            assert sa.served_rps == sb.served_rps
            assert sa.power_mw == sb.power_mw
            assert sa.price == sb.price
            assert sa.cost == sb.cost
            assert sa.n_servers == sb.n_servers
            assert sa.response_time_s == sb.response_time_s


class TestBitIdentity:
    def test_capping_uncapped(self):
        world = paper_world()
        batched, scalar = run_pair(world, 48)
        assert_identical(batched, scalar)

    def test_capping_with_budget(self):
        world = paper_world()
        batched, scalar = run_pair(world, 48, budget_fraction=0.85)
        assert_identical(batched, scalar)

    def test_min_only_modes(self):
        world = paper_world()
        for mode in (PriceMode.AVG, PriceMode.LOW, PriceMode.CURRENT):
            batched, scalar = run_pair(world, 36, strategy=mode)
            assert_identical(batched, scalar)

    def test_power_capped_world_exercises_scalar_fallback(self):
        # A tight site cap forces shedding: the batched path must defer
        # to the scalar LocalOptimizer for the capped hours and still
        # match bit for bit.
        world = paper_world(power_cap_mw=8.0)
        batched, scalar = run_pair(world, 36)
        assert_identical(batched, scalar)
        assert any(
            s.dispatched_rps > s.served_rps
            for h in batched.hours
            for s in h.sites
        )

    def test_weather_cooling_world(self):
        # Per-hour cooling-efficiency traces flow through the ``coe``
        # override of the batched provisioning.
        world = paper_world(seed=3)
        sites = [
            dataclasses.replace(
                site,
                coe_trace=synthetic_coe_trace(
                    len(site.background_mw),
                    site.datacenter.cooling.coe,
                    seed=10 + i,
                ),
            )
            for i, site in enumerate(world.sites)
        ]
        results = []
        for batched in (True, False):
            engine = Engine(sites, world.workload, world.mix, batched=batched)
            results.append(engine.run("capping", hours=36))
        assert_identical(*results)


class TestFallbackWiring:
    def test_heterogeneous_fleet_disables_the_bank(self):
        world = paper_world(heterogeneous=True)
        engine = Engine(world.sites, world.workload, world.mix)
        assert engine._bank is None and engine._curves is None
        # And the run still works on the scalar path.
        res = engine.run("capping", hours=6)
        assert res.total_cost > 0

    def test_batched_false_never_builds_banks(self):
        world = paper_world()
        engine = Engine(world.sites, world.workload, world.mix, batched=False)
        assert engine._bank is None and engine._curves is None


class TestBillingMarket:
    """``_realize`` bills every site at the market snapshot it is handed."""

    HOUR = 10

    @staticmethod
    def _decision(engine, t):
        from repro.core import BillCapper

        total = float(engine.workload.rates_rps[t])
        return BillCapper().decide(
            engine._site_hours(t),
            engine.mix.premium_rate(total),
            engine.mix.ordinary_rate(total),
            float("inf"),
        )

    def test_none_bills_the_true_hour(self):
        world = paper_world()
        for batched in (True, False):
            engine = Engine(
                world.sites, world.workload, world.mix, batched=batched
            )
            decision = self._decision(engine, self.HOUR)
            default = engine._realize(self.HOUR, decision, None)
            true = engine._realize(
                self.HOUR, decision, engine._site_hours(self.HOUR)
            )
            assert default.to_dict() == true.to_dict()

    def test_handed_policy_and_background_set_the_price(self):
        world = paper_world()
        records = []
        for batched in (True, False):
            engine = Engine(
                world.sites, world.workload, world.mix, batched=batched
            )
            decision = self._decision(engine, self.HOUR)
            true = engine._site_hours(self.HOUR)
            flat = dataclasses.replace(
                true[0].policy, breakpoints=(), prices=(99.0,)
            )
            market = [
                dataclasses.replace(true[0], policy=flat),
                dataclasses.replace(
                    true[1], background_mw=true[1].background_mw * 1.5
                ),
                *true[2:],
            ]
            billed = engine._realize(self.HOUR, decision, market)
            plain = engine._realize(self.HOUR, decision, None)
            assert billed.sites[0].price == 99.0
            assert billed.sites[0].cost == 99.0 * billed.sites[0].power_mw
            assert billed.sites[1].price == true[1].policy.price(
                market[1].background_mw + billed.sites[1].power_mw
            )
            assert billed.sites[2:] == plain.sites[2:]
            assert billed.sites[0].price != plain.sites[0].price
            assert billed.sites[1].price != plain.sites[1].price
            records.append(billed.to_dict())
        assert records[0] == records[1]
