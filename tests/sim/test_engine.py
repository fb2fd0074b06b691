"""Tests for the strategy engine and registry (`repro.sim.engine`).

The engine is *the* hourly control loop now: every entry point routes
through it, so these tests pin (a) the registry contract, (b) that a
strategy instance and its registry name run bit-identically under the
same result name, and (c) that user-registered strategies are
first-class citizens of the pipeline.
"""

import pytest

from repro.core import BillCapper, CappingStep, HourlyDecision, PriceMode
from repro.experiments import paper_world
from repro.sim import (
    Engine,
    available_strategies,
    compare_strategies,
    get_strategy,
    register_strategy,
)
from repro.sim.registry import _FACTORIES
from repro.sim.strategies import CappingStrategy, MinOnlyStrategy

HOURS = 12


@pytest.fixture(scope="module")
def world():
    return paper_world(max_servers=500_000, seed=3)


@pytest.fixture(scope="module")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


def records_equal(a, b):
    """Field-for-field equality of two SimulationResults."""
    return len(a.hours) == len(b.hours) and all(
        x.to_dict() == y.to_dict() for x, y in zip(a.hours, b.hours)
    )


class TestRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        assert set(names) >= {
            "capping",
            "min-only-avg",
            "min-only-low",
            "min-only-current",
            "hierarchical",
        }
        assert names == tuple(sorted(names))

    def test_fresh_instance_per_get(self):
        assert get_strategy("capping") is not get_strategy("capping")

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="unknown strategy 'nope'"):
            get_strategy("nope")
        with pytest.raises(ValueError, match="min-only-avg"):
            get_strategy("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("capping", CappingStrategy)

    def test_replace_allows_override(self):
        original = _FACTORIES["capping"]
        try:
            register_strategy("capping", CappingStrategy, replace=True)
        finally:
            _FACTORIES["capping"] = original

    def test_factory_name_mismatch_rejected(self):
        register_strategy("misnamed", CappingStrategy)
        try:
            with pytest.raises(ValueError, match="named 'capping'"):
                get_strategy("misnamed")
        finally:
            del _FACTORIES["misnamed"]

    def test_invalid_registrations(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register_strategy("", CappingStrategy)
        with pytest.raises(TypeError, match="callable"):
            register_strategy("not-callable", object())


class TestWrapperEquivalence:
    """Strategy instances and registry names are interchangeable."""

    def test_result_names(self, world, engine):
        anchor = engine.run("capping", hours=HOURS)
        assert anchor.name == "cost-capping"
        monthly = anchor.total_cost * world.hours / HOURS * 0.7
        budgeted = engine.run(
            CappingStrategy(capper=BillCapper()),
            budgeter=world.budgeter(monthly),
            hours=HOURS,
        )
        assert budgeted.name == "cost-capping"
        for mode in PriceMode:
            by_name = engine.run(f"min-only-{mode.value}", hours=HOURS)
            by_instance = engine.run(MinOnlyStrategy(mode), hours=HOURS)
            assert records_equal(by_name, by_instance)
            assert by_name.name == by_instance.name == f"min-only-{mode.value}"

    def test_strategy_instance_and_name_agree(self, engine):
        by_name = engine.run("min-only-avg", hours=HOURS)
        by_instance = engine.run(
            MinOnlyStrategy(mode=PriceMode.AVG), hours=HOURS
        )
        assert records_equal(by_name, by_instance)


class TestValidation:
    def test_price_taker_rejects_budgeter(self, world, engine):
        with pytest.raises(ValueError, match="does not consume a budget"):
            engine.run(
                "min-only-avg",
                budgeter=world.budgeter(1e6),
                hours=2,
            )

    def test_hours_out_of_range(self, engine):
        with pytest.raises(ValueError, match="hours must be in"):
            engine.run("capping", hours=0)
        with pytest.raises(ValueError, match="hours must be in"):
            engine.run("capping", hours=10**6)

    def test_empty_sites_rejected(self, world):
        with pytest.raises(ValueError, match="at least one site"):
            Engine([], world.workload, world.mix)


class TestHierarchical:
    def test_runs_through_engine(self, world, engine):
        anchor = engine.run("capping", hours=2)
        monthly = anchor.total_cost * world.hours / 2 * 0.8
        res = engine.run(
            "hierarchical", budgeter=world.budgeter(monthly), hours=2
        )
        assert len(res.hours) == 2
        assert res.name == "hierarchical"
        assert res.premium_throughput_fraction == pytest.approx(1.0, abs=1e-6)


class GreedyCheapestSite:
    """Toy custom strategy: everything to the hour's cheapest avg price."""

    name = "greedy-cheapest"
    wants_budget = False

    def prepare(self, world):
        pass

    def decide(self, ctx):
        from repro.core import Allocation

        cheapest = min(
            ctx.site_hours, key=lambda sh: sh.policy.prices[0]
        )
        served = min(ctx.total_rps, cheapest.max_rate_rps)
        return HourlyDecision(
            step=CappingStep.BASELINE,
            allocations=tuple(
                Allocation(
                    site=sh.name,
                    rate_rps=served if sh.name == cheapest.name else 0.0,
                    predicted_power_mw=0.0,
                    predicted_price=0.0,
                    predicted_cost=0.0,
                )
                for sh in ctx.site_hours
            ),
            served_premium_rps=ctx.demand_premium_rps,
            served_ordinary_rps=max(
                0.0, served - ctx.demand_premium_rps
            ),
            demand_premium_rps=ctx.demand_premium_rps,
            demand_ordinary_rps=ctx.demand_ordinary_rps,
            predicted_cost=0.0,
        )


class TestCustomStrategy:
    @pytest.fixture(autouse=True)
    def _registered(self):
        register_strategy("greedy-cheapest", GreedyCheapestSite, replace=True)
        yield
        _FACTORIES.pop("greedy-cheapest", None)

    def test_listed_and_resolvable(self):
        assert "greedy-cheapest" in available_strategies()
        assert isinstance(get_strategy("greedy-cheapest"), GreedyCheapestSite)

    def test_runs_through_engine(self, engine):
        res = engine.run("greedy-cheapest", hours=4)
        assert len(res.hours) == 4
        assert res.name == "greedy-cheapest"
        # Single-site dispatch every hour.
        for h in res.hours:
            assert sum(1 for s in h.sites if s.dispatched_rps > 0) <= 1

    def test_joins_compare(self):
        res = compare_strategies(
            strategies=("capping", "greedy-cheapest"), hours=2
        )
        assert list(res) == ["capping", "greedy-cheapest"]
        assert len(res["greedy-cheapest"].hours) == 2
