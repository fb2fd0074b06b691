"""A run's headline cost is its settled bill, under every tariff.

``SimulationResult.total_cost`` (what ``repro run`` prints as "total
cost", what ``budget_utilization`` divides and what the closed-loop
sweep metric reports) sums each hour's line items. Under the energy
tariff that is the energy cost bit for bit, so energy-only figures keep
their bits; under a demand tariff it includes the demand charge.
"""

import numpy as np
import pytest

HOURS = 24
#: ~0.85 of world seed 7's uncapped month, as ``--budget-fraction 0.85``
#: resolves it.
MONTHLY_BUDGET = 1_630_000.0


@pytest.fixture(scope="module")
def world():
    from repro.experiments import paper_world

    return paper_world(1, seed=7)


@pytest.fixture(scope="module")
def engine(world):
    from repro.sim import Engine

    return Engine(world.sites, world.workload, world.mix)


def _run(world, engine, tariff):
    return engine.run(
        "capping",
        budgeter=world.budgeter(MONTHLY_BUDGET),
        hours=HOURS,
        tariff=tariff,
    )


def test_demand_run_total_is_the_sum_of_its_line_items(world, engine):
    result = _run(world, engine, "energy+demand:rate=0.5,cycle=24")
    items = [item.amount for h in result.hours for item in h.line_items]
    demand = sum(
        item.amount
        for h in result.hours
        for item in h.line_items
        if item.component == "demand"
    )
    assert demand > 0.0
    assert result.total_cost == pytest.approx(sum(items), rel=1e-12)
    energy = float(result.hourly_costs.sum())
    assert result.total_cost == pytest.approx(energy + demand, rel=1e-12)
    summary = result.summary()
    assert summary["total_cost"] == result.total_cost
    assert summary["mean_hourly_cost"] == pytest.approx(result.total_cost / HOURS)
    assert result.budget_utilization(MONTHLY_BUDGET) == (
        result.total_cost / MONTHLY_BUDGET
    )


def test_energy_run_total_is_the_energy_cost_bitwise(world, engine):
    result = _run(world, engine, None)
    assert result.total_cost == float(result.hourly_costs.sum())
    assert result.summary()["mean_hourly_cost"] == float(result.hourly_costs.mean())
    assert np.array_equal(result.hourly_bills, result.hourly_costs)
