"""Regenerate the pinned fault-injected runs in this directory.

Run from the repo root against a known-good tree::

    PYTHONPATH=src python tests/fixtures/resilience/gen_fixtures.py

Every case is a Cost Capping run on the Section VI world (policy 1,
world seed 7) at 0.85 of the uncapped spend, ``HOURS`` hours long,
under a seeded :class:`~repro.resilience.FaultSpec` at which all five
fault channels fire (stale prices, sensor dropout, solver error, solver
timeout and budgeter loss; two solver faults fall on consecutive hours,
so ``hold-last`` holds one plan across both):

* ``runs.json`` — every hour's ``HourRecord`` for each degradation
  setting (none, ``proportional``, ``hold-last``, ``premium-shed``)
  under the ``energy`` tariff, plus ``hold-last`` under
  ``DEMAND_TARIFF``;
* ``hold_last_ckpt.json`` — the engine checkpoint of the ``hold-last``
  energy run cut after ``CUT_HOUR`` hours. The hour it was cut at is a
  solver fault, so the first resumed hour is dispatched from the
  checkpoint's hold-last decision.

The resilience tests rerun every case and compare each record field
for field, and resume the checkpoint to the uninterrupted run.
"""

from __future__ import annotations

import json
import pathlib

HERE = pathlib.Path(__file__).parent

HOURS = 16
BUDGET_FRACTION = 0.85
CUT_HOUR = 9
DEMAND_TARIFF = "energy+demand:rate=0.5,cycle=24"

#: Solver faults at hours 1, 4-5, 8-9 and 12; every channel fires at
#: least once after hour 0 (where sensing faults are no-ops).
FAULTS = {
    "price_stale": 0.15,
    "sensor_dropout": 0.15,
    "solver_error": 0.15,
    "solver_timeout": 0.1,
    "budget_loss": 0.1,
    "seed": 14,
}

#: case -> (degradation policy value or None, tariff spec)
CASES = {
    "none": (None, "energy"),
    "proportional": ("proportional", "energy"),
    "hold-last": ("hold-last", "energy"),
    "premium-shed": ("premium-shed", "energy"),
    "hold-last-demand": ("hold-last", DEMAND_TARIFF),
}


def build():
    """The pinned world, its engine and the resolved monthly budget."""
    from repro.experiments import paper_world
    from repro.sim import Engine, resolve_monthly_budget

    world = paper_world(1, seed=7)
    engine = Engine(world.sites, world.workload, world.mix)
    monthly = resolve_monthly_budget(
        world, BUDGET_FRACTION, hours=HOURS, engine=engine
    )
    return world, engine, monthly


def run_case(name: str, world, engine, monthly, **kwargs):
    """Run one pinned case; ``kwargs`` override ``Engine.run`` options."""
    from repro.resilience import DegradationPolicy, FaultInjector, FaultSpec

    policy, tariff = CASES[name]
    options = dict(
        budgeter=world.budgeter(monthly),
        hours=HOURS,
        faults=FaultInjector(FaultSpec(**FAULTS)),
        degradation=DegradationPolicy(policy) if policy else None,
        tariff=tariff,
    )
    options.update(kwargs)
    return engine.run("capping", **options)


if __name__ == "__main__":
    world, engine, monthly = build()
    runs = {}
    for case_name in CASES:
        result = run_case(case_name, world, engine, monthly)
        runs[case_name] = [h.to_dict() for h in result.hours]
        print(f"{case_name}: {result.degraded_hours} degraded hours")
    # One record per line keeps the fixture small and its diffs legible.
    lines = ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(rec)}" for rec in records)
        + "\n ]"
        for name, records in runs.items()
    )
    (HERE / "runs.json").write_text("{\n" + lines + "\n}\n")
    ckpt = HERE / "hold_last_ckpt.json"
    run_case("hold-last", world, engine, monthly, hours=CUT_HOUR,
             checkpoint_path=ckpt)
    print(f"checkpoint cut after {CUT_HOUR} h -> {ckpt.name}")
