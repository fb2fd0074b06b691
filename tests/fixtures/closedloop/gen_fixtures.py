"""Regenerate the pinned closed-loop fixtures in this directory.

Run from the repo root against a known-good tree::

    PYTHONPATH=src python tests/fixtures/closedloop/gen_fixtures.py

Two closed-loop runs (dispatch <-> DC-OPF fixed point on the PJM
five-bus grid) are pinned, each as every hour's ``HourRecord`` plus the
hour's ``FixedPointResult`` (LMPs, LMP history, regenerated policies,
injections, iteration count and flags):

* ``paper_world.json`` — 24 h of the Section VI world (policy 1, world
  seed 7) under Bill Capping at a monthly budget of ~0.85 of the
  uncapped spend;
* ``contingency.json`` — 6 uncapped hours with the D-E line out,
  renewable-shaped background demand and 3 symmetric operators.

The closed-loop tests rerun both cases and compare the serialized JSON
text, so every float must match bit for bit (``repr`` round-trips, and
``-0.0`` and ``NaN`` keep their spelling).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib

HERE = pathlib.Path(__file__).parent

#: ~0.85 x the uncapped spend of world seed 7 (24-h anchor scaled to the
#: month), the budget ``--budget-fraction 0.85`` resolves to.
MONTHLY_BUDGET = 1_630_000.0

CASES = {
    "paper_world": {"hours": 24, "monthly_budget": MONTHLY_BUDGET},
    "contingency": {
        "hours": 6,
        "line_outage": "D-E",
        "background": "renewable",
        "operators": 3,
    },
}


def _world(case: dict):
    from repro.experiments import paper_world
    from repro.powermarket import renewable_background

    world = paper_world(1, seed=7)
    if case.get("background") == "renewable":
        # The sweep metric's renewable axis: duck-curve net load
        # calibrated to each site's first price breakpoint.
        world.sites = [
            dataclasses.replace(
                site,
                background_mw=renewable_background(
                    site.background_mw.size,
                    max(0.8 * site.policy.breakpoints[0], 5.0),
                    seed=107 + i,
                ),
            )
            for i, site in enumerate(world.sites)
        ]
    return world


def _fixed_point_recorder(runtime):
    """Middleware keeping each hour's ``FixedPointResult`` as a dict."""
    from repro.sim.engine import StageMiddleware

    class FixedPoints(StageMiddleware):
        def __init__(self):
            self.fixed_points = []

        @contextlib.contextmanager
        def hour(self, ctx, state):
            yield
            self.fixed_points.append(dataclasses.asdict(runtime.last))

    return FixedPoints()


def run_case(name: str) -> str:
    """Run one pinned case; returns its fixture's JSON text."""
    from repro.powermarket import ClosedLoopConfig, line_outage
    from repro.sim import Engine
    from repro.sim.endogenous import EndogenousPriceMiddleware

    case = CASES[name]
    world = _world(case)
    engine = Engine(world.sites, world.workload, world.mix)
    prices = EndogenousPriceMiddleware.for_engine(
        engine,
        grid="pjm5bus",
        config=ClosedLoopConfig(operators=case.get("operators", 1)),
        mutate=(
            line_outage(case["line_outage"])
            if case.get("line_outage")
            else None
        ),
    )
    recorder = _fixed_point_recorder(prices.runtime)
    budget = case.get("monthly_budget")
    result = engine.run(
        "capping",
        budgeter=world.budgeter(budget) if budget is not None else None,
        hours=case["hours"],
        middleware=[prices, recorder],
    )
    hours = [
        {"record": rec.to_dict(), "fixed_point": fp}
        for rec, fp in zip(result.hours, recorder.fixed_points, strict=True)
    ]
    return json.dumps(hours, indent=1) + "\n"


if __name__ == "__main__":
    for case_name in CASES:
        text = run_case(case_name)
        (HERE / f"{case_name}.json").write_text(text)
        print(f"{case_name}: {len(json.loads(text))} hours pinned")
