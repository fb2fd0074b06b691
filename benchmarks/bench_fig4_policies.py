"""Figure 4: monthly bills under Pricing Policies 0-3.

The paper's Figure 4 compares the monthly bills of Cost Capping and the
Min-Only baselines under four pricing policies: Policy 0 (flat,
price-taker world), Policy 1 (PJM-5-bus steps), Policies 2/3 (doubled /
tripled increments). Claims reproduced:

* under Policy 0 all strategies pay the same (nothing to exploit);
* under Policies 1-3 Cost Capping is strictly cheaper;
* the gap grows with the steepness of the steps.
"""

import pytest

from repro.experiments import paper_world
from repro.sim import Engine

from conftest import BENCH_HOURS

from _report import report, table

#: Shorter horizon: 4 policies x 3 strategies = 12 month simulations.
_HOURS = max(48, BENCH_HOURS // 3)


@pytest.fixture(scope="module")
def policy_results():
    out = {}
    for pid in (0, 1, 2, 3):
        w = paper_world(pid)
        engine = Engine(w.sites, w.workload, w.mix)
        out[pid] = {
            "cc": engine.run("capping", hours=_HOURS).total_cost,
            "avg": engine.run("min-only-avg", hours=_HOURS).total_cost,
            "low": engine.run("min-only-low", hours=_HOURS).total_cost,
        }
    return out


def test_fig4_policy_sweep(benchmark, policy_results):
    # Benchmark one representative strategy-month (the rest are cached).
    w = paper_world(1)
    engine = Engine(w.sites, w.workload, w.mix)
    benchmark.pedantic(
        lambda: engine.run("capping", hours=min(48, _HOURS)),
        rounds=1,
        iterations=1,
    )

    rows = []
    for pid, res in policy_results.items():
        saving = 1 - res["cc"] / res["avg"]
        rows.append(
            (
                f"Policy {pid}",
                f"{res['cc']:,.0f}",
                f"{res['avg']:,.0f}",
                f"{res['low']:,.0f}",
                f"{saving:.1%}",
            )
        )
    report(
        "fig4",
        f"bill over {_HOURS} h under Policies 0-3 ($)",
        table(("policy", "CostCapping", "MinOnly(Avg)", "MinOnly(Low)", "saving"), rows),
    )

    # -- shape assertions -------------------------------------------------------
    r0 = policy_results[0]
    # Policy 0: price takers and price makers coincide.
    assert r0["cc"] == pytest.approx(r0["avg"], rel=1e-6)
    assert r0["cc"] == pytest.approx(r0["low"], rel=1e-6)
    # Policies 1-3: capping strictly cheaper.
    savings = {}
    for pid in (1, 2, 3):
        res = policy_results[pid]
        assert res["cc"] < res["avg"]
        savings[pid] = 1 - res["cc"] / res["avg"]
    # The gap grows with step steepness (paper's log-scale bars).
    assert savings[1] < savings[2] < savings[3]
    # Everyone's bill grows with steeper pricing.
    assert (
        policy_results[0]["cc"]
        < policy_results[1]["cc"]
        < policy_results[2]["cc"]
        < policy_results[3]["cc"]
    )
