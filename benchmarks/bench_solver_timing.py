"""Section IV-C timing claim: the hourly MILP solves in milliseconds.

"for a large system with [1]3 data centers and 5 different pricing
levels, lp_solver consumes at most [1]2 millisecond[s] in an invocation
period of one hour to determine the optimal workload allocations with
up to 10^8 requests."

These are real microbenchmarks (many rounds): the hourly cost-min MILP
at 3 and 13 sites, the throughput-max MILP, the Min-Only LP, and one
DC-OPF dispatch. The on-line budget is an hour, so anything in
milliseconds leaves five orders of magnitude of headroom.

Run as a script — ``PYTHONPATH=src python benchmarks/bench_solver_timing.py
[--quick]`` — to produce the machine-readable perf baseline
``BENCH_solver.json`` at the repo root: the repeated-hour cost-min MILP
with and without the compiled-model cache, branch-and-bound node
throughput with and without warm starts, at 3 and 13 sites, plus the
large-fleet dispatch cases (50/200/1000 sites through the region
decomposition, against a monolithic reference where affordable) and the
decomposition-vs-monolithic equivalence check. CI runs the quick mode
and validates only the JSON shape, never absolute timings.
"""

import json
import pathlib
import time

import pytest

from repro.core import (
    CostMinimizer,
    MinOnlyDispatcher,
    PriceMode,
    ThroughputMaximizer,
    server_only_affine_slope,
)
from repro.powermarket import DcOpf, pjm5bus

#: Where the machine-readable baseline lands (repo root).
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_solver.json"


def _replicate_13(world, t: int):
    """The paper's large-system case: three sites replicated to 13.

    Backgrounds are perturbed so the MILP cannot collapse symmetric
    sites.
    """
    out = []
    for i in range(13):
        base = world.sites[i % 3].hour(t)
        out.append(
            type(base)(
                name=f"{base.name}-{i}",
                affine=base.affine,
                policy=base.policy,
                background_mw=base.background_mw * (0.9 + 0.02 * i),
                power_cap_mw=base.power_cap_mw,
                max_rate_rps=base.max_rate_rps,
            )
        )
    return out


def _replicate_n(world, n_sites: int, t: int):
    """A large synthetic fleet: the 3-site world tiled to ``n_sites``.

    Sites keep their source's pricing policy object, so the fleet has
    three market "regions" with many co-located sites each — the shape
    the decomposition solver's region packing exploits. Backgrounds are
    perturbed (bounded, so 1000 sites stay physical) to break symmetry.
    """
    out = []
    for i in range(n_sites):
        base = world.sites[i % 3].hour(t)
        out.append(
            type(base)(
                name=f"{base.name}-{i}",
                affine=base.affine,
                policy=base.policy,
                background_mw=base.background_mw * (0.85 + 0.003 * (i % 100)),
                power_cap_mw=base.power_cap_mw,
                max_rate_rps=base.max_rate_rps,
            )
        )
    return out


@pytest.fixture(scope="module")
def site_hours_3(world):
    return [s.hour(40) for s in world.sites]


@pytest.fixture(scope="module")
def site_hours_13(world):
    return _replicate_13(world, 40)


def _offered(world, fraction=0.5):
    return fraction * sum(sh.max_throughput_rps() for sh in world.datacenters)


def test_cost_min_3_sites(benchmark, world, site_hours_3):
    lam = 0.5 * sum(sh.max_rate_rps for sh in site_hours_3)
    solver = CostMinimizer()
    result = benchmark(lambda: solver.solve(site_hours_3, lam))
    assert result.predicted_cost > 0


def test_cost_min_13_sites(benchmark, site_hours_13):
    lam = 0.5 * sum(sh.max_rate_rps for sh in site_hours_13)
    solver = CostMinimizer()
    result = benchmark(lambda: solver.solve(site_hours_13, lam))
    assert result.predicted_cost > 0


def test_throughput_max_3_sites(benchmark, world, site_hours_3):
    lam = 0.5 * sum(sh.max_rate_rps for sh in site_hours_3)
    cost = CostMinimizer().solve(site_hours_3, lam).predicted_cost
    solver = ThroughputMaximizer()
    result = benchmark(lambda: solver.solve(site_hours_3, lam, cost * 0.7))
    assert result.served_total_rps > 0


def test_min_only_lp(benchmark, world, site_hours_3):
    lam = 0.5 * sum(sh.max_rate_rps for sh in site_hours_3)
    disp = MinOnlyDispatcher(
        price_mode=PriceMode.AVG,
        server_slopes={
            dc.name: server_only_affine_slope(dc) for dc in world.datacenters
        },
    )
    result = benchmark(lambda: disp.solve(site_hours_3, lam))
    assert result.predicted_cost > 0


def test_dcopf_dispatch(benchmark, world):
    opf = DcOpf(pjm5bus())
    loads = {b: 240.0 for b in ("B", "C", "D")}
    result = benchmark(lambda: opf.dispatch(loads))
    assert result.feasible


def test_cost_min_own_branch_bound(benchmark, world, site_hours_3):
    # The fully self-contained stack (own B&B over HiGHS LP nodes).
    lam = 0.5 * sum(sh.max_rate_rps for sh in site_hours_3)
    solver = CostMinimizer(backend="branch-bound")
    result = benchmark(lambda: solver.solve(site_hours_3, lam))
    assert result.predicted_cost > 0


def test_cost_min_3_sites_scipy(benchmark, world, site_hours_3):
    # Cold-path contrast for the default (cached + warm) case above.
    lam = 0.5 * sum(sh.max_rate_rps for sh in site_hours_3)
    solver = CostMinimizer(backend="scipy")
    result = benchmark(lambda: solver.solve(site_hours_3, lam))
    assert result.predicted_cost > 0


def test_cost_min_13_sites_scipy(benchmark, site_hours_13):
    lam = 0.5 * sum(sh.max_rate_rps for sh in site_hours_13)
    solver = CostMinimizer(backend="scipy")
    result = benchmark(lambda: solver.solve(site_hours_13, lam))
    assert result.predicted_cost > 0


# ---------------------------------------------------------------------------
# Standalone perf baseline: BENCH_solver.json
# ---------------------------------------------------------------------------

#: Acceptance floors the baseline is judged against (see ARCHITECTURE.md,
#: "Performance"). CI checks only the JSON shape; these ratios are for
#: humans and for the repo's own perf tracking on a quiet machine.
CRITERIA = {
    "model_cache_speedup_min": 3.0,
    "warm_node_speedup_min": 2.0,
    # Large-fleet dispatch (the decomposition path): a 200-site hourly
    # cost-min must land well inside the hourly control period.
    "hour_latency_max_s": 2.0,
    # Decomposition vs monolithic agreement, everywhere both run.
    "equivalence_rel_gap_max": 1e-3,
}

#: First simulated hour of the repeated-hour sequences. Offset from 0 so
#: backgrounds are mid-trace (every hour has a distinct demand pattern).
_T0 = 24


def _hours_at(world, n_sites: int, t: int):
    if n_sites == 3:
        return [s.hour(t) for s in world.sites]
    if n_sites == 13:
        return _replicate_13(world, t)
    return _replicate_n(world, n_sites, t)


def _cost_min_sf(site_hours, lam):
    """The cost-min MILP in standard form (what B&B actually consumes)."""
    from repro.core.dispatch_model import RATE_SCALE, build_dispatch_model

    dm = build_dispatch_model(site_hours, name="cost-min", step_margin_frac=0.01)
    dm.model.add(dm.total_rate_scaled == lam / RATE_SCALE, name="serve_all")
    dm.model.minimize(dm.total_cost)
    return dm.model.to_standard_form()


def _repeated_hour_case(world, n_sites: int, n_hours: int, passes: int) -> dict:
    """Repeated-hour cost-min: cold rebuild+solve vs cached patch+warm solve.

    Cold and hot run the *same* engine (own B&B over the dense simplex),
    so the ratio isolates what the model cache + warm starts buy. SciPy
    is timed too, as the external reference point. Each variant sweeps
    the hour sequence ``passes`` times and keeps the fastest sweep —
    min-of-N is the standard guard against scheduler noise at the
    millisecond scale, and it reports the steady state (the hot path's
    first sweep pays the one-time compile).
    """
    from repro.solver import BranchBoundSolver, SimplexSolver

    hour_list = [_hours_at(world, n_sites, _T0 + i) for i in range(n_hours)]
    lams = [0.5 * sum(sh.max_rate_rps for sh in hours) for hours in hour_list]

    def run(make_solver) -> float:
        best = float("inf")
        for _ in range(passes):
            t0 = time.perf_counter()
            for hours, lam in zip(hour_list, lams):
                make_solver().solve(hours, lam)
            best = min(best, time.perf_counter() - t0)
        return best

    # Cold: a fresh minimizer + cold B&B per hour — nothing carries over.
    cold_s = run(
        lambda: CostMinimizer(
            backend=BranchBoundSolver(lp_solver=SimplexSolver(), warm_start=False)
        )
    )
    # Hot: one default minimizer across the sequence (compiled-model
    # cache + warm-started B&B, exactly what the engine holds).
    hot = CostMinimizer()
    hot_s = run(lambda: hot)
    scipy_s = run(lambda: CostMinimizer(backend="scipy"))

    speedup = cold_s / hot_s if hot_s > 0 else float("inf")
    return {
        "sites": n_sites,
        "hours": n_hours,
        "cold_ms_per_hour": 1e3 * cold_s / n_hours,
        "hot_ms_per_hour": 1e3 * hot_s / n_hours,
        "scipy_ms_per_hour": 1e3 * scipy_s / n_hours,
        "model_cache_speedup": speedup,
        "meets_criterion": speedup >= CRITERIA["model_cache_speedup_min"],
    }


def _node_throughput_case(world, n_sites: int, reps: int) -> dict:
    """B&B node throughput (nodes/s) on one cost-min MILP, cold vs warm."""
    from repro.solver import BranchBoundSolver, SimplexSolver

    site_hours = _hours_at(world, n_sites, 40)
    lam = 0.5 * sum(sh.max_rate_rps for sh in site_hours)
    sf = _cost_min_sf(site_hours, lam)

    cold_nodes, cold_s = 0, 0.0
    for _ in range(reps):
        solver = BranchBoundSolver(lp_solver=SimplexSolver(), warm_start=False)
        t0 = time.perf_counter()
        res = solver.solve(sf)
        cold_s += time.perf_counter() - t0
        cold_nodes += res.iterations

    warm = BranchBoundSolver(lp_solver=SimplexSolver(), warm_start=True)
    primed = warm.solve(sf)  # untimed: builds the root basis + incumbent
    warm_nodes, warm_s = 0, 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        res = warm.solve(sf, warm_x=primed.x)
        warm_s += time.perf_counter() - t0
        warm_nodes += res.iterations

    cold_rate = cold_nodes / cold_s if cold_s > 0 else float("inf")
    warm_rate = warm_nodes / warm_s if warm_s > 0 else float("inf")
    speedup = warm_rate / cold_rate if cold_rate > 0 else float("inf")
    return {
        "sites": n_sites,
        "reps": reps,
        "cold_nodes": cold_nodes,
        "warm_nodes": warm_nodes,
        "cold_nodes_per_s": cold_rate,
        "warm_nodes_per_s": warm_rate,
        "warm_node_speedup": speedup,
        "meets_criterion": speedup >= CRITERIA["warm_node_speedup_min"],
    }


def _large_fleet_case(
    world, n_sites: int, n_hours: int, passes: int, monolithic: bool
) -> dict:
    """Hourly cost-min dispatch at fleet scale via the decomposition path.

    Times the hot decomposed solve over a repeated-hour sequence (warm
    multipliers carry over, exactly like the engine's usage). Where a
    monolithic reference is still affordable (``monolithic=True``) the
    same hours are solved by SciPy/HiGHS and the worst per-hour cost gap
    is recorded; past that scale only the per-hour latency is judged.
    """
    hour_list = [_hours_at(world, n_sites, _T0 + i) for i in range(n_hours)]
    lams = [0.5 * sum(sh.max_rate_rps for sh in hours) for hours in hour_list]

    def run(solver):
        best, costs = float("inf"), []
        for _ in range(passes):
            t0 = time.perf_counter()
            costs = [
                solver.solve(hours, lam).predicted_cost
                for hours, lam in zip(hour_list, lams)
            ]
            best = min(best, time.perf_counter() - t0)
        return best, costs

    dec_s, dec_costs = run(CostMinimizer(solver_backend="decomposition"))
    case = {
        "sites": n_sites,
        "hours": n_hours,
        "decomposed_ms_per_hour": 1e3 * dec_s / n_hours,
        "hour_latency_s": dec_s / n_hours,
    }
    ok = True
    if monolithic:
        mono_s, mono_costs = run(CostMinimizer(backend="scipy"))
        gap = max(
            abs(a - b) / max(abs(a), 1e-9)
            for a, b in zip(mono_costs, dec_costs)
        )
        case["monolithic_ms_per_hour"] = 1e3 * mono_s / n_hours
        case["cost_rel_gap_max"] = gap
        ok = ok and gap <= CRITERIA["equivalence_rel_gap_max"]
    if n_sites >= 200:
        ok = ok and dec_s / n_hours <= CRITERIA["hour_latency_max_s"]
    case["meets_criterion"] = ok
    return case


def _equivalence_case(world, n_hours: int) -> dict:
    """Decomposition vs monolithic on the paper-scale (<= 13 site) fleets.

    At these sizes the duality gap usually cannot be certified, so the
    decomposition-backed optimizers fall back to the monolithic solve —
    either way, every answer must match the plain optimizer within the
    0.1% equivalence tolerance, for both capping steps.
    """
    worst, n_cases = 0.0, 0
    for n_sites in (3, 13):
        mono_c, dec_c = CostMinimizer(), CostMinimizer(
            solver_backend="decomposition"
        )
        mono_t, dec_t = ThroughputMaximizer(), ThroughputMaximizer(
            solver_backend="decomposition"
        )
        for i in range(n_hours):
            hours = _hours_at(world, n_sites, _T0 + i)
            lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
            ref = mono_c.solve(hours, lam).predicted_cost
            got = dec_c.solve(hours, lam).predicted_cost
            worst = max(worst, abs(ref - got) / max(abs(ref), 1e-9))
            budget = 0.7 * ref
            ref_t = mono_t.solve(hours, lam, budget).served_total_rps
            got_t = dec_t.solve(hours, lam, budget).served_total_rps
            worst = max(worst, abs(ref_t - got_t) / max(abs(ref_t), 1e-9))
            n_cases += 2
    return {
        "cases": n_cases,
        "worst_rel_gap": worst,
        "meets_criterion": worst <= CRITERIA["equivalence_rel_gap_max"],
    }


def run_timing_suite(quick: bool = False) -> dict:
    """Time the solver hot path and return the BENCH_solver.json payload.

    ``quick`` shrinks the hour sequences and repetition counts to what a
    CI smoke job can afford; the JSON shape is identical either way.
    """
    import platform

    import numpy
    import scipy

    from repro.experiments import paper_world

    world = paper_world(1, seed=7)
    n_hours = 4 if quick else 12
    reps = 1 if quick else 3
    passes = 2 if quick else 3
    n_hours_fleet = 2 if quick else 6
    passes_fleet = 1 if quick else 2

    cases = {
        "cost_min_3_sites": _repeated_hour_case(world, 3, n_hours, passes),
        "cost_min_13_sites": _repeated_hour_case(world, 13, n_hours, passes),
        "bb_nodes_3_sites": _node_throughput_case(world, 3, reps),
        "bb_nodes_13_sites": _node_throughput_case(world, 13, reps),
        "dispatch_50_sites": _large_fleet_case(
            world, 50, n_hours_fleet, passes_fleet, monolithic=True
        ),
        "dispatch_200_sites": _large_fleet_case(
            world, 200, n_hours_fleet, passes_fleet, monolithic=False
        ),
        "dispatch_1000_sites": _large_fleet_case(
            world, 1000, n_hours_fleet, passes_fleet, monolithic=False
        ),
        "decomposition_equivalence": _equivalence_case(world, n_hours_fleet),
    }
    return {
        "benchmark": "solver_timing",
        "schema_version": 2,
        "quick": quick,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "cases": cases,
        "criteria": {
            **CRITERIA,
            "met": all(c["meets_criterion"] for c in cases.values()),
        },
    }


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Solver perf baseline; writes BENCH_solver.json at the "
        "repo root."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink sequences/reps for CI smoke runs (same JSON shape)",
    )
    parser.add_argument(
        "--out", default=str(BENCH_JSON), help="output path for the JSON"
    )
    args = parser.parse_args(argv)

    payload = run_timing_suite(quick=args.quick)
    pathlib.Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out}")
    for name, case in payload["cases"].items():
        if name.startswith("cost_min"):
            print(
                f"  {name}: cold {case['cold_ms_per_hour']:.1f} ms/h, "
                f"hot {case['hot_ms_per_hour']:.1f} ms/h, "
                f"scipy {case['scipy_ms_per_hour']:.1f} ms/h "
                f"-> {case['model_cache_speedup']:.1f}x"
            )
        elif name.startswith("bb_nodes"):
            print(
                f"  {name}: cold {case['cold_nodes_per_s']:.0f} nodes/s, "
                f"warm {case['warm_nodes_per_s']:.0f} nodes/s "
                f"-> {case['warm_node_speedup']:.1f}x"
            )
        elif name.startswith("dispatch"):
            mono = case.get("monolithic_ms_per_hour")
            extra = (
                f", monolithic {mono:.1f} ms/h, "
                f"gap {case['cost_rel_gap_max']:.2e}"
                if mono is not None else ""
            )
            print(
                f"  {name}: decomposed "
                f"{case['decomposed_ms_per_hour']:.1f} ms/h{extra}"
            )
        else:
            print(
                f"  {name}: {case['cases']} cases, worst rel gap "
                f"{case['worst_rel_gap']:.2e}"
            )
    print(f"criteria met: {payload['criteria']['met']}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
