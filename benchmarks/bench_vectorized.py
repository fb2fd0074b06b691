"""End-to-end perf baseline for the vectorized physics/pricing layer.

Three tracked numbers, written to ``BENCH_vectorized.json`` at the repo
root (the companion of ``BENCH_solver.json``, which tracks the MILP
engine itself):

* **batched power+price** — evaluating the exact stepped power model
  and the step-price curves over a (13-site x candidate-rate) grid via
  :class:`SiteBank` / :class:`CurveBank` versus the scalar per-site
  object path. The two are bit-identical; only the clock differs.
* **end-to-end monthly capping** — a Cost Capping simulation on the
  default hot path (enumeration kernel + batched realize) versus the
  PR 3 baseline configuration (MILP-only solves, scalar realize).
* **sweep scaling** — a seed sweep through ``repro.sim.sweep`` at 4
  workers versus serial. Only meaningful on a multi-core host, so the
  criterion is gated on ``os.cpu_count()``.

Run as a script — ``PYTHONPATH=src python benchmarks/bench_vectorized.py
[--quick]``. CI runs the quick mode, validates the JSON shape and the
speedup criteria (the sweep criterion only where applicable), and
uploads the artifact.
"""

import json
import os
import pathlib
import time

import numpy as np

#: Where the machine-readable baseline lands (repo root).
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_vectorized.json"

#: Acceptance floors (see ARCHITECTURE.md, "Performance"). Unlike the
#: solver baseline these ARE asserted in CI: the margins are wide
#: enough (measured 30x+ / 5x+ on a shared runner) to survive noise.
CRITERIA = {
    "batched_power_price_speedup_min": 5.0,
    "e2e_capping_speedup_min": 1.5,
    "sweep_speedup_min_at_4_workers": 2.0,
}


def _thirteen_dcs():
    """The paper's 3 data centers replicated to 13, cooling perturbed."""
    import dataclasses

    from repro.datacenter import CoolingModel
    from repro.experiments import paper_world

    world = paper_world()
    out, policies = [], []
    for i in range(13):
        site = world.sites[i % 3]
        dc = site.datacenter
        out.append(
            dataclasses.replace(
                dc,
                name=f"{dc.name}-{i}",
                cooling=CoolingModel(dc.cooling.coe * (0.9 + 0.02 * i)),
            )
        )
        policies.append(site.policy)
    return out, policies


def _min_of(passes, fn) -> float:
    """Fastest of ``passes`` timed runs (guards against scheduler noise)."""
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _batched_power_price_case(quick: bool) -> dict:
    """Scalar vs batched power+price over a 13-site candidate grid."""
    from repro.datacenter import SiteBank
    from repro.powermarket import CurveBank

    dcs, policies = _thirteen_dcs()
    n_candidates = 32 if quick else 128
    passes = 2 if quick else 3

    fracs = np.linspace(0.0, 0.999, n_candidates)
    tops = np.array([dc.fleet_throughput_rps() for dc in dcs])
    rates = tops[:, None] * fracs[None, :]
    backgrounds = np.array([40.0 + 7.0 * i for i in range(len(dcs))])

    def scalar():
        out = np.empty_like(rates)
        for i, (dc, pol) in enumerate(zip(dcs, policies)):
            for j in range(n_candidates):
                power = dc.power_mw(rates[i, j])
                out[i, j] = pol.price(power + backgrounds[i])
        return out

    bank = SiteBank(dcs)
    curves = CurveBank.from_policies(policies)

    def batched():
        power = bank.power_mw(rates)
        return curves.site_price(power, backgrounds)

    # The contract behind the timing: same bits out of both paths.
    assert np.array_equal(scalar(), batched())

    scalar_s = _min_of(passes, scalar)
    batched_s = _min_of(passes, batched)
    evals = rates.size
    speedup = scalar_s / batched_s if batched_s > 0 else float("inf")
    return {
        "sites": len(dcs),
        "candidates_per_site": n_candidates,
        "scalar_us_per_eval": 1e6 * scalar_s / evals,
        "batched_us_per_eval": 1e6 * batched_s / evals,
        "batched_speedup": speedup,
        "meets_criterion": speedup
        >= CRITERIA["batched_power_price_speedup_min"],
    }


def _e2e_capping_case(quick: bool) -> dict:
    """Monthly capping run: default hot path vs the PR 3 baseline path."""
    from repro.core import DispatchModelCache
    from repro.experiments import paper_world
    from repro.sim import Engine

    world = paper_world()
    hours = 24 if quick else 72
    passes = 2

    def run(batched: bool, enum_kernel: bool):
        prev = DispatchModelCache.default_use_enum_kernel
        DispatchModelCache.default_use_enum_kernel = enum_kernel
        try:
            engine = Engine(
                world.sites, world.workload, world.mix, batched=batched
            )
            return engine.run("capping", hours=hours)
        finally:
            DispatchModelCache.default_use_enum_kernel = prev

    # Same bills either way (to solver tolerance: the enumeration
    # kernel and branch-and-bound may pick different alternate optima,
    # so the realized sums can differ in the last ULPs) — the speedup
    # is free. Bit identity of batched-vs-scalar realization under
    # *identical* decisions is pinned by tests/sim/test_batched_realize.
    baseline_cost = run(False, False).total_cost
    vector_cost = run(True, True).total_cost
    assert abs(baseline_cost - vector_cost) <= 1e-9 * abs(baseline_cost)

    baseline_s = _min_of(passes, lambda: run(False, False))
    vector_s = _min_of(passes, lambda: run(True, True))
    speedup = baseline_s / vector_s if vector_s > 0 else float("inf")
    return {
        "hours": hours,
        "total_cost": vector_cost,
        "baseline_s": baseline_s,
        "vectorized_s": vector_s,
        "e2e_speedup": speedup,
        "meets_criterion": speedup >= CRITERIA["e2e_capping_speedup_min"],
    }


def _sweep_scaling_case(quick: bool) -> dict:
    """Seed sweep at 4 workers vs serial; gated on available cores."""
    from repro.sim.sweep import run_sweep, strategy_metric, sweep_grid

    cpu_count = os.cpu_count() or 1
    # Fixed workload even under --quick: scaling is only measurable
    # when each scenario is big enough to amortize the pool startup.
    hours = 48
    scenarios = sweep_grid(seed=list(range(12)))
    for sc in scenarios:
        sc.update(strategy="capping", hours=hours)

    def costs(workers):
        return [
            r.total_cost
            for r in run_sweep(strategy_metric, scenarios, workers=workers)
        ]

    t0 = time.perf_counter()
    serial = costs(1)
    serial_s = time.perf_counter() - t0

    applicable = cpu_count >= 4
    out = {
        "scenarios": len(scenarios),
        "hours": hours,
        "cpu_count": cpu_count,
        "workers": 4,
        "serial_s": serial_s,
        "parallel_s": None,
        "sweep_speedup": None,
        "criterion_applicable": applicable,
        # Not applicable == not failed: a 1-core host cannot scale.
        "meets_criterion": True,
    }
    if cpu_count >= 2:
        t0 = time.perf_counter()
        parallel = costs(4)
        out["parallel_s"] = time.perf_counter() - t0
        assert parallel == serial  # pooled results must match serial
        out["sweep_speedup"] = serial_s / out["parallel_s"]
        if applicable:
            out["meets_criterion"] = (
                out["sweep_speedup"]
                >= CRITERIA["sweep_speedup_min_at_4_workers"]
            )
    return out


def run_vectorized_suite(quick: bool = False) -> dict:
    """Run all cases and return the BENCH_vectorized.json payload."""
    import platform

    import numpy
    import scipy

    cases = {
        "batched_power_price_13_sites": _batched_power_price_case(quick),
        "e2e_monthly_capping": _e2e_capping_case(quick),
        "sweep_scaling": _sweep_scaling_case(quick),
    }
    return {
        "benchmark": "vectorized",
        "schema_version": 1,
        "quick": quick,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
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
        description="Vectorized-layer perf baseline; writes "
        "BENCH_vectorized.json at the repo root."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink grids/horizons for CI smoke runs (same JSON shape)",
    )
    parser.add_argument(
        "--out", default=str(BENCH_JSON), help="output path for the JSON"
    )
    args = parser.parse_args(argv)

    payload = run_vectorized_suite(quick=args.quick)
    pathlib.Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out}")
    c = payload["cases"]["batched_power_price_13_sites"]
    print(
        f"  power+price: scalar {c['scalar_us_per_eval']:.1f} us/eval, "
        f"batched {c['batched_us_per_eval']:.2f} us/eval "
        f"-> {c['batched_speedup']:.1f}x"
    )
    c = payload["cases"]["e2e_monthly_capping"]
    print(
        f"  e2e capping ({c['hours']}h): baseline {c['baseline_s']:.2f}s, "
        f"vectorized {c['vectorized_s']:.2f}s -> {c['e2e_speedup']:.1f}x"
    )
    c = payload["cases"]["sweep_scaling"]
    if c["sweep_speedup"] is None:
        print(f"  sweep: serial {c['serial_s']:.2f}s "
              f"(cpu_count={c['cpu_count']}, scaling not applicable)")
    else:
        print(
            f"  sweep: serial {c['serial_s']:.2f}s, 4 workers "
            f"{c['parallel_s']:.2f}s -> {c['sweep_speedup']:.1f}x "
            f"(cpu_count={c['cpu_count']}, "
            f"gated={c['criterion_applicable']})"
        )
    print(f"criteria met: {payload['criteria']['met']}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
