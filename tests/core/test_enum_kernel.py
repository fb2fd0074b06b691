"""The segment-enumeration kernel must match branch-and-bound and SciPy.

The kernel claims *exactness* on homogeneous-fleet hours: for every
combination of per-site segment/inactive choices the continuous
remainder is a boxed transportation problem whose greedy solution is
optimal. These tests drive randomized fleets through the hot path
(kernel enabled) and the cold SciPy path and require matching
objectives and served totals — per-site splits may differ at alternate
optima. Bail-out cases (piecewise power models) must transparently
fall through to the MILP.
"""

import numpy as np
import pytest

from repro.core import (
    CappingStep,
    CostMinimizer,
    DispatchModelCache,
    SiteHour,
    ThroughputMaximizer,
)
from repro.core.dispatch_model import _decision_from
from repro.core.enum_kernel import (
    MAX_COMBOS,
    solve_cost_min,
    solve_throughput_max,
    to_decision,
)
from repro.datacenter import AffinePower
from repro.powermarket import SteppedPricingPolicy
from repro.solver import SolveResult, SolveStatus
from repro.telemetry import Telemetry, use_telemetry

MARGIN = 0.01


def random_hours(rng, n_sites, piecewise=False):
    hours = []
    for i in range(n_sites):
        base = float(rng.uniform(5.0, 15.0))
        policy = SteppedPricingPolicy(
            f"s{i}",
            (float(rng.uniform(60.0, 140.0)), float(rng.uniform(150.0, 260.0))),
            (base, base * 2.0, base * 4.0),
        )
        slope = float(rng.uniform(0.3e-6, 0.8e-6))
        segments = None
        if piecewise:
            segments = ((1e7, slope * 0.5), (2e7, slope * 1.5))
        hours.append(
            SiteHour(
                name=f"s{i}",
                affine=AffinePower(slope, float(rng.uniform(0.0, 3.0))),
                policy=policy,
                background_mw=float(rng.uniform(10.0, 120.0)),
                power_cap_mw=float(rng.uniform(50.0, 1e4)),
                max_rate_rps=float(rng.uniform(0.5e7, 3e7)),
                power_segments=segments,
            )
        )
    return hours


def kernel_counts(tel):
    solved = tel.registry.counter("core.enum_kernel.solved").value
    bails = tel.registry.counter("core.enum_kernel.bail").value
    return solved, bails


class TestCostMinEquivalence:
    def test_randomized_fleets_match_scipy(self):
        rng = np.random.default_rng(5)
        tel = Telemetry()
        hot = CostMinimizer()
        cold = CostMinimizer(backend="scipy")
        with use_telemetry(tel):
            for trial in range(40):
                hours = random_hours(rng, int(rng.integers(2, 5)))
                lam = float(rng.uniform(0.2, 0.9)) * sum(
                    sh.max_rate_rps for sh in hours
                )
                d_hot = hot.solve(hours, lam)
                d_cold = cold.solve(hours, lam)
                assert d_hot.predicted_cost == pytest.approx(
                    d_cold.predicted_cost, rel=1e-8, abs=1e-9
                )
                assert sum(
                    a.rate_rps for a in d_hot.allocations
                ) == pytest.approx(lam, rel=1e-9)
        solved, bails = kernel_counts(tel)
        assert solved >= 30  # the kernel, not the MILP, answered

    def test_piecewise_sites_bail_to_milp(self):
        rng = np.random.default_rng(6)
        tel = Telemetry()
        hot = CostMinimizer()
        cold = CostMinimizer(backend="scipy")
        with use_telemetry(tel):
            for _ in range(5):
                hours = random_hours(rng, 2, piecewise=True)
                lam = 0.4 * sum(sh.max_rate_rps for sh in hours)
                d_hot = hot.solve(hours, lam)
                d_cold = cold.solve(hours, lam)
                assert d_hot.predicted_cost == pytest.approx(
                    d_cold.predicted_cost, rel=1e-8
                )
        solved, bails = kernel_counts(tel)
        assert solved == 0 and bails == 5

    def test_kernel_can_be_disabled(self):
        tel = Telemetry()
        hot = CostMinimizer(model_cache=DispatchModelCache(use_enum_kernel=False))
        rng = np.random.default_rng(7)
        hours = random_hours(rng, 3)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        with use_telemetry(tel):
            hot.solve(hours, lam)
        solved, bails = kernel_counts(tel)
        assert solved == 0 and bails == 0


class TestThroughputMaxEquivalence:
    def test_randomized_fleets_match_scipy(self):
        rng = np.random.default_rng(8)
        tel = Telemetry()
        hot = ThroughputMaximizer()
        cold = ThroughputMaximizer(backend="scipy")
        with use_telemetry(tel):
            for trial in range(30):
                hours = random_hours(rng, int(rng.integers(2, 4)))
                offered = float(rng.uniform(0.3, 0.95)) * sum(
                    sh.max_rate_rps for sh in hours
                )
                anchor = CostMinimizer(backend="scipy").solve(hours, offered)
                budget = float(rng.uniform(0.4, 1.1)) * anchor.predicted_cost
                d_hot = hot.solve(hours, offered, budget)
                d_cold = cold.solve(hours, offered, budget)
                assert d_hot.served_total_rps == pytest.approx(
                    d_cold.served_total_rps, rel=1e-8, abs=1e-6
                )
                assert d_hot.predicted_cost <= budget * (1 + 1e-9)
        solved, _ = kernel_counts(tel)
        assert solved >= 20

    def test_tiny_budget_still_matches(self):
        rng = np.random.default_rng(9)
        hot = ThroughputMaximizer()
        cold = ThroughputMaximizer(backend="scipy")
        hours = random_hours(rng, 3)
        offered = 0.8 * sum(sh.max_rate_rps for sh in hours)
        d_hot = hot.solve(hours, offered, 10.0)
        d_cold = cold.solve(hours, offered, 10.0)
        assert d_hot.served_total_rps == pytest.approx(
            d_cold.served_total_rps, rel=1e-8, abs=1e-6
        )


def milp_decode(cache, kind, hours, won, step, extra=()):
    """The MILP path's decode of the kernel's winning choices.

    Packs them into the compiled entry's solution vector and reads that
    with ``_decision_from``, as a MILP answer with the same choices is
    read.
    """
    choices, choice_idx, lam = won
    entry = cache._entry(kind, hours, MARGIN, extra)
    x = np.zeros(entry.base.c.size)
    for sc, sl, j, li in zip(choices, entry.slots, choice_idx, lam):
        pos = sc.pos[j]
        if pos < 0:
            x[sl.yseg[-pos - 1]] = 1.0
            continue
        li = float(li)
        p = sc.a * li + sc.b
        x[sl.rate] = li
        x[sl.active] = 1.0
        x[sl.power] = p
        x[sl.pseg[pos]] = p
        x[sl.yseg[pos]] = 1.0
    res = SolveResult(status=SolveStatus.OPTIMAL, objective=0.0, x=x)
    return _decision_from(cache._rebound(entry, hours), res, step)


class TestDecodeMatchesMilpDecode:
    """The kernel's decision is, field for field, the MILP decode of the
    same choices: the reported price is bill over power, not the
    segment price, down to the last bit."""

    def test_cost_min(self):
        rng = np.random.default_rng(31)
        cache = DispatchModelCache()
        decoded = 0
        for _ in range(150):
            hours = random_hours(rng, int(rng.integers(2, 6)))
            lam = float(rng.uniform(0.0, 0.95)) * sum(
                sh.max_rate_rps for sh in hours
            ) / 1e6
            won = solve_cost_min(hours, lam, MARGIN)
            if won is None:
                continue
            step = CappingStep.COST_MIN
            assert to_decision(hours, *won, step) == milp_decode(
                cache, "cost-min", hours, won, step
            )
            decoded += 1
        assert decoded >= 100

    def test_throughput_max(self):
        rng = np.random.default_rng(32)
        cache = DispatchModelCache()
        weight = 1e-6
        decoded = 0
        for _ in range(150):
            hours = random_hours(rng, int(rng.integers(2, 6)))
            offered = float(rng.uniform(0.2, 0.95)) * sum(
                sh.max_rate_rps for sh in hours
            ) / 1e6
            budget = float(rng.uniform(0.0, 4e3))
            won = solve_throughput_max(hours, offered, budget, MARGIN, weight)
            if won is None:
                continue
            step = CappingStep.THROUGHPUT_MAX
            assert to_decision(hours, *won, step) == milp_decode(
                cache, "throughput-max", hours, won, step, extra=(weight,)
            )
            decoded += 1
        assert decoded >= 100


class TestBailConditions:
    def test_combo_ceiling_bails(self):
        # 13 sites x 3+ choices each overflows MAX_COMBOS = 4096 only
        # beyond 7 sites (4^7 > 4096 with the inactive choice); verify
        # via the counter that large fleets run the MILP.
        rng = np.random.default_rng(10)
        tel = Telemetry()
        hot = CostMinimizer()
        hours = random_hours(rng, 13)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        with use_telemetry(tel):
            d = hot.solve(hours, lam)
        cold = CostMinimizer(backend="scipy").solve(hours, lam)
        assert d.predicted_cost == pytest.approx(cold.predicted_cost, rel=1e-8)
        solved, bails = kernel_counts(tel)
        assert solved + bails == 1

    def test_infeasible_demand_is_milps_problem(self):
        rng = np.random.default_rng(12)
        hours = random_hours(rng, 2)
        # Demand beyond total capacity: the kernel must decline rather
        # than fabricate an answer.
        total = sum(sh.max_rate_rps for sh in hours) / 1e6
        assert solve_cost_min(hours, total * 2.0, MARGIN) is None

    def test_max_combos_is_sane(self):
        assert MAX_COMBOS >= 256
