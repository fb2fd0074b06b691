"""The region-decomposed dispatch solver must match the monolithic MILP.

The decomposition's contract is *certified equivalence*: an outcome is
only returned when the duality gap proves the recovered dispatch within
``gap_tol`` of the monolithic optimum — otherwise it returns None and
the optimizers fall back to the monolithic solve. Either branch must
therefore agree with SciPy/HiGHS within the 0.1% equivalence tolerance,
across fleet sizes, region shapes and piecewise-degenerate (bail-out)
power curves.
"""

import numpy as np
import pytest

from repro.core import (
    CostMinimizer,
    SiteHour,
    ThroughputMaximizer,
    decomposition_auto_sites,
    partition_market_regions,
)
from repro.core.decomposition import DECOMP_AUTO_SITES, DecompositionSolver
from repro.core.enum_kernel import site_choices
from repro.datacenter import AffinePower
from repro.powermarket import SteppedPricingPolicy
from repro.telemetry import Telemetry, use_telemetry

MARGIN = 0.01
EQUIV_REL = 1e-3  # the 0.1% acceptance tolerance


def grouped_hours(rng, n_sites, n_groups=3, piecewise=False):
    """A fleet with ``n_groups`` shared pricing policies (market regions)."""
    policies = []
    for g in range(n_groups):
        base = float(rng.uniform(5.0, 15.0))
        policies.append(
            SteppedPricingPolicy(
                f"g{g}",
                (float(rng.uniform(60.0, 140.0)),
                 float(rng.uniform(150.0, 260.0))),
                (base, base * 2.0, base * 4.0),
            )
        )
    hours = []
    for i in range(n_sites):
        slope = float(rng.uniform(0.3e-6, 0.8e-6))
        segments = None
        if piecewise:
            segments = ((1e7, slope * 0.5), (2e7, slope * 1.5))
        hours.append(
            SiteHour(
                name=f"s{i}",
                affine=AffinePower(slope, float(rng.uniform(0.0, 3.0))),
                policy=policies[i % n_groups],
                background_mw=float(rng.uniform(10.0, 120.0)),
                power_cap_mw=float(rng.uniform(50.0, 1e4)),
                max_rate_rps=float(rng.uniform(0.5e7, 3e7)),
                power_segments=segments,
            )
        )
    return hours


class TestPartition:
    def test_covers_every_site_exactly_once(self):
        rng = np.random.default_rng(0)
        hours = grouped_hours(rng, 40, n_groups=4)
        choices = [site_choices(sh, MARGIN) for sh in hours]
        regions = partition_market_regions(hours, choices)
        seen = sorted(i for r in regions for i in r)
        assert seen == list(range(40))

    def test_respects_combo_cap(self):
        rng = np.random.default_rng(1)
        hours = grouped_hours(rng, 60, n_groups=3)
        choices = [site_choices(sh, MARGIN) for sh in hours]
        regions = partition_market_regions(hours, choices, max_region_combos=64)
        for r in regions:
            prod = 1
            for i in r:
                prod *= len(choices[i].lo)
            assert prod <= 64

    def test_same_policy_sites_stay_adjacent(self):
        rng = np.random.default_rng(2)
        hours = grouped_hours(rng, 30, n_groups=3)
        choices = [site_choices(sh, MARGIN) for sh in hours]
        regions = partition_market_regions(hours, choices)
        # Flattened region order visits each policy group contiguously.
        flat = [i for r in regions for i in r]
        policy_seq = [id(hours[i].policy) for i in flat]
        seen_done = set()
        prev = None
        for p in policy_seq:
            if p != prev:
                assert p not in seen_done
                if prev is not None:
                    seen_done.add(prev)
                prev = p


class TestCostMinEquivalence:
    def test_randomized_fleets_match_scipy(self):
        rng = np.random.default_rng(7)
        solver = DecompositionSolver()
        for trial in range(8):
            n = int(rng.integers(20, 60))
            hours = grouped_hours(rng, n, n_groups=int(rng.integers(2, 5)))
            lam = float(rng.uniform(0.3, 0.8)) * sum(
                sh.max_rate_rps for sh in hours
            )
            ref = CostMinimizer(backend="scipy").solve(hours, lam)
            out = solver.solve_cost_min(hours, lam, MARGIN)
            if out is None:
                continue  # uncertified: the fallback contract covers it
            decision = out.to_decision(hours, ref.step)
            assert decision.predicted_cost == pytest.approx(
                ref.predicted_cost, rel=EQUIV_REL
            )
            assert decision.served_total_rps == pytest.approx(lam, rel=1e-6)

    def test_optimizer_falls_back_when_uncertified(self):
        # Tiny fleets rarely certify the gap; the optimizer must still
        # return the monolithic answer, bit-for-bit in cost terms.
        rng = np.random.default_rng(11)
        for trial in range(6):
            hours = grouped_hours(rng, int(rng.integers(2, 6)))
            lam = float(rng.uniform(0.3, 0.8)) * sum(
                sh.max_rate_rps for sh in hours
            )
            ref = CostMinimizer(backend="scipy").solve(hours, lam)
            got = CostMinimizer(solver_backend="decomposition").solve(hours, lam)
            assert got.predicted_cost == pytest.approx(
                ref.predicted_cost, rel=EQUIV_REL, abs=1e-6
            )

    def test_piecewise_power_curves_fall_back(self):
        # Piecewise (degenerate for the choice model) sites bail out of
        # the decomposition entirely; answers still match monolithic.
        rng = np.random.default_rng(13)
        hours = grouped_hours(rng, 12, piecewise=True)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        assert DecompositionSolver().solve_cost_min(hours, lam, MARGIN) is None
        ref = CostMinimizer(backend="scipy").solve(hours, lam)
        got = CostMinimizer(solver_backend="decomposition").solve(hours, lam)
        assert got.predicted_cost == pytest.approx(
            ref.predicted_cost, rel=EQUIV_REL
        )

    def test_reused_solver_serves_each_load(self):
        rng = np.random.default_rng(17)
        hours = grouped_hours(rng, 40)
        solver = DecompositionSolver()
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        first = solver.solve_cost_min(hours, lam, MARGIN)
        second = solver.solve_cost_min(hours, lam * 1.02, MARGIN)
        for out, target in ((first, lam), (second, lam * 1.02)):
            if out is not None:
                assert out.served_scaled * 1e6 == pytest.approx(
                    target, rel=1e-6
                )


class TestThroughputMaxEquivalence:
    def test_randomized_fleets_match_scipy(self):
        rng = np.random.default_rng(23)
        solver = DecompositionSolver()
        weight = 1e-6
        for trial in range(6):
            n = int(rng.integers(20, 50))
            hours = grouped_hours(rng, n, n_groups=int(rng.integers(2, 4)))
            lam = float(rng.uniform(0.4, 0.9)) * sum(
                sh.max_rate_rps for sh in hours
            )
            base_cost = CostMinimizer(backend="scipy").solve(
                hours, lam
            ).predicted_cost
            budget = float(rng.uniform(0.5, 0.9)) * base_cost
            ref = ThroughputMaximizer(backend="scipy").solve(
                hours, lam, budget
            )
            out = solver.solve_throughput_max(hours, lam, budget, MARGIN, weight)
            if out is None:
                continue
            decision = out.to_decision(hours, ref.step)
            assert decision.served_total_rps == pytest.approx(
                ref.served_total_rps, rel=EQUIV_REL
            )
            assert decision.predicted_cost <= budget * (1 + 1e-6)

    def test_optimizer_respects_budget_and_matches(self):
        rng = np.random.default_rng(29)
        for trial in range(4):
            hours = grouped_hours(rng, int(rng.integers(3, 8)))
            lam = 0.7 * sum(sh.max_rate_rps for sh in hours)
            base_cost = CostMinimizer(backend="scipy").solve(
                hours, lam
            ).predicted_cost
            budget = 0.7 * base_cost
            ref = ThroughputMaximizer(backend="scipy").solve(hours, lam, budget)
            got = ThroughputMaximizer(solver_backend="decomposition").solve(
                hours, lam, budget
            )
            assert got.served_total_rps == pytest.approx(
                ref.served_total_rps, rel=EQUIV_REL, abs=1.0
            )
            assert got.predicted_cost <= budget * (1 + 1e-6)
            assert got.budget == budget


class TestActivationAndTelemetry:
    def test_auto_sites_env_override(self, monkeypatch):
        assert decomposition_auto_sites() == DECOMP_AUTO_SITES
        monkeypatch.setenv("REPRO_DECOMP_AUTO_SITES", "17")
        assert decomposition_auto_sites() == 17

    def test_auto_activation_above_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECOMP_AUTO_SITES", "10")
        rng = np.random.default_rng(31)
        hours = grouped_hours(rng, 30)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        tel = Telemetry()
        with use_telemetry(tel):
            got = CostMinimizer().solve(hours, lam)
        reg = tel.registry
        attempts = (
            reg.counter("core.decomposition.solved").value
            + reg.counter("core.decomposition.fallback").value
            + reg.counter("core.decomposition.gap_accept").value
        )
        assert attempts >= 1
        ref = CostMinimizer(backend="scipy").solve(hours, lam)
        assert got.predicted_cost == pytest.approx(
            ref.predicted_cost, rel=EQUIV_REL
        )

    def test_no_auto_activation_below_threshold(self):
        rng = np.random.default_rng(37)
        hours = grouped_hours(rng, 3)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        tel = Telemetry()
        with use_telemetry(tel):
            CostMinimizer().solve(hours, lam)
        reg = tel.registry
        assert reg.counter("core.decomposition.solved").value == 0
        assert reg.counter("core.decomposition.fallback").value == 0

    def test_env_backend_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_BACKEND", "decomposition")
        rng = np.random.default_rng(41)
        hours = grouped_hours(rng, 25)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        tel = Telemetry()
        with use_telemetry(tel):
            CostMinimizer().solve(hours, lam)
        reg = tel.registry
        attempts = (
            reg.counter("core.decomposition.solved").value
            + reg.counter("core.decomposition.fallback").value
            + reg.counter("core.decomposition.gap_accept").value
        )
        assert attempts >= 1
