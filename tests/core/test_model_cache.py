"""Equivalence and bookkeeping tests for the compiled-model cache.

The hot path (``backend=None`` on the optimizers) must be *invisible*:
the per-hour patched arrays have to match a fresh ``Model`` compile bit
for bit, and decisions have to match the cold SciPy path. These tests
pin both, plus the cache's LRU/invalidation behavior, the telemetry
counters, and the SciPy fallback on solver limits.
"""

import numpy as np
import pytest

from repro.core import (
    CostMinimizer,
    DispatchModelCache,
    MinOnlyDispatcher,
    PriceMode,
    SiteHour,
    ThroughputMaximizer,
)
from repro.core.dispatch_model import RATE_SCALE, build_dispatch_model
from repro.datacenter import AffinePower
from repro.powermarket import SteppedPricingPolicy, flat_policy
from repro.telemetry import Telemetry, use_telemetry

MARGIN = 0.01


def site_hour(name, slope, price1, background, max_rate=2e7, power_cap=1e4,
              segments=None):
    policy = SteppedPricingPolicy(
        name, (100.0, 200.0), (price1, price1 * 2, price1 * 4)
    )
    return SiteHour(
        name=name,
        affine=AffinePower(slope, 0.0),
        policy=policy,
        background_mw=background,
        power_cap_mw=power_cap,
        max_rate_rps=max_rate,
        power_segments=segments,
    )


def hours_at(t):
    """Three sites whose backgrounds drift with the 'hour' t."""
    return [
        site_hour("A", 0.5e-6, 10.0, 50.0 + 3.0 * t),
        site_hour("B", 0.4e-6, 12.0, 40.0 + 2.0 * t),
        site_hour("C", 0.6e-6, 8.0, 30.0 + 1.5 * t),
    ]


def _fresh_cost_min_sf(site_hours, lam):
    dm = build_dispatch_model(
        site_hours, name="cost-min", step_margin_frac=MARGIN
    )
    dm.model.add(dm.total_rate_scaled == lam / RATE_SCALE, name="serve_all")
    dm.model.minimize(dm.total_cost)
    return dm.model.to_standard_form()


def _assert_sf_equal(a, b):
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.A_ub, b.A_ub)
    assert np.array_equal(a.b_ub, b.b_ub)
    assert np.array_equal(a.A_eq, b.A_eq)
    assert np.array_equal(a.b_eq, b.b_eq)
    assert np.array_equal(a.lb, b.lb)
    assert np.array_equal(a.ub, b.ub)
    assert np.array_equal(a.integrality, b.integrality)
    assert a.obj_constant == b.obj_constant


class TestPatchedArraysMatchFreshCompile:
    def test_cost_min_across_hours(self):
        cache = DispatchModelCache()
        for t in range(6):
            hours = hours_at(t)
            lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
            entry = cache._entry("cost-min", hours, MARGIN)
            patched = cache._patched(entry, hours, MARGIN)
            patched.b_eq[entry.serve_all_row] = lam / RATE_SCALE
            _assert_sf_equal(patched, _fresh_cost_min_sf(hours, lam))
        # One structure the whole time: the drift never crossed a
        # breakpoint pattern change for these sites.
        assert len(cache) <= 2

    def test_throughput_max_across_hours(self):
        weight = 1e-6
        cache = DispatchModelCache()
        for t in range(4):
            hours = hours_at(t)
            offered = 0.6 * sum(sh.max_rate_rps for sh in hours)
            budget = 5e4
            entry = cache._entry(
                "throughput-max", hours, MARGIN, extra=(weight,)
            )
            patched = cache._patched(entry, hours, MARGIN)
            patched.b_ub[entry.demand_row] = offered / RATE_SCALE
            patched.b_ub[entry.budget_row] = budget

            dm = build_dispatch_model(
                hours, name="throughput-max", step_margin_frac=MARGIN
            )
            dm.model.add(
                dm.total_rate_scaled <= offered / RATE_SCALE, name="demand"
            )
            dm.model.add(dm.total_cost <= budget, name="budget")
            dm.model.maximize(dm.total_rate_scaled - weight * dm.total_cost)
            _assert_sf_equal(patched, dm.model.to_standard_form())

    def test_piecewise_sites(self):
        def pw_hours(t):
            segments = ((1e7, 0.2e-6), (2e7, 0.6e-6))
            return [
                site_hour("P", 0.4e-6, 10.0, 20.0 + 2.0 * t,
                          segments=segments),
                site_hour("Q", 0.5e-6, 9.0, 35.0 + 1.0 * t),
            ]

        cache = DispatchModelCache()
        for t in range(4):
            hours = pw_hours(t)
            lam = 0.4 * sum(sh.max_rate_rps for sh in hours)
            entry = cache._entry("cost-min", hours, MARGIN)
            patched = cache._patched(entry, hours, MARGIN)
            patched.b_eq[entry.serve_all_row] = lam / RATE_SCALE
            _assert_sf_equal(patched, _fresh_cost_min_sf(hours, lam))


class TestDecisionEquivalence:
    def test_cost_min_hot_matches_scipy(self):
        hot = CostMinimizer()
        cold = CostMinimizer(backend="scipy")
        for t in range(6):
            hours = hours_at(t)
            lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
            d_hot = hot.solve(hours, lam)
            d_cold = cold.solve(hours, lam)
            assert d_hot.predicted_cost == pytest.approx(
                d_cold.predicted_cost, rel=1e-8
            )
            assert sum(a.rate_rps for a in d_hot.allocations) == pytest.approx(
                lam, rel=1e-9
            )

    def test_throughput_max_hot_matches_scipy(self):
        hot = ThroughputMaximizer()
        cold = ThroughputMaximizer(backend="scipy")
        for t in range(4):
            hours = hours_at(t)
            offered = 0.7 * sum(sh.max_rate_rps for sh in hours)
            budget = 0.6 * CostMinimizer(backend="scipy").solve(
                hours, offered
            ).predicted_cost
            d_hot = hot.solve(hours, offered, budget)
            d_cold = cold.solve(hours, offered, budget)
            assert d_hot.served_total_rps == pytest.approx(
                d_cold.served_total_rps, rel=1e-8
            )
            assert d_hot.predicted_cost <= budget * (1 + 1e-9)

    def test_min_only_hot_matches_scipy(self):
        hours0 = hours_at(0)
        slopes = {sh.name: sh.affine.slope_mw_per_rps for sh in hours0}
        for mode in PriceMode:
            hot = MinOnlyDispatcher(price_mode=mode, server_slopes=slopes)
            cold = MinOnlyDispatcher(
                price_mode=mode, server_slopes=slopes, backend="scipy"
            )
            for t in range(4):
                hours = hours_at(t)
                lam = 0.6 * sum(sh.max_rate_rps for sh in hours)
                d_hot = hot.solve(hours, lam)
                d_cold = cold.solve(hours, lam)
                # Per-site splits can differ between engines when two
                # sites tie on price*slope (alternate optima); the
                # objective and the served total are the contract.
                assert d_hot.predicted_cost == pytest.approx(
                    d_cold.predicted_cost, rel=1e-8
                )
                assert sum(
                    a.rate_rps for a in d_hot.allocations
                ) == pytest.approx(lam, rel=1e-9)


class TestCacheBookkeeping:
    def test_hits_and_misses_counted(self):
        tel = Telemetry()
        with use_telemetry(tel):
            hot = CostMinimizer()
            for t in range(5):
                hours = hours_at(t)
                hot.solve(hours, 0.5 * sum(sh.max_rate_rps for sh in hours))
        hits = tel.registry.counter("core.model_cache.hit").value
        misses = tel.registry.counter("core.model_cache.miss").value
        assert hits + misses == 5
        assert misses >= 1 and hits >= 3

    def test_shape_change_is_a_miss(self):
        cache = DispatchModelCache()
        hours = hours_at(0)
        cache._entry("cost-min", hours, MARGIN)
        renamed = [
            site_hour("X", 0.5e-6, 10.0, 50.0),
            site_hour("Y", 0.4e-6, 12.0, 40.0),
        ]
        cache._entry("cost-min", renamed, MARGIN)
        assert len(cache) == 2

    def test_breakpoint_crossing_changes_key(self):
        # Background above the first breakpoint removes a reachable
        # segment: different structure, different entry.
        cache = DispatchModelCache()
        cache._entry("cost-min", [site_hour("A", 0.5e-6, 10.0, 50.0)], MARGIN)
        cache._entry("cost-min", [site_hour("A", 0.5e-6, 10.0, 150.0)], MARGIN)
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = DispatchModelCache(maxsize=1)
        hours_a = hours_at(0)
        e1 = cache._entry("cost-min", hours_a, MARGIN)
        cache._entry("cost-min", [site_hour("Z", 0.5e-6, 10.0, 50.0)], MARGIN)
        assert len(cache) == 1
        e3 = cache._entry("cost-min", hours_a, MARGIN)  # rebuilt, not cached
        assert e3 is not e1

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            DispatchModelCache(maxsize=0)

    def test_scipy_fallback_on_node_limit(self):
        tel = Telemetry()
        with use_telemetry(tel):
            hot = CostMinimizer()
            cold = CostMinimizer(backend="scipy")
            hours = hours_at(0)
            lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
            hot.solve(hours, lam)
            # Cripple the cached entry's own solver: every subsequent
            # hot solve must transparently fall back to SciPy. The
            # enumeration kernel would answer before the MILP is ever
            # reached, so force the branch-and-bound path for this test.
            hot.model_cache.use_enum_kernel = False
            (entry,) = hot.model_cache._entries.values()
            entry.solver.max_nodes = 0
            d_hot = hot.solve(hours, lam)
            assert d_hot.predicted_cost == pytest.approx(
                cold.solve(hours, lam).predicted_cost, rel=1e-8
            )
        assert tel.registry.counter("core.model_cache.fallback").value >= 1


class TestCacheConfig:
    def test_env_var_sets_default_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_CACHE_SIZE", "3")
        assert DispatchModelCache().maxsize == 3
        # An explicit constructor arg always wins over the environment.
        assert DispatchModelCache(maxsize=7).maxsize == 7

    def test_default_capacity_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MODEL_CACHE_SIZE", raising=False)
        assert DispatchModelCache().maxsize == 32

    def test_eviction_counter(self):
        tel = Telemetry()
        with use_telemetry(tel):
            cache = DispatchModelCache(maxsize=1)
            cache._entry("cost-min", hours_at(0), MARGIN)
            cache._entry(
                "cost-min", [site_hour("Z", 0.5e-6, 10.0, 50.0)], MARGIN
            )
        reg = tel.registry
        assert reg.counter("core.model_cache.evict").value == 1
        assert reg.counter("core.model_cache.miss").value == 2

    def test_solver_backend_threaded_to_entries(self):
        from repro.solver import ScipyBackend

        cache = DispatchModelCache(solver_backend="scipy", use_enum_kernel=False)
        hours = hours_at(0)
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        hot = CostMinimizer(model_cache=cache)
        got = hot.solve(hours, lam)
        (entry,) = cache._entries.values()
        assert isinstance(entry.solver, ScipyBackend)
        ref = CostMinimizer(backend="scipy").solve(hours, lam)
        assert got.predicted_cost == pytest.approx(ref.predicted_cost, rel=1e-8)

    def test_lp_only_backend_refused(self):
        with pytest.raises(ValueError, match="lacks the milp capability"):
            DispatchModelCache(solver_backend="scipy-lp")

    def test_dispatch_level_backend_refused(self):
        # It solves site hours, not the compiled arrays an entry holds,
        # so the first MILP solve would fail; refuse it up front.
        with pytest.raises(ValueError, match="dispatch capability"):
            DispatchModelCache(solver_backend="decomposition")

    def test_optimizer_solver_backend_reaches_cache(self):
        hot = CostMinimizer(solver_backend="simplex")
        hours = hours_at(0)
        hot.solve(hours, 0.5 * sum(sh.max_rate_rps for sh in hours))
        assert hot.model_cache.solver_backend == "simplex"


class TestMinOnlyLpSelection:
    def _dispatcher(self, **kwargs):
        hours = hours_at(0)
        return MinOnlyDispatcher(
            price_mode=PriceMode.AVG,
            server_slopes={sh.name: 0.4e-6 for sh in hours},
            **kwargs,
        ), hours

    def test_named_engines_resolve(self):
        from repro.core import MinOnlyCache
        from repro.solver import RevisedSimplexSolver, SimplexSolver

        assert type(MinOnlyCache(lp_solver="simplex")._solver) is SimplexSolver
        assert type(
            MinOnlyCache(lp_solver="revised-simplex")._solver
        ) is RevisedSimplexSolver
        engine = RevisedSimplexSolver()
        assert MinOnlyCache(lp_solver=engine)._solver is engine

    def test_unknown_name_rejected(self):
        from repro.core import MinOnlyCache

        with pytest.raises(ValueError, match="lp_solver"):
            MinOnlyCache(lp_solver="scipy")

    def test_revised_engine_matches_default(self):
        plain, hours = self._dispatcher()
        revised, _ = self._dispatcher(solver_backend="revised-simplex")
        lam = 0.5 * sum(sh.max_rate_rps for sh in hours)
        a = plain.solve(hours, lam)
        b = revised.solve(hours, lam)
        assert b.predicted_cost == pytest.approx(a.predicted_cost, rel=1e-8)

    def test_auto_selection_at_compile(self):
        from repro.core import MinOnlyCache
        from repro.solver import SimplexSolver

        cache = MinOnlyCache()
        assert cache._solver is None
        disp, hours = self._dispatcher(model_cache=cache)
        disp.solve(hours, 0.5 * sum(sh.max_rate_rps for sh in hours))
        # Three sites compile to a tiny LP: the dense engine wins.
        assert type(cache._solver) is SimplexSolver
