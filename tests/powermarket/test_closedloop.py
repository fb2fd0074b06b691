"""Closed-loop co-simulation: grid registry, coupling, fixed point.

The acceptance pair at the heart of the module: an undamped
best-response dynamic oscillates across a congestion step (period-2
cycle, detected and counted), while the damped iteration on the same
scenario converges. Plus the supporting machinery — grid registry,
N-1 line outages, policy regeneration from sweeps, renewable-shaped
background demand.
"""

import numpy as np
import pytest

from repro.powermarket import closedloop
from repro.powermarket.closedloop import (
    ClosedLoopConfig,
    EndogenousPricer,
    MarketCoupling,
    available_grids,
    get_grid,
    line_outage,
    policies_from_sweep,
    register_grid,
)
from repro.powermarket.dcopf import DcOpf
from repro.powermarket.demand import renewable_background
from repro.powermarket.grids import two_zone
from repro.powermarket.network import Grid
from repro.powermarket.pjm5bus import pjm5bus
from repro.telemetry import Telemetry, use_telemetry


# -- grid registry -----------------------------------------------------------


class TestGridRegistry:
    def test_builtins_registered(self):
        assert {"pjm5bus", "two-zone", "ieee9"} <= set(available_grids())

    def test_get_by_name(self):
        grid = get_grid("two-zone")
        assert {b.name for b in grid.buses} == {"X", "Y"}

    def test_passthrough(self):
        grid = two_zone()
        assert get_grid(grid) is grid

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="pjm5bus"):
            get_grid("no-such-grid")

    def test_register_and_replace_guard(self):
        register_grid("test-tz", two_zone, replace=True)
        assert "test-tz" in available_grids()
        with pytest.raises(ValueError, match="already registered"):
            register_grid("test-tz", two_zone)
        register_grid("test-tz", two_zone, replace=True)

    def test_early_registration_keeps_the_builtins(self, monkeypatch):
        # The registry as a fresh import leaves it: nothing loaded yet.
        monkeypatch.setattr(closedloop, "_GRID_FACTORIES", {})
        monkeypatch.setattr(
            closedloop, "_BUILTINS_LOADED", False, raising=False
        )
        register_grid("custom", two_zone)
        assert {"custom", "pjm5bus", "two-zone", "ieee9"} <= set(
            available_grids()
        )
        assert len(get_grid("pjm5bus").buses) == 5
        with pytest.raises(ValueError, match="already registered"):
            register_grid("pjm5bus", two_zone)

    def test_register_rejects_non_callable(self):
        with pytest.raises(TypeError):
            register_grid("bad", two_zone(), replace=True)


class TestLineOutage:
    def test_removes_line(self):
        grid = get_grid("pjm5bus", mutate=line_outage("D-E"))
        assert "D-E" not in {l.key for l in grid.lines}
        assert len(grid.lines) == len(pjm5bus().lines) - 1

    def test_unknown_key_lists_lines(self):
        with pytest.raises(KeyError, match="X-Y"):
            line_outage("nope")(two_zone())

    def test_islanding_rejected(self):
        # Two-zone has one line; dropping it islands bus Y.
        with pytest.raises(ValueError):
            line_outage("X-Y")(two_zone())

    def test_outage_changes_prices(self):
        opf_base = DcOpf(pjm5bus())
        opf_out = DcOpf(get_grid("pjm5bus", mutate=line_outage("D-E")))
        loads = {"B": 250.0, "C": 250.0, "D": 250.0}
        base = opf_base.dispatch(loads)
        out = opf_out.dispatch(loads)
        assert base.feasible and out.feasible
        assert any(
            abs(base.lmp_at(b) - out.lmp_at(b)) > 1e-6 for b in ("B", "C", "D")
        )


# -- coupling ----------------------------------------------------------------


class TestMarketCoupling:
    def test_unknown_bus_rejected(self):
        with pytest.raises(ValueError, match="unknown bus"):
            MarketCoupling(grid=two_zone(), site_buses={"DC": "Z"})

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one site"):
            MarketCoupling(grid=two_zone(), site_buses={})

    def test_buses_in_grid_order(self):
        coupling = MarketCoupling(
            grid=pjm5bus(), site_buses={"s1": "D", "s2": "B", "s3": "D"}
        )
        assert coupling.buses == ("B", "D")

    def test_infer_from_policy_regions(self):
        from repro.experiments import paper_world

        world = paper_world(1, seed=7)
        coupling = MarketCoupling.infer(world.sites, "pjm5bus")
        assert coupling.site_buses == {"DC1": "B", "DC2": "C", "DC3": "D"}

    def test_infer_unmappable_site_errors(self):
        from repro.experiments import paper_world

        world = paper_world(1, seed=7)
        with pytest.raises(ValueError, match="site_buses"):
            MarketCoupling.infer(world.sites, "two-zone")


# -- configuration -----------------------------------------------------------


class TestClosedLoopConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"damping": 0.0},
            {"damping": 1.5},
            {"acceleration": "newton"},
            {"max_iterations": 1},
            {"tol_lmp": 0.0},
            {"sweep_step_mw": -1.0},
            {"operators": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClosedLoopConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = ClosedLoopConfig()
        assert cfg.damping == 0.5 and cfg.max_iterations >= 2


# -- policy regeneration -----------------------------------------------------


class TestPoliciesFromSweep:
    def test_two_zone_congestion_step(self):
        opf = DcOpf(two_zone())
        window = np.arange(20.0, 200.0, 5.0)
        out = policies_from_sweep(opf, {"Y": 1.0}, window)
        policy = out["Y"]
        # Below the 100 MW tie limit Y clears cheap; beyond, local cost.
        assert policy.price(50.0) == pytest.approx(10.0)
        assert policy.price(180.0) == pytest.approx(50.0)
        assert len(policy.prices) >= 2

    def test_zero_share_bus_gets_flat_fallback(self):
        opf = DcOpf(two_zone())
        window = np.arange(20.0, 120.0, 5.0)
        out = policies_from_sweep(
            opf, {"Y": 1.0, "X": 0.0}, window, fallback_lmp={"X": 12.5}
        )
        assert out["X"].is_flat()
        assert out["X"].price(0.0) == pytest.approx(12.5)

    def test_locational_breakpoints_scale_with_share(self):
        opf = DcOpf(pjm5bus())
        window = np.arange(100.0, 800.0, 10.0)
        thirds = policies_from_sweep(
            opf, {"B": 1 / 3, "C": 1 / 3, "D": 1 / 3}, window
        )
        for policy in thirds.values():
            # Interior breakpoints are share x system breakpoints, so the
            # largest must sit inside a third of the swept window.
            if policy.breakpoints:
                assert max(policy.breakpoints) <= window[-1] / 3 + 1e-9


# -- the fixed point ---------------------------------------------------------


def _pricer(config: ClosedLoopConfig) -> EndogenousPricer:
    coupling = MarketCoupling(grid=two_zone(), site_buses={"DC": "Y"})
    return EndogenousPricer(coupling, config)


def _spot_taker(policies, injections, rivals):
    """A price-taking best responder: reads the spot price at its
    *current* operating point and bangs between full load and minimum.
    This is the dynamic that genuinely cycles across a congestion step —
    a curve-aware dispatcher would see the step coming and stabilize.
    """
    price = policies["Y"].price(60.0 + injections["DC"] + rivals.get("DC", 0.0))
    return {"DC": 10.0 if price > 20.0 else 120.0}


class TestFixedPoint:
    def test_undamped_best_response_oscillates(self):
        tel = Telemetry()
        with use_telemetry(tel):
            pricer = _pricer(
                ClosedLoopConfig(damping=1.0, max_iterations=8)
            )
            result = pricer.solve_hour({"DC": 60.0}, {"DC": 120.0}, _spot_taker)
        assert not result.converged
        assert result.oscillated
        assert result.fallback
        assert result.iterations == 8
        # Period-2 LMP cycle at bus Y: 50, 10, 50, 10, ...
        ys = [h["Y"] for h in result.lmp_history]
        assert ys[0] == pytest.approx(50.0)
        assert ys[1] == pytest.approx(10.0)
        assert ys[2] == pytest.approx(ys[0]) and ys[3] == pytest.approx(ys[1])
        assert tel.registry.get("closedloop.oscillated").value == 1
        assert tel.registry.get("closedloop.fallback").value == 1
        assert tel.registry.get("closedloop.converged") is None

    def test_damping_converges_same_scenario(self):
        tel = Telemetry()
        with use_telemetry(tel):
            pricer = _pricer(
                ClosedLoopConfig(damping=0.5, max_iterations=8)
            )
            result = pricer.solve_hour({"DC": 60.0}, {"DC": 120.0}, _spot_taker)
        assert result.converged
        assert not result.fallback
        assert result.iterations <= 8
        # Converged means the last two OPF clears priced identically.
        assert pricer._delta(result.lmp_history[-1], result.lmp_history[-2]) < (
            pricer.config.tol_lmp
        )
        assert tel.registry.get("closedloop.converged").value == 1

    def test_anderson_converges_same_scenario(self):
        pricer = _pricer(
            ClosedLoopConfig(
                damping=0.5, acceleration="anderson", max_iterations=8
            )
        )
        result = pricer.solve_hour({"DC": 60.0}, {"DC": 120.0}, _spot_taker)
        assert result.converged and not result.fallback

    def test_fixed_point_needs_two_clears_minimum(self):
        pricer = _pricer(ClosedLoopConfig())

        def steady(policies, injections, rivals):
            return {"DC": 30.0}

        result = pricer.solve_hour({"DC": 10.0}, {"DC": 30.0}, steady)
        assert result.converged
        assert result.iterations == 2

    def test_infeasible_operating_point_falls_back(self):
        # Load beyond total generation: the OPF cannot clear.
        tel = Telemetry()
        with use_telemetry(tel):
            pricer = _pricer(ClosedLoopConfig())
            result = pricer.solve_hour(
                {"DC": 5000.0},
                {"DC": 0.0},
                lambda policies, injections, rivals: {"DC": 0.0},
            )
        assert result.fallback and not result.converged
        assert result.iterations == 1
        assert tel.registry.get("closedloop.fallback").value == 1

    def test_multi_operator_amplifies_nodal_load(self):
        one = _pricer(ClosedLoopConfig(operators=1))
        three = _pricer(ClosedLoopConfig(operators=3))
        bg, inj = {"DC": 10.0}, {"DC": 25.0}
        assert one.nodal_loads(bg, inj)["Y"] == pytest.approx(35.0)
        assert three.nodal_loads(bg, inj)["Y"] == pytest.approx(85.0)

    def test_rivals_passed_to_redispatch(self):
        pricer = _pricer(ClosedLoopConfig(operators=3, max_iterations=3))
        seen = []

        def responder(policies, injections, rivals):
            seen.append(dict(rivals))
            return {"DC": 20.0}

        pricer.solve_hour({"DC": 10.0}, {"DC": 20.0}, responder)
        assert seen and seen[0]["DC"] == pytest.approx(2 * 20.0)


# -- renewable background ----------------------------------------------------


class TestRenewableBackground:
    def test_duck_curve_shape(self):
        net = renewable_background(48, 100.0, seed=3)
        assert net.shape == (48,)
        assert np.all(net >= 0.0)
        # Solar depresses midday below the evening ramp (duck curve).
        assert net[12] < net[19]

    def test_deterministic_in_seed(self):
        a = renewable_background(72, 80.0, seed=11)
        b = renewable_background(72, 80.0, seed=11)
        c = renewable_background(72, 80.0, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_fraction_matches_gross(self):
        from repro.powermarket.demand import reco_like_background

        gross = reco_like_background(24, 100.0, seed=5)
        net = renewable_background(24, 100.0, renewable_fraction=0.0, seed=5)
        assert np.allclose(net, gross)
