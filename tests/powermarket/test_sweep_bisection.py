"""`DcOpf.lmp_sweep` bisects the load window; it must equal one LP per point.

The sweep solves the window's two ends and splits only sub-intervals
whose ends differ in price regime or sit on a tie, filling the rest
without a solve. The reference here is the loop it replaced: one
`dispatch` per load level. Every comparison is bitwise, NaN positions
and the sign of zero included, over every registered grid and each of
its non-islanding N-1 outages, plus a grid whose generator minimums
make the low end of the window infeasible and windows on a tie between
equal-cost generators.
"""

import dataclasses
import math
import zlib

import numpy as np
import pytest

from repro.powermarket import Bus, DcOpf, Generator, Grid, Line, LOAD_SHARES, pjm5bus
from repro.powermarket.closedloop import available_grids, get_grid, line_outage


def one_lp_per_point(opf: DcOpf, load_shares, system_loads):
    """The reference sweep: clear every load level with its own LP."""
    total_share = sum(load_shares.values())
    shares = {b: s / total_share for b, s in load_shares.items()}
    out = {bus: np.full(len(system_loads), np.nan) for bus in load_shares}
    for i, total in enumerate(np.asarray(system_loads, dtype=float)):
        res = opf.dispatch({b: s * total for b, s in shares.items()})
        if res.feasible:
            for bus in load_shares:
                out[bus][i] = res.lmp_at(bus)
    return out


def assert_bitwise(got, want):
    assert list(got) == list(want)
    for bus in want:
        assert got[bus].tobytes() == want[bus].tobytes(), bus


class CountingOpf(DcOpf):
    """Counts the LPs a sweep solves (every one goes through dispatch)."""

    calls = 0

    def dispatch(self, loads):
        self.calls += 1
        return super().dispatch(loads)


def _grid_cases():
    cases = []
    for name in available_grids():
        grid = get_grid(name)
        cases.append(pytest.param(name, None, id=name))
        for line in grid.lines:
            try:
                line_outage(line.key)(grid)
            except ValueError:  # the outage islands a bus
                continue
            cases.append(pytest.param(name, line.key, id=f"{name}-{line.key}-out"))
    return cases


def _random_sweep(grid, rng):
    """Random bus subset, shares (sometimes a zero), window and step."""
    names = [b.name for b in grid.buses]
    picked = list(rng.choice(names, size=rng.integers(1, len(names) + 1), replace=False))
    shares = dict(zip(picked, rng.dirichlet(np.ones(len(picked)))))
    if len(picked) > 1 and rng.random() < 0.3:
        shares[picked[0]] = 0.0
        total = sum(shares.values())
        shares = {b: s / total for b, s in shares.items()}
    cap = grid.total_generation_capacity
    lo = rng.uniform(0.0, 0.9) * cap
    width = rng.uniform(0.05, 0.6) * cap
    loads = np.linspace(lo, lo + width, int(rng.integers(2, 40)))
    if rng.random() < 0.3:
        loads = rng.permutation(loads)
    return shares, loads


@pytest.mark.parametrize(("grid_name", "outage"), _grid_cases())
def test_random_sweeps_match_one_lp_per_point(grid_name, outage):
    grid = get_grid(grid_name, mutate=line_outage(outage) if outage else None)
    rng = np.random.default_rng(zlib.crc32(f"{grid_name}/{outage}".encode()))
    opf = CountingOpf(grid)
    for _ in range(3):
        shares, loads = _random_sweep(grid, rng)
        before = opf.calls
        got = opf.lmp_sweep(shares, loads)
        assert opf.calls - before <= len(loads)
        assert_bitwise(got, one_lp_per_point(DcOpf(grid), shares, loads))


def _must_run():
    """Generator minimums: feasible system loads lie strictly inside 0-600 MW."""
    return Grid(
        buses=[Bus("X"), Bus("Y"), Bus("Z")],
        lines=[
            Line("X", "Y", reactance=0.1, limit_mw=90.0),
            Line("Y", "Z", reactance=0.1),
            Line("X", "Z", reactance=0.2),
        ],
        generators=[
            Generator("Base", "X", max_mw=250.0, cost=10.0, min_mw=80.0),
            Generator("Peak", "Z", max_mw=200.0, cost=40.0, min_mw=40.0),
        ],
    )


class TestFeasibleIntervalInsideWindow:
    SHARES = {"Y": 0.7, "Z": 0.3}
    WINDOW = np.arange(0.0, 600.0 + 5.0, 10.0)

    def test_matches_one_lp_per_point(self):
        opf = CountingOpf(_must_run())
        got = opf.lmp_sweep(self.SHARES, self.WINDOW)
        want = one_lp_per_point(DcOpf(_must_run()), self.SHARES, self.WINDOW)
        assert_bitwise(got, want)
        assert opf.calls <= len(self.WINDOW)

    def test_both_window_ends_infeasible(self):
        got = DcOpf(_must_run()).lmp_sweep(self.SHARES, self.WINDOW)["Y"]
        feasible = ~np.isnan(got)
        assert not feasible[0] and not feasible[-1]
        assert feasible.any()
        # One feasible run in between: the feasible loads form an interval.
        inside = np.flatnonzero(feasible)
        assert feasible[inside[0] : inside[-1] + 1].all()


class TestRegime:
    """The fill key compares the LMP at every grid bus, bit for bit."""

    def _flat(self):
        opf = DcOpf(pjm5bus())
        res = opf.dispatch({b: 150.0 for b in ("B", "C", "D")})  # all at $10
        return opf, res

    def test_one_ulp_at_any_bus_changes_the_regime(self):
        opf, res = self._flat()
        key = opf._form.regime(res)
        assert key is not None
        for bus, lmp in res.lmp.items():
            bumped = dataclasses.replace(
                res, lmp={**res.lmp, bus: float(np.nextafter(lmp, np.inf))}
            )
            assert opf._form.regime(bumped) not in (None, key), bus

    def test_sign_of_zero_changes_the_regime(self):
        opf, res = self._flat()
        plus = dataclasses.replace(res, lmp={**res.lmp, "A": 0.0})
        minus = dataclasses.replace(res, lmp={**res.lmp, "A": -0.0})
        assert opf._form.regime(plus) != opf._form.regime(minus)


class TestTies:
    """Solitude and Sundance both cost $30 on the PJM grid.

    With all load at bus B, the solver's cheapest dispatch hops between
    equally cheap vertices as load grows: Sundance at 200 MW at 1062 and
    1446 MW but elsewhere in between, where bus B's LMP comes out as
    29.999999999999996 instead of 30.0. Ends that agree on LMPs and on
    binding limits are not enough to fill across such a stretch.
    """

    SHARES = {"B": 1.0}
    LOADS = np.linspace(1062.5611994559847, 1905.9918514669514, 12)

    def test_tie_is_detected(self):
        opf = DcOpf(pjm5bus())
        res = opf.dispatch({"B": self.LOADS[1]})
        assert res.generation["Sundance"] == 200.0
        assert opf._form.regime(res) is None

    def test_sweep_across_a_tie_matches_one_lp_per_point(self):
        got = DcOpf(pjm5bus()).lmp_sweep(self.SHARES, self.LOADS)
        assert_bitwise(
            got, one_lp_per_point(DcOpf(pjm5bus()), self.SHARES, self.LOADS)
        )
        assert got["B"][4] == 29.999999999999996


class TestLpCount:
    def test_window_with_one_lmp_vector_costs_two_lps(self):
        opf = CountingOpf(pjm5bus())
        window = np.arange(100.0, 400.0 + 2.5, 5.0)  # all at Brighton's $10
        opf.lmp_sweep(LOAD_SHARES, window)
        assert opf.calls == 2

    def test_about_log2_lps_per_step(self):
        # Figure 1's sweep: a few LMP steps over 180 load levels.
        loads = np.arange(5.0, 900.0 + 2.5, 5.0)
        opf = CountingOpf(pjm5bus())
        got = opf.lmp_sweep(LOAD_SHARES, loads)
        assert_bitwise(got, one_lp_per_point(DcOpf(pjm5bus()), LOAD_SHARES, loads))
        vectors = np.column_stack([got[b] for b in LOAD_SHARES])
        steps = int((np.diff(vectors, axis=0) != 0).any(axis=1).sum())
        assert 0 < steps
        assert opf.calls <= 2 + steps * math.ceil(math.log2(len(loads) - 1))

    def test_empty_and_single_point_windows(self):
        opf = CountingOpf(pjm5bus())
        assert opf.lmp_sweep(LOAD_SHARES, np.array([]))["B"].shape == (0,)
        assert opf.calls == 0
        one = opf.lmp_sweep(LOAD_SHARES, np.array([300.0]))
        assert opf.calls == 1
        assert one["B"][0] == 10.0
