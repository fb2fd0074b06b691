"""The table-and-fill kernel against the single-pass fills it replaced.

``ComboTable`` computes once, per set of site choices, what the fills
used to compute on every call; the fills must still return the same
bits. The reference below keeps the earlier single-pass kernel
(``_prepare``, ``combo_index``, ``cost_min_fill``,
``throughput_max_fill`` and their helpers) verbatim, so every
comparison here is exact: the same winning row, the same bytes of
``lam``, the same exact cost and served total.

The second half pins the process-wide table memo: value-keyed hits,
misses on any change of value, cached bails, the LRU bound, read-only
tables, and decisions that do not depend on what the memo held.
"""

from __future__ import annotations

import json
import random
import struct
import sys
import threading

import numpy as np
import pytest

from repro.core import CostMinimizer, ThroughputMaximizer, enum_kernel
from repro.core.enum_kernel import (
    MAX_COMBOS,
    TABLE_MEMO_SIZE,
    ComboTable,
    SiteChoices,
    cost_min_fill,
    site_choices,
    table_for,
    throughput_max_fill,
)
from repro.experiments import paper_world
from repro.telemetry import Telemetry, use_telemetry

from .test_enum_kernel import random_hours

MARGIN = 0.01
_FEAS_TOL = 1e-9


# -- the single-pass kernel, kept verbatim ----------------------------------


def ref_combo_index(sites, max_combos=MAX_COMBOS):
    n_combos = 1
    for sc in sites:
        n_combos *= sc.lo.size
        if n_combos > max_combos:
            return None
    idx = np.empty((n_combos, len(sites)), dtype=np.intp)
    rest = np.arange(n_combos)
    for i in range(len(sites) - 1, -1, -1):
        idx[:, i] = rest % sites[i].lo.size
        rest //= sites[i].lo.size
    return idx


def ref_prepare(site_hours, step_margin_frac):
    sites = []
    for sh in site_hours:
        sc = site_choices(sh, step_margin_frac)
        if sc is None:
            return None
        sites.append(sc)
    idx = ref_combo_index(sites)
    if idx is None:
        return None
    return sites, idx


def _gather(sites, idx, field):
    return np.stack(
        [getattr(sc, field)[idx[:, i]] for i, sc in enumerate(sites)], axis=1
    )


def _unsort(order_row, values_row):
    out = np.empty_like(values_row)
    out[order_row] = values_row
    return out


def _exact_cost(sites, idx, best, lam):
    cost = 0.0
    for i, sc in enumerate(sites):
        j = idx[best, i]
        if sc.pos[j] >= 0:
            cost += float(sc.price[j]) * (sc.a * float(lam[i]) + sc.b)
    return cost


def ref_cost_min_fill(sites, idx, total_rate_scaled):
    LO, HI, M, F = (_gather(sites, idx, k) for k in ("lo", "hi", "m", "f"))
    sum_lo = LO.sum(axis=1)
    feasible = (sum_lo <= total_rate_scaled + _FEAS_TOL) & (
        HI.sum(axis=1) >= total_rate_scaled - _FEAS_TOL
    )
    if not feasible.any():
        return None
    remaining = np.maximum(total_rate_scaled - sum_lo, 0.0)
    order = np.argsort(M, axis=1, kind="stable")
    caps = np.take_along_axis(HI - LO, order, axis=1)
    m_sorted = np.take_along_axis(M, order, axis=1)
    before = np.concatenate(
        [np.zeros((caps.shape[0], 1)), np.cumsum(caps, axis=1)[:, :-1]], axis=1
    )
    take = np.clip(remaining[:, None] - before, 0.0, caps)
    cost = F.sum(axis=1) + (M * LO).sum(axis=1) + (m_sorted * take).sum(axis=1)
    cost = np.where(feasible, cost, np.inf)
    best = int(np.argmin(cost))
    lam = LO[best] + _unsort(order[best], take[best])
    return best, lam, _exact_cost(sites, idx, best, lam)


def ref_throughput_max_fill(sites, idx, demand_scaled, budget, weight):
    LO, HI, M, F = (_gather(sites, idx, k) for k in ("lo", "hi", "m", "f"))
    if weight < 0.0 or (weight > 0.0 and weight * M.max(initial=0.0) >= 1.0):
        return None  # rate would be unprofitable: greedy order invalid
    base_cost = F.sum(axis=1) + (M * LO).sum(axis=1)
    sum_lo = LO.sum(axis=1)
    feasible = (base_cost <= budget + _FEAS_TOL) & (
        sum_lo <= demand_scaled + _FEAS_TOL
    )
    if not feasible.any():
        return None
    order = np.argsort(M, axis=1, kind="stable")
    caps = np.take_along_axis(HI - LO, order, axis=1)
    m_sorted = np.take_along_axis(M, order, axis=1)
    budget_left = np.maximum(budget - base_cost, 0.0)
    demand_left = np.maximum(demand_scaled - sum_lo, 0.0)
    take = np.zeros_like(caps)
    for j in range(caps.shape[1]):
        m_j = m_sorted[:, j]
        by_budget = np.divide(
            budget_left, m_j, out=np.full_like(m_j, np.inf), where=m_j > 0.0
        )
        t = np.minimum(caps[:, j], np.minimum(demand_left, by_budget))
        take[:, j] = t
        demand_left = np.maximum(demand_left - t, 0.0)
        budget_left = np.maximum(budget_left - m_j * t, 0.0)
    served = sum_lo + take.sum(axis=1)
    cost = base_cost + (m_sorted * take).sum(axis=1)
    value = np.where(feasible, served - weight * cost, -np.inf)
    best = int(np.argmax(value))
    lam = LO[best] + _unsort(order[best], take[best])
    return best, lam, float(lam.sum()), _exact_cost(sites, idx, best, lam)


# -- helpers ----------------------------------------------------------------


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_fill(new, ref):
    if ref is None:
        assert new is None
        return
    assert new is not None
    assert new[0] == ref[0]
    assert new[1].dtype == ref[1].dtype
    assert new[1].tobytes() == ref[1].tobytes()
    for a, b in zip(new[2:], ref[2:]):
        assert bits(a) == bits(b)


def random_choices(rng, n_sites, integer):
    """Site choice sets straight from the generator, not from a
    ``SiteHour``: integer data makes ties common; zero-width and
    inactive choices appear at random."""
    sites = []
    for _ in range(n_sites):
        k = int(rng.integers(1, 5))
        if integer:
            lo = rng.integers(0, 4, k).astype(float)
            hi = lo + rng.integers(0, 4, k)
            m = rng.integers(0, 5, k).astype(float)
            f = rng.integers(0, 6, k).astype(float)
        else:
            lo = rng.uniform(0.0, 3.0, k)
            hi = lo + rng.uniform(0.0, 3.0, k) * (rng.random(k) < 0.8)
            m = rng.uniform(0.0, 5.0, k)
            f = rng.uniform(0.0, 6.0, k)
        price = m / 2.0
        pos = list(range(k))
        if rng.random() < 0.5:  # the inactive choice
            lo[-1] = hi[-1] = m[-1] = f[-1] = price[-1] = 0.0
            pos[-1] = -1
        sites.append(SiteChoices(
            a=2.0, b=float(rng.integers(0, 3)),
            vals=np.array([lo, hi, m, f, price]), pos=tuple(pos),
        ))
    return sites


def fill_cases(seed, integer):
    rng = np.random.default_rng(seed)
    for _ in range(120):
        sites = random_choices(rng, int(rng.integers(1, 6)), integer)
        idx = ref_combo_index(sites)
        table = ComboTable.build(sites)
        assert table is not None
        assert table.idx.tobytes() == idx.tobytes()
        max_total = sum(float(sc.hi.max()) for sc in sites)
        yield rng, sites, idx, table, max_total


@pytest.fixture
def cold_memo():
    enum_kernel._table_from.cache_clear()
    yield
    enum_kernel._table_from.cache_clear()


# -- fills ------------------------------------------------------------------


class TestFillsMatchSinglePass:
    @pytest.mark.parametrize("integer", [True, False])
    def test_cost_min(self, integer):
        answered = declined = 0
        for rng, sites, idx, table, max_total in fill_cases(1 + integer, integer):
            totals = [
                0.0, max_total, max_total + 1.0,  # the last is infeasible
                *(float(x) for x in rng.integers(0, int(max_total) + 2, 3)),
                float(rng.uniform(0.0, max_total)),
            ]
            for total in totals:
                ref = ref_cost_min_fill(sites, idx, total)
                assert_same_fill(cost_min_fill(table, total), ref)
                answered += ref is not None
                declined += ref is None
        assert answered > 300 and declined > 100

    @pytest.mark.parametrize("integer", [True, False])
    def test_throughput_max(self, integer):
        answered = declined = 0
        for rng, sites, idx, table, max_total in fill_cases(3 + integer, integer):
            m_max = max(float(sc.m.max()) for sc in sites)
            base_min = float(table.base_cost.min())
            weights = [0.0, 1e-6, 1.0 / m_max if m_max > 0 else 2.0]
            budgets = [
                base_min - 1.0,  # below every base cost
                base_min, base_min + 2.0,
                float(rng.integers(0, 30)), float(rng.uniform(0.0, 60.0)),
            ]
            demands = [0.0, float(rng.integers(0, int(max_total) + 2)),
                       float(rng.uniform(0.0, max_total)), max_total + 1.0]
            for weight in weights:
                for budget in budgets:
                    for demand in demands:
                        ref = ref_throughput_max_fill(
                            sites, idx, demand, budget, weight
                        )
                        assert_same_fill(
                            throughput_max_fill(table, demand, budget, weight),
                            ref,
                        )
                        answered += ref is not None
                        declined += ref is None
        assert answered > 1000 and declined > 500

    def test_weight_bail_and_budget_floor(self):
        sites = random_choices(np.random.default_rng(5), 3, integer=True)
        vals = sites[0].vals.copy()
        vals[2, 0] = 4.0  # a positive marginal, so a weight can trip
        sites[0] = SiteChoices(sites[0].a, sites[0].b, vals, sites[0].pos)
        table = ComboTable.build(sites)
        assert throughput_max_fill(table, 5.0, 1e9, 0.25) is None
        assert throughput_max_fill(table, 5.0, 1e9, -1.0) is None
        floor = float(table.base_cost.min())
        assert throughput_max_fill(table, 5.0, floor - 1e-3, 0.0) is None

    def test_paper_world_hours(self):
        world = paper_world(1, seed=7)
        for t in range(0, 720, 7):
            hours = [s.hour(t) for s in world.sites]
            sites, idx = ref_prepare(hours, MARGIN)
            table = ComboTable.build(sites)
            total = float(world.workload.rates_rps[t]) / 1e6
            ref = ref_cost_min_fill(sites, idx, total)
            assert_same_fill(cost_min_fill(table, total), ref)
            budget = 0.8 * ref[2]
            assert_same_fill(
                throughput_max_fill(table, total, budget, 1e-6),
                ref_throughput_max_fill(sites, idx, total, budget, 1e-6),
            )

    def test_random_fleets_through_the_memo(self, cold_memo):
        rng = np.random.default_rng(11)
        for _ in range(60):
            hours = random_hours(rng, int(rng.integers(1, 6)))
            prep = ref_prepare(hours, MARGIN)
            table = table_for(hours, MARGIN)
            if prep is None:
                assert table is None
                continue
            sites, idx = prep
            total = float(rng.uniform(0.0, 1.1)) * sum(
                sh.max_rate_rps for sh in hours
            ) / 1e6
            assert_same_fill(
                cost_min_fill(table, total), ref_cost_min_fill(sites, idx, total)
            )

    def test_min_only_table_has_one_row(self):
        sites = random_choices(np.random.default_rng(6), 4, integer=False)
        one = [
            SiteChoices(sc.a, sc.b, sc.vals[:, :1].copy(), sc.pos[:1])
            for sc in sites
        ]
        table = ComboTable.build(one)
        assert table.idx.shape == (1, 4)
        total = float(sum(sc.hi[0] for sc in one)) / 2.0
        assert_same_fill(
            cost_min_fill(table, total),
            ref_cost_min_fill(one, ref_combo_index(one), total),
        )

    def test_cap_declines(self):
        sites = random_choices(np.random.default_rng(7), 5, integer=True)
        n = int(np.prod([sc.lo.size for sc in sites]))
        assert ComboTable.build(sites, max_combos=n) is not None
        assert ComboTable.build(sites, max_combos=n - 1) is None


# -- the table memo ---------------------------------------------------------


def counts(tel):
    reg = tel.registry
    return (
        reg.counter("core.enum_kernel.table.hit").value,
        reg.counter("core.enum_kernel.table.miss").value,
    )


def paper_hours(t, seed=7):
    return [s.hour(t) for s in paper_world(1, seed=seed).sites]


class TestTableMemo:
    def test_equal_values_build_once(self, cold_memo):
        first, second = paper_hours(5), paper_hours(5)
        assert first == second and first[0] is not second[0]
        tel = Telemetry()
        with use_telemetry(tel):
            a = table_for(first, MARGIN)
            b = table_for(second, MARGIN)
            c = table_for(tuple(second), MARGIN)
        assert a is b is c
        assert counts(tel) == (2, 1)

    def test_one_ulp_or_another_margin_misses(self, cold_memo):
        import dataclasses

        hours = paper_hours(5)
        moved = list(hours)
        moved[1] = dataclasses.replace(
            hours[1],
            background_mw=float(np.nextafter(hours[1].background_mw, np.inf)),
        )
        tel = Telemetry()
        with use_telemetry(tel):
            base = table_for(hours, MARGIN)
            assert table_for(moved, MARGIN) is not base
            assert table_for(hours, 0.02) is not base
            assert table_for(hours, MARGIN) is base
        assert counts(tel) == (1, 3)

    def test_bail_is_cached_and_the_milp_answers(self, cold_memo):
        hours = random_hours(np.random.default_rng(6), 2, piecewise=True)
        tel = Telemetry()
        with use_telemetry(tel):
            assert table_for(hours, MARGIN) is None
            assert table_for(hours, MARGIN) is None
            lam = 0.4 * sum(sh.max_rate_rps for sh in hours)
            hot = CostMinimizer().solve(hours, lam)
        assert counts(tel) == (2, 1)
        assert tel.registry.counter("core.enum_kernel.bail").value == 1
        cold = CostMinimizer(backend="scipy").solve(hours, lam)
        assert hot.predicted_cost == pytest.approx(cold.predicted_cost, rel=1e-8)

    def test_bound_holds(self, cold_memo):
        world = paper_world(1, seed=7)
        tables = [
            table_for([s.hour(t) for s in world.sites], MARGIN)
            for t in range(TABLE_MEMO_SIZE + 5)
        ]
        assert enum_kernel._table_from.cache_info().currsize == TABLE_MEMO_SIZE
        tel = Telemetry()
        with use_telemetry(tel):
            newest = table_for([s.hour(TABLE_MEMO_SIZE + 4) for s in world.sites], MARGIN)
            oldest = table_for([s.hour(0) for s in world.sites], MARGIN)
        assert newest is tables[-1] and oldest is not tables[0]
        assert counts(tel) == (1, 1)

    def test_large_fleets_bypass_the_memo(self, cold_memo, monkeypatch):
        hours = paper_hours(5)
        monkeypatch.setattr(enum_kernel, "_MEMO_SITES", 2)
        assert table_for(hours, MARGIN) is not table_for(hours, MARGIN)
        assert enum_kernel._table_from.cache_info().currsize == 0

    def test_tables_are_read_only(self, cold_memo):
        table = table_for(paper_hours(5), MARGIN)
        arrays = [
            table.idx, table.LO, table.sum_lo, table.sum_hi, table.order,
            table.caps, table.m_sorted, table.base_cost, table.before,
        ]
        arrays += [sc.vals for sc in table.sites]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0
        with pytest.raises(ValueError):
            table.idx[table.idx.shape[0] - 1][0] = 0
        with pytest.raises(ValueError):
            table.sites[0].lo[0] = 1.0

    def test_telemetry_off_touches_no_counter(self, cold_memo, monkeypatch):
        class Off:
            enabled = False

            def counter(self, name):
                raise AssertionError(f"{name} counted with telemetry off")

        monkeypatch.setattr(enum_kernel, "get_telemetry", Off)
        hours = paper_hours(5)
        assert table_for(hours, MARGIN) is table_for(hours, MARGIN)

    def test_warm_shuffled_equals_cold_in_order(self, cold_memo):
        world = paper_world(1, seed=7)
        hours = list(range(48))

        def solve(order):
            cm, tm = CostMinimizer(), ThroughputMaximizer()
            out = {}
            for t in order:
                shs = [s.hour(t) for s in world.sites]
                lam = float(world.workload.rates_rps[t])
                a = cm.solve(shs, lam)
                b = tm.solve(shs, lam, 0.8 * a.predicted_cost)
                out[t] = json.dumps([a.to_dict(), b.to_dict()])
            return [out[t] for t in hours]

        cold = solve(hours)
        shuffled = hours[:]
        random.Random(0).shuffle(shuffled)
        assert solve(shuffled) == cold  # memo warm from the first pass
        enum_kernel._table_from.cache_clear()
        assert solve(hours) == cold

    def test_concurrent_callers(self, cold_memo):
        world = paper_world(1, seed=7)
        cases = [
            ([s.hour(t) for s in world.sites],
             float(world.workload.rates_rps[t]) / 1e6)
            for t in range(TABLE_MEMO_SIZE + 8)
        ]
        expected = [
            (enum_kernel.solve_cost_min(shs, total, MARGIN)[2].tobytes())
            for shs, total in cases
        ]
        enum_kernel._table_from.cache_clear()
        errors, results = [], {}

        def worker(k):
            try:
                got = [
                    enum_kernel.solve_cost_min(shs, total, MARGIN)[2].tobytes()
                    for shs, total in cases[k:] + cases[:k]
                ]
                results[k] = got[len(cases) - k:] + got[: len(cases) - k]
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        assert all(results[k] == expected for k in range(4))
        assert enum_kernel._table_from.cache_info().currsize <= TABLE_MEMO_SIZE
