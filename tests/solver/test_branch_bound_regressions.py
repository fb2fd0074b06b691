"""Regression tests for branch-and-bound status reporting and node order.

Pins two subtle behaviors:

* When node LPs die on solver limits (not proven infeasibility) and no
  incumbent was ever found, the search must report ``NODE_LIMIT`` — an
  earlier version of the status plumbing made that branch unreachable
  and the tree claimed ``INFEASIBLE`` for problems it never actually
  explored.
* ``_Node`` heap ordering uses ``(bound, depth, tie)`` only; the lb/ub
  array payloads are excluded from comparison (``compare=False``), so
  ties never trigger elementwise NumPy comparisons inside ``heapq``.
"""

import dataclasses
import heapq

import numpy as np
import pytest

from repro.solver import (
    BranchBoundSolver,
    Model,
    ScipyBackend,
    SimplexSolver,
    SolveStatus,
    quicksum,
)
from repro.solver.branch_bound import _Node
from repro.solver.result import SolveResult


class _LimitAfterRoot:
    """Stub LP engine: optimal fractional root, then iteration limits."""

    name = "stub"

    def __init__(self, root_x):
        self.root_x = np.asarray(root_x, dtype=float)
        self.calls = 0

    def solve(self, sf):
        self.calls += 1
        if self.calls == 1:
            return SolveResult(
                status=SolveStatus.OPTIMAL,
                objective=0.0,
                x=self.root_x.copy(),
                backend=self.name,
            )
        return SolveResult(
            status=SolveStatus.ITERATION_LIMIT, backend=self.name
        )


class _InfeasibleAfterRoot(_LimitAfterRoot):
    def solve(self, sf):
        self.calls += 1
        if self.calls == 1:
            return SolveResult(
                status=SolveStatus.OPTIMAL,
                objective=0.0,
                x=self.root_x.copy(),
                backend=self.name,
            )
        return SolveResult(status=SolveStatus.INFEASIBLE, backend=self.name)


def _one_binary_sf():
    m = Model()
    z = m.binary("z")
    m.minimize(z)
    return m.to_standard_form()


class TestLimitStatusReporting:
    def test_limit_dropped_subtrees_report_node_limit(self):
        """Feasible-but-unsolved subtrees must not be claimed infeasible."""
        sf = _one_binary_sf()
        solver = BranchBoundSolver(
            lp_solver=_LimitAfterRoot([0.5]), warm_start=False
        )
        res = solver.solve(sf)
        assert res.status is SolveStatus.NODE_LIMIT
        assert "no incumbent" in res.message

    def test_proven_infeasible_subtrees_still_report_infeasible(self):
        sf = _one_binary_sf()
        solver = BranchBoundSolver(
            lp_solver=_InfeasibleAfterRoot([0.5]), warm_start=False
        )
        res = solver.solve(sf)
        assert res.status is SolveStatus.INFEASIBLE


class TestNodeOrdering:
    def test_arrays_excluded_from_comparison(self):
        by_field = {f.name: f for f in dataclasses.fields(_Node)}
        for name in ("lb", "ub", "warm"):
            assert by_field[name].compare is False

    def test_heap_ties_never_compare_arrays(self):
        # Equal bound and depth: only the distinct tie breaks the tie.
        # With arrays in the comparison this would raise ("truth value
        # of an array...") or, worse, order nondeterministically.
        a = _Node(bound=1.0, depth=2, tie=0, lb=np.zeros(3), ub=np.ones(3))
        b = _Node(bound=1.0, depth=2, tie=1, lb=np.zeros(5), ub=np.ones(5))
        heap = [b, a]
        heapq.heapify(heap)
        assert heapq.heappop(heap) is a
        assert a < b and not (b < a)

    def test_lower_bound_pops_first(self):
        lo = _Node(bound=-5.0, depth=9, tie=3, lb=np.zeros(2), ub=np.ones(2))
        hi = _Node(bound=-1.0, depth=0, tie=0, lb=np.zeros(2), ub=np.ones(2))
        heap = [hi, lo]
        heapq.heapify(heap)
        assert heapq.heappop(heap) is lo


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_knapsacks(self, seed):
        """Warm-started own stack == cold own stack == HiGHS, repeatedly.

        The second warm solve on the same instance starts afresh: no
        basis or incumbent carries across solves.
        """
        rng = np.random.default_rng(seed)
        n = 7
        values = rng.integers(5, 40, size=n)
        weights = rng.integers(1, 10, size=n)
        cap = int(weights.sum() * 0.55)
        m = Model("knap")
        xs = [m.binary(f"x{i}") for i in range(n)]
        m.add(quicksum(int(w) * x for w, x in zip(weights, xs)) <= cap)
        m.maximize(quicksum(int(v) * x for v, x in zip(values, xs)))
        sf = m.to_standard_form()

        warm = BranchBoundSolver(lp_solver=SimplexSolver(), warm_start=True)
        cold = BranchBoundSolver(lp_solver=SimplexSolver(), warm_start=False)
        first = warm.solve(sf)
        again = warm.solve(sf)
        reference = ScipyBackend().solve(sf)
        assert first.ok and again.ok and reference.ok
        assert first.objective == pytest.approx(reference.objective, abs=1e-6)
        assert again.objective == pytest.approx(reference.objective, abs=1e-6)
        assert cold.solve(sf).objective == pytest.approx(
            reference.objective, abs=1e-6
        )
