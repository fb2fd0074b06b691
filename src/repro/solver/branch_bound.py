"""Best-first branch-and-bound MILP solver over a pluggable LP engine.

This is the reproduction's stand-in for the ``lp_solve`` MILP solver the
paper runs on-line every invocation period (Section IV-C: "lp_solver
uses a branch-and-bound algorithm to solve MILP problems"). It works on
the compiled :class:`~repro.solver.model.StandardForm`, relaxing
integrality, and branches on fractional integer variables by splitting
their bounds.

Design
------
* **Best-first search**: nodes are popped from a priority queue ordered
  by their parent LP bound, so the global lower bound is always known
  and a relative-gap termination criterion is available.
* **Most-fractional branching** (default): among fractional integer
  variables, branch on the one whose fractional part is closest to 0.5.
* **Depth-first tie-break** keeps the queue shallow on problems — like
  the paper's pricing MILPs — where an incumbent is found quickly.
* Any LP engine with ``solve(StandardForm) -> SolveResult`` can be
  plugged in; the default is HiGHS via
  :class:`~repro.solver.scipy_backend.ScipyLpBackend`, and the pure
  NumPy :class:`~repro.solver.simplex.SimplexSolver` is supported for a
  fully self-contained stack.
* **Stateless across solves**: warm starts live inside one search tree
  only, so an hour's dispatch is the same whether or not earlier hours
  ran in this process (kill/resume).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..telemetry import get_telemetry
from ..telemetry.instrument import record_solver_result
from .model import StandardForm
from .result import SolveResult, SolveStatus

__all__ = ["BranchBoundSolver"]


class _BBStats:
    """Per-solve accounting threaded through the search loop."""

    __slots__ = ("enabled", "incumbents", "lp_time_s", "warm_nodes")

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.incumbents = 0
        self.lp_time_s = 0.0
        self.warm_nodes = 0


#: Shared stats sink for uninstrumented solves (attribute writes only).
_NO_STATS = _BBStats(enabled=False)


@dataclass(order=True)
class _Node:
    """Heap entry; ordered by (bound, depth, tie) only.

    ``tie`` is always distinct, so the array payloads below never take
    part in comparisons (``compare=False`` keeps them out of the
    generated ordering methods).
    """

    bound: float  # LP bound of the parent (priority key)
    depth: int
    tie: int
    lb: np.ndarray = field(default=None, compare=False)  # type: ignore[assignment]
    ub: np.ndarray = field(default=None, compare=False)  # type: ignore[assignment]
    #: Parent's optimal basis (a simplex WarmBasis token), when available.
    warm: object = field(default=None, compare=False, repr=False)


class BranchBoundSolver:
    """MILP solver: LP relaxation + best-first branch and bound.

    Parameters
    ----------
    lp_solver:
        LP engine used for node relaxations (default HiGHS ``linprog``).
    int_tol:
        A value within ``int_tol`` of an integer counts as integral.
    rel_gap:
        Terminate when ``(incumbent - bound) / max(1, |incumbent|)``
        drops below this.
    max_nodes:
        Hard node limit; exceeding it returns the incumbent (if any)
        with :attr:`SolveStatus.NODE_LIMIT`, or a failed result.
    warm_start:
        When the LP engine supports basis reuse (``solve_warm``, as
        :class:`~repro.solver.simplex.SimplexSolver` does), re-solve
        each child node's LP from its parent's optimal basis with dual
        simplex pivots instead of a cold two-phase solve. This acts
        inside one ``solve`` only; the root LP is always solved cold.
        The optimum is the same up to floating-point rounding; this
        only changes how the node LPs are solved.
    """

    name = "branch-bound"

    def __init__(
        self,
        lp_solver=None,
        int_tol: float = 1e-6,
        rel_gap: float = 1e-9,
        max_nodes: int = 100_000,
        cover_cuts: bool = False,
        cut_rounds: int = 3,
        warm_start: bool = True,
    ):
        if lp_solver is None:
            from .scipy_backend import ScipyLpBackend

            lp_solver = ScipyLpBackend()
        self.lp = lp_solver
        self.int_tol = int_tol
        self.rel_gap = rel_gap
        self.max_nodes = max_nodes
        self.cover_cuts = cover_cuts
        self.cut_rounds = cut_rounds
        self.warm_start = warm_start

    # -- public API --------------------------------------------------------------

    def solve(self, sf: StandardForm) -> SolveResult:
        """Solve ``sf`` from scratch; no state carries between calls."""
        if not sf.has_integers:
            res = self.lp.solve(sf)
            res.backend = f"{self.name}({self.lp.name})"
            return res
        tel = get_telemetry()
        if not tel.enabled:
            return self._solve_milp(sf, _NO_STATS)
        stats = _BBStats(enabled=True)
        t0 = time.perf_counter()
        res = self._solve_milp(sf, stats)
        record_solver_result(
            tel, "branch-bound", res.status.value, res.iterations,
            time.perf_counter() - t0,
        )
        tel.histogram("solver.branch-bound.nodes").observe(res.iterations)
        tel.histogram("solver.branch-bound.lp_time_s").observe(stats.lp_time_s)
        tel.counter("solver.branch-bound.incumbent_updates").inc(stats.incumbents)
        tel.counter("solver.branch-bound.warm_nodes").inc(stats.warm_nodes)
        if res.ok:
            tel.histogram("solver.branch-bound.gap").observe(res.gap)
        return res

    def _solve_milp(self, sf: StandardForm, stats: _BBStats) -> SolveResult:
        if self.cover_cuts:
            sf = self._tighten_root(sf)

        int_idx = np.flatnonzero(sf.integrality)
        use_warm = self.warm_start and hasattr(self.lp, "solve_warm")
        tie = itertools.count()
        root = _Node(bound=-math.inf, depth=0, tie=next(tie))
        root.lb = sf.lb.copy()
        root.ub = sf.ub.copy()
        heap: list[_Node] = [root]

        incumbent_x: np.ndarray | None = None
        incumbent_obj = math.inf
        best_bound = -math.inf
        nodes = 0
        limit_dropped = 0  # subtrees dropped on a non-INFEASIBLE LP failure

        while heap:
            node = heapq.heappop(heap)
            if node.warm is not None:
                # Release this node's claim on the parent tableau; the
                # last user may consume it in place instead of copying.
                node.warm.refs -= 1
            if node.bound >= incumbent_obj - self._abs_gap(incumbent_obj):
                continue  # pruned by bound
            if nodes >= self.max_nodes:
                if incumbent_x is not None:
                    return self._finish(
                        SolveStatus.NODE_LIMIT, incumbent_obj, incumbent_x, nodes, node.bound
                    )
                return SolveResult(
                    status=SolveStatus.NODE_LIMIT, iterations=nodes, backend=self.name
                )
            nodes += 1

            relaxed = replace(sf, lb=node.lb, ub=node.ub)
            t_lp = time.perf_counter() if stats.enabled else 0.0
            if use_warm:
                res, warm_out = self.lp.solve_warm(relaxed, warm=node.warm)
                if node.warm is not None:
                    stats.warm_nodes += 1
            else:
                res = self.lp.solve(relaxed)
                warm_out = None
            if stats.enabled:
                stats.lp_time_s += time.perf_counter() - t_lp
            if res.status is SolveStatus.UNBOUNDED and node.depth == 0:
                return SolveResult(
                    status=SolveStatus.UNBOUNDED, iterations=nodes, backend=self.name
                )
            if not res.ok:
                if res.status is not SolveStatus.INFEASIBLE:
                    limit_dropped += 1
                continue  # infeasible (or unsolvable) subtree
            if res.objective >= incumbent_obj - self._abs_gap(incumbent_obj):
                continue  # bound-pruned after solving

            frac_var = self._most_fractional(res.x, int_idx)
            if frac_var is None:
                # Integral solution: new incumbent.
                if res.objective < incumbent_obj:
                    incumbent_obj = res.objective
                    incumbent_x = self._round_integers(res.x, int_idx)
                    stats.incumbents += 1
                continue

            # Branch: x_j <= floor(v)  /  x_j >= ceil(v).
            v = res.x[frac_var]
            down = _Node(bound=res.objective, depth=node.depth + 1, tie=next(tie))
            down.lb = node.lb
            down.ub = node.ub.copy()
            down.ub[frac_var] = math.floor(v)
            down.warm = warm_out
            up = _Node(bound=res.objective, depth=node.depth + 1, tie=next(tie))
            up.lb = node.lb.copy()
            up.lb[frac_var] = math.ceil(v)
            up.ub = node.ub
            up.warm = warm_out
            if warm_out is not None:
                warm_out.refs += 2
            heapq.heappush(heap, down)
            heapq.heappush(heap, up)

        if incumbent_x is None:
            if limit_dropped:
                # Some subtrees were dropped on iteration/node limits or
                # solver errors, not proven infeasible — the search hit a
                # limit, so infeasibility cannot be claimed.
                return SolveResult(
                    status=SolveStatus.NODE_LIMIT,
                    iterations=nodes,
                    backend=self.name,
                    message=(
                        f"{limit_dropped} node LP(s) failed with solver limits; "
                        "no incumbent found"
                    ),
                )
            return SolveResult(
                status=SolveStatus.INFEASIBLE, iterations=nodes, backend=self.name
            )
        best_bound = incumbent_obj  # queue exhausted: proven optimal
        return self._finish(SolveStatus.OPTIMAL, incumbent_obj, incumbent_x, nodes, best_bound)

    # -- helpers ------------------------------------------------------------------

    def _tighten_root(self, sf: StandardForm) -> StandardForm:
        """Root-node cover-cut rounds: separate, append, re-solve.

        Cover inequalities never exclude integer points, so the MILP's
        optimum is unchanged; they cut fractional LP vertices, which
        raises the root bound and shrinks the tree (tested on knapsack
        families). Bounded by ``cut_rounds`` rounds.
        """
        from .cuts import apply_cuts, find_cover_cuts

        for _ in range(self.cut_rounds):
            relax = self.lp.solve(sf)
            if not relax.ok:
                return sf  # infeasible/unbounded roots handled downstream
            cuts = find_cover_cuts(sf, relax.x)
            if not cuts:
                break
            sf = apply_cuts(sf, cuts)
        return sf

    def _abs_gap(self, incumbent: float) -> float:
        if not math.isfinite(incumbent):
            return 0.0
        return self.rel_gap * max(1.0, abs(incumbent))

    def _most_fractional(self, x: np.ndarray, int_idx: np.ndarray):
        vals = x[int_idx]
        frac = np.abs(vals - np.round(vals))
        candidates = frac > self.int_tol
        if not np.any(candidates):
            return None
        # Distance of the fractional part from 0.5 — smaller is "more fractional".
        dist = np.abs((vals - np.floor(vals)) - 0.5)
        dist[~candidates] = np.inf
        return int(int_idx[int(np.argmin(dist))])

    @staticmethod
    def _round_integers(x: np.ndarray, int_idx: np.ndarray) -> np.ndarray:
        out = x.copy()
        out[int_idx] = np.round(out[int_idx])
        return out

    def _finish(self, status, obj, x, nodes, bound) -> SolveResult:
        gap = 0.0
        if math.isfinite(bound) and math.isfinite(obj):
            gap = abs(obj - bound) / max(1.0, abs(obj))
        return SolveResult(
            status=status,
            objective=obj,
            x=x,
            iterations=nodes,
            gap=gap,
            backend=f"{self.name}({self.lp.name})",
        )
