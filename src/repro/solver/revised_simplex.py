"""Revised simplex with a factorized basis and sparse column pricing.

The dense-tableau :class:`~repro.solver.simplex.SimplexSolver` carries
an ``m x (n + 2m)`` tableau and touches all of it on every pivot — at
dispatch-fleet scale (200 sites is ~5k rows after bound reduction) the
tableau alone is hundreds of megabytes and each pivot sweeps it. The
revised method stores only the ``m x m`` basis inverse plus the sparse
constraint columns: pivots are one rank-1 update of ``B^{-1}``, entering
columns are priced through a CSC matrix (the dispatch constraint matrix
is ~99% zeros — every constraint touches one site), and the inverse is
refactorized periodically to shed accumulated float drift.

The solver subclasses :class:`SimplexSolver` to reuse the whole
bound-reduction layer (structure cache, shift/split recovery, dual row
conventions) so results are interchangeable with the dense engine, and
it exposes the same ``solve``/``solve_warm`` API so
:class:`~repro.solver.branch_bound.BranchBoundSolver` can sit on top of
either engine unchanged. Warm tokens carry the optimal *basis* only —
re-entry refactorizes once and then re-optimizes with a handful of
dual/primal pivots, exactly like the tableau engine's warm path.

Telemetry: ``solver.revised-simplex.refactorizations`` counts basis
refreshes (periodic + warm re-entry), ``solver.revised-simplex.
pricing_passes`` counts full reduced-cost sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as _sparse

from ..telemetry import get_telemetry
from .model import StandardForm
from .registry import env_int
from .result import SolveResult, SolveStatus
from .simplex import SimplexSolver, _Prepared, _Structure

__all__ = [
    "RevisedSimplexSolver",
    "RevisedWarmBasis",
    "lp_solver_for_size",
    "DENSE_TABLEAU_CELL_LIMIT",
]

_INF = float("inf")

#: Above this many dense-tableau cells the revised engine is picked by
#: :func:`lp_solver_for_size` (override with ``REPRO_DENSE_TABLEAU_CELLS``).
DENSE_TABLEAU_CELL_LIMIT = 4_000_000


def lp_solver_for_size(
    n_vars: int, n_rows: int, cell_limit: int | None = None
) -> SimplexSolver:
    """Pick the LP engine for a model of the given (pre-reduction) size.

    The dense tableau for a model with ``n_vars`` variables and
    ``n_rows`` constraints is roughly ``m x (n + m)`` with ``m ≈ n_rows
    + n_vars`` (finite upper bounds become explicit rows). Below the
    cell limit the dense engine wins — smaller constant factors, BLAS
    rank-1 pivots; above it the tableau's memory traffic dominates and
    the factorized/sparse engine takes over. The 3–13-site dispatch
    models stay dense; 100+-site fleets go revised.
    """
    if cell_limit is None:
        cell_limit = env_int(
            "REPRO_DENSE_TABLEAU_CELLS", DENSE_TABLEAU_CELL_LIMIT
        )
    m = n_rows + n_vars
    cells = m * (n_vars + m + 1)
    if cells > cell_limit:
        return RevisedSimplexSolver()
    return SimplexSolver()


@dataclass
class RevisedWarmBasis:
    """Warm-start token of :class:`RevisedSimplexSolver`: the basis only.

    Unlike the tableau engine's :class:`~repro.solver.simplex.WarmBasis`
    there is no tableau to carry — re-entry refactorizes ``B^{-1}`` from
    the column indices, so the token is a few kilobytes and never
    mutated in place. ``refs`` exists for the branch-and-bound
    bookkeeping protocol and is otherwise inert.
    """

    structure: _Structure = field(repr=False)
    basis: np.ndarray = field(repr=False)
    refs: int = 0


@dataclass
class _RevisedState:
    """Final basis snapshot for warm export."""

    basis: np.ndarray
    export_ok: bool


class RevisedSimplexSolver(SimplexSolver):
    """Factorized-basis revised simplex over :class:`StandardForm` LPs.

    Parameters are those of :class:`SimplexSolver` plus
    ``refactor_every``: pivots between full refactorizations of the
    basis inverse (accuracy refresh; each refresh increments the
    ``solver.revised-simplex.refactorizations`` counter).
    """

    name = "revised-simplex"

    def __init__(
        self,
        tol: float = 1e-9,
        max_iters: int = 20_000,
        bland_after: int = 5_000,
        refactor_every: int = 64,
    ):
        super().__init__(tol=tol, max_iters=max_iters, bland_after=bland_after)
        self.refactor_every = refactor_every
        # id(structure) -> (structure, CSC, CSR of A.T); the structure
        # object is held in the value so the id cannot be recycled, and
        # identity is re-checked on lookup.
        self._sparse: dict[int, tuple[_Structure, object, object]] = {}

    # -- sparse constraint-matrix cache ---------------------------------------

    def _sparse_for(self, st: _Structure):
        hit = self._sparse.get(id(st))
        if hit is not None and hit[0] is st:
            return hit[1], hit[2]
        A_s = _sparse.csc_matrix(st.A)
        A_sT = _sparse.csr_matrix(A_s.T)
        self._sparse[id(st)] = (st, A_s, A_sT)
        if len(self._sparse) > 2 * len(self._structures) + 2:
            live = {id(s) for s in self._structures}
            for key in [k for k in self._sparse if k not in live]:
                del self._sparse[key]
        return A_s, A_sT

    # -- solve implementations ------------------------------------------------

    def _solve_impl(self, sf: StandardForm, ranging: bool) -> SolveResult:
        if ranging:
            # RHS ranging reads B^{-1} off the full final tableau; the
            # ranging callers (DC-OPF) run at dense-friendly sizes.
            return super()._solve_impl(sf, ranging)
        tel = get_telemetry()
        st = self._structure_for(sf, tel)
        prep = self._prepare_from(st, sf)
        run = _Run(self, st, prep)
        status, y, duals, iters, _state = run.cold()
        run.flush_counters(tel)
        if status is not SolveStatus.OPTIMAL:
            return SolveResult(status=status, iterations=iters, backend=self.name)
        x = self._recover(prep, y, sf)
        return SolveResult(
            status=SolveStatus.OPTIMAL,
            objective=float(sf.c @ x),
            x=x,
            duals_eq=duals[prep.n_ub : prep.n_ub + prep.n_eq],
            duals_ub=duals[: prep.n_ub],
            iterations=iters,
            backend=self.name,
        )

    def _solve_warm_impl(self, sf: StandardForm, warm, tel):
        st = self._structure_for(sf, tel)
        prep = self._prepare_from(st, sf)
        run = _Run(self, st, prep)
        out = None
        if isinstance(warm, RevisedWarmBasis):
            out = run.warm(warm)
            if tel.enabled:
                which = "reused" if out is not None else "fallback"
                tel.counter(f"solver.revised-simplex.warm.{which}").inc()
        if out is None:
            out = run.cold()
        run.flush_counters(tel)
        status, y, duals, iters, state = out
        warm_out = None
        if state is not None and state.export_ok:
            warm_out = RevisedWarmBasis(structure=st, basis=state.basis.copy())
        if status is not SolveStatus.OPTIMAL:
            return (
                SolveResult(status=status, iterations=iters, backend=self.name),
                warm_out,
            )
        x = self._recover(prep, y, sf)
        res = SolveResult(
            status=SolveStatus.OPTIMAL,
            objective=float(sf.c @ x),
            x=x,
            duals_eq=duals[prep.n_ub : prep.n_ub + prep.n_eq],
            duals_ub=duals[: prep.n_ub],
            iterations=iters,
            backend=self.name,
        )
        return res, warm_out


class _Run:
    """One revised-simplex solve over a prepared bound reduction.

    Column universe: ``[0, n)`` structural, ``[n, n+m)`` row slacks
    (enterable only on inequality rows), ``[n+m, n+2m)`` artificials —
    one per row with coefficient ``sign(b_i) * e_i`` so the initial
    basic solution ``|b|`` is feasible without flipping any row; they
    never re-enter once left.
    """

    def __init__(self, solver: RevisedSimplexSolver, st: _Structure, prep: _Prepared):
        self.solver = solver
        self.prep = prep
        self.m, self.n = prep.A.shape
        self.A_s, self.A_sT = solver._sparse_for(st)
        self.indptr = self.A_s.indptr
        self.indices = self.A_s.indices
        self.data = self.A_s.data
        self.slack_ok = ~prep.is_eq
        self.feas_tol = solver.tol * max(1.0, float(np.abs(prep.b).max(initial=0.0)))
        self.refactorizations = 0
        self.pricing_passes = 0
        self.pivots_since_refactor = 0
        self.basis: np.ndarray | None = None
        self.Binv: np.ndarray | None = None
        self.xB: np.ndarray | None = None
        self.in_basis = np.zeros(self.n + 2 * self.m, dtype=bool)
        self.art_sign = np.ones(self.m)

    def flush_counters(self, tel) -> None:
        if not tel.enabled:
            return
        if self.refactorizations:
            tel.counter("solver.revised-simplex.refactorizations").inc(
                self.refactorizations
            )
        if self.pricing_passes:
            tel.counter("solver.revised-simplex.pricing_passes").inc(
                self.pricing_passes
            )

    # -- linear algebra kernels ------------------------------------------------

    def _ftran(self, j: int) -> np.ndarray:
        """``B^{-1} @ column_j`` through the sparse column (FTRAN)."""
        if j < self.n:
            lo, hi = self.indptr[j], self.indptr[j + 1]
            idx = self.indices[lo:hi]
            if idx.size == 0:
                return np.zeros(self.m)
            return self.Binv[:, idx] @ self.data[lo:hi]
        return self.Binv[:, j - self.n].copy()

    def _refactorize(self) -> bool:
        """Rebuild ``B^{-1}`` (and the basic solution) from scratch."""
        m, n = self.m, self.n
        basis = self.basis
        B = np.zeros((m, m))
        struct = basis < n
        if struct.any():
            B[:, struct] = self.prep.A[:, basis[struct]]
        slack = np.flatnonzero((basis >= n) & (basis < n + m))
        if slack.size:
            B[basis[slack] - n, slack] = 1.0
        art = np.flatnonzero(basis >= n + m)
        if art.size:
            rows = basis[art] - n - m
            B[rows, art] = self.art_sign[rows]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(self.Binv).all():
            return False
        self.xB = self.Binv @ self.prep.b
        self.refactorizations += 1
        self.pivots_since_refactor = 0
        return True

    def _pivot(self, i: int, j: int, d: np.ndarray) -> None:
        """Replace basis row ``i`` with column ``j`` (``d = B^{-1} A_j``)."""
        piv = d[i]
        self.in_basis[self.basis[i]] = False
        self.in_basis[j] = True
        self.basis[i] = j
        theta = self.xB[i] / piv
        self.xB -= theta * d
        self.xB[i] = theta
        self.Binv[i] /= piv
        dd = d.copy()
        dd[i] = 0.0
        self.Binv -= np.outer(dd, self.Binv[i])
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= self.solver.refactor_every:
            # Periodic accuracy refresh; on the (pathological) singular
            # case keep the product-form inverse and retry later.
            if not self._refactorize():
                self.pivots_since_refactor = 0

    # -- pricing and ratio tests -----------------------------------------------

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs over the enterable universe (inf = barred)."""
        y = cost[self.basis] @ self.Binv
        self.pricing_passes += 1
        n, m = self.n, self.m
        r = np.full(n + m, _INF)
        r[:n] = cost[:n] - self.A_sT @ y
        rs = cost[n : n + m] - y
        r[n:][self.slack_ok] = rs[self.slack_ok]
        r[self.in_basis[: n + m]] = _INF
        return r

    def _ratio_test(self, d: np.ndarray, bland: bool) -> int:
        tol = self.solver.tol
        art_rows = self.basis >= self.n + self.m
        elig_pos = d > tol
        # A zero-level basic artificial whose value would grow must
        # leave at theta = 0 instead (it would re-violate its row);
        # positive-level artificials (mid phase 1) follow the normal rule.
        elig_art = art_rows & (d < -tol) & (np.abs(self.xB) <= self.feas_tol)
        if not (elig_pos.any() or elig_art.any()):
            return -1
        ratios = np.full(self.m, _INF)
        ratios[elig_pos] = self.xB[elig_pos] / d[elig_pos]
        np.maximum(ratios, 0.0, out=ratios)
        ratios[elig_art] = 0.0
        i = int(np.argmin(ratios))
        if bland:
            best = ratios[i]
            ties = np.flatnonzero(ratios <= best + tol * (1 + abs(best)))
            i = int(min(ties, key=lambda k: self.basis[k]))
        return i

    # -- simplex loops ----------------------------------------------------------

    def _primal(self, cost: np.ndarray):
        sol = self.solver
        iters = 0
        while True:
            if iters >= sol.max_iters:
                return SolveStatus.ITERATION_LIMIT, iters
            r = self._reduced_costs(cost)
            if iters < sol.bland_after:
                j = int(np.argmin(r))
                if r[j] >= -sol.tol:
                    return SolveStatus.OPTIMAL, iters
            else:
                negs = np.flatnonzero(r < -sol.tol)
                if negs.size == 0:
                    return SolveStatus.OPTIMAL, iters
                j = int(negs[0])  # Bland: smallest index
            d = self._ftran(j)
            i = self._ratio_test(d, iters >= sol.bland_after)
            if i < 0:
                return SolveStatus.UNBOUNDED, iters
            self._pivot(i, j, d)
            iters += 1

    def _dual(self, cost: np.ndarray):
        """Dual simplex: restore primal feasibility from a dual-feasible basis."""
        sol = self.solver
        n, m = self.n, self.m
        iters = 0
        while True:
            if iters >= sol.max_iters:
                return SolveStatus.ITERATION_LIMIT, iters
            i = int(np.argmin(self.xB))
            if self.xB[i] >= -self.feas_tol:
                return SolveStatus.OPTIMAL, iters
            r = self._reduced_costs(cost)
            w = self.Binv[i]
            alpha = np.zeros(n + m)
            alpha[:n] = self.A_sT @ w
            alpha[n:][self.slack_ok] = w[self.slack_ok]
            cand = (alpha < -sol.tol) & ~self.in_basis[: n + m]
            if not cand.any():
                return SolveStatus.INFEASIBLE, iters
            ratios = np.full(n + m, _INF)
            rc = np.where(np.isfinite(r), np.maximum(r, 0.0), _INF)
            ratios[cand] = rc[cand] / -alpha[cand]
            j = int(np.argmin(ratios))
            d = self._ftran(j)
            self._pivot(i, j, d)
            iters += 1

    # -- entry points ------------------------------------------------------------

    def cold(self):
        """Two-phase solve from the all-slack/artificial basis."""
        m, n = self.m, self.n
        prep = self.prep
        if m == 0:
            if n and float(prep.c.min(initial=0.0)) < -self.solver.tol:
                return SolveStatus.UNBOUNDED, None, None, 0, None
            state = _RevisedState(np.empty(0, dtype=np.int64), True)
            return SolveStatus.OPTIMAL, np.zeros(n), np.zeros(0), 0, state
        b = prep.b
        self.art_sign = np.where(b < 0, -1.0, 1.0)
        art_used = prep.is_eq | (b < 0)
        rows = np.arange(m)
        self.basis = np.where(art_used, n + m + rows, n + rows).astype(np.int64)
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.Binv = np.diag(self.art_sign).copy()
        self.xB = self.art_sign * b
        total = 0

        if art_used.any():
            cost1 = np.zeros(n + 2 * m)
            cost1[n + m :] = 1.0
            status, iters = self._primal(cost1)
            total += iters
            if status is not SolveStatus.OPTIMAL:
                return status, None, None, total, None
            art_basic = self.basis >= n + m
            if float(self.xB[art_basic].sum()) > 1e-7:
                return SolveStatus.INFEASIBLE, None, None, total, None
            self._drive_out_artificials()

        cost2 = np.zeros(n + 2 * m)
        cost2[:n] = prep.c
        status, iters = self._primal(cost2)
        total += iters
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, total, None
        return self._finish(cost2, total)

    def _drive_out_artificials(self) -> None:
        """Pivot zero-level artificials out where a replacement exists."""
        tol = self.solver.tol
        n, m = self.n, self.m
        for i in np.flatnonzero(self.basis >= n + m):
            w = self.Binv[i]
            alpha = np.zeros(n + m)
            alpha[:n] = self.A_sT @ w
            alpha[n:][self.slack_ok] = w[self.slack_ok]
            alpha[self.in_basis[: n + m]] = 0.0
            self.pricing_passes += 1
            cand = np.flatnonzero(np.abs(alpha) > tol)
            if cand.size:
                j = int(cand[0])
                d = self._ftran(j)
                if abs(d[i]) > tol:
                    self._pivot(i, j, d)
            # Degenerate redundant row: artificial stays basic at 0.

    def warm(self, warm: RevisedWarmBasis):
        """Re-solve from a previous optimal basis; None = fall back to cold."""
        n, m = self.n, self.m
        prep = self.prep
        basis = np.asarray(warm.basis)
        if m == 0 or basis.shape != (m,):
            return None
        if not ((basis >= 0) & (basis < n + m)).all():
            return None
        slack = basis >= n
        if slack.any() and not self.slack_ok[basis[slack] - n].all():
            return None
        if np.unique(basis).size != m:
            return None
        self.basis = basis.astype(np.int64, copy=True)
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        if not self._refactorize():
            return None
        cost2 = np.zeros(n + 2 * m)
        cost2[:n] = prep.c

        if float(self.xB.min(initial=0.0)) >= -self.feas_tol:
            status, iters = self._primal(cost2)
        else:
            # Dual simplex needs a dual-feasible start; a basis optimal
            # for the same c and A qualifies for any b, but check anyway
            # since the coefficients may have been re-expanded.
            r = self._reduced_costs(cost2)
            finite = np.isfinite(r)
            if finite.any() and float(r[finite].min()) < -1e-7:
                return None
            status, iters = self._dual(cost2)
            if status is SolveStatus.OPTIMAL:
                status, extra = self._primal(cost2)
                iters += extra
        if status is SolveStatus.ITERATION_LIMIT:
            return None  # let the cold path have a clean attempt
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, iters, None

        # Drift guard: the refactorized chain must still satisfy
        # A y + s = b; re-solve cold when numerics degraded.
        y = np.zeros(n)
        struct = self.basis < n
        y[self.basis[struct]] = self.xB[struct]
        slack_vals = np.zeros(m)
        sl = np.flatnonzero(self.basis >= n)
        if sl.size:
            slack_vals[self.basis[sl] - n] = self.xB[sl]
        resid = prep.A @ y + slack_vals - prep.b
        scale = 1.0 + float(np.abs(prep.b).max(initial=0.0))
        if float(np.abs(resid).max(initial=0.0)) > 1e-7 * scale:
            return None
        return self._finish(cost2, iters)

    def _finish(self, cost: np.ndarray, iters: int):
        n = self.n
        y = np.zeros(n)
        struct = self.basis < n
        y[self.basis[struct]] = self.xB[struct]
        duals = cost[self.basis] @ self.Binv
        export_ok = bool((self.basis < n + self.m).all())
        state = _RevisedState(basis=self.basis, export_ok=export_ok)
        return SolveStatus.OPTIMAL, y, duals, iters, state
