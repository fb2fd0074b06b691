"""A dense two-phase primal simplex solver in pure NumPy.

This is the self-contained LP engine of the reproduction: it solves the
compiled :class:`~repro.solver.model.StandardForm` (ignoring
integrality — integrality is enforced by
:class:`~repro.solver.branch_bound.BranchBoundSolver` on top) without
any external solver. ``scipy.optimize.linprog`` (HiGHS) is available as
a faster drop-in via :class:`~repro.solver.scipy_backend.ScipyLpBackend`;
the two are cross-checked in the test suite on randomized LPs.

Implementation notes
--------------------
* General bounds are reduced to the textbook form ``min c@y, A y (<=|=) b,
  y >= 0``: finite lower bounds are shifted out, free variables are
  split into positive/negative parts, and finite upper bounds become
  explicit ``<=`` rows. The reduction is fully vectorized and its
  *structure* (which variables are free / upper-bounded, hence the
  column layout and the expanded ``A``) is cached across solves: inside
  branch and bound, node problems share the exact same ``c``/``A``
  arrays and differ only in bounds, so the expansion is reused and only
  the right-hand side is recomputed per node.
* A classic dense tableau is used. All row operations are vectorized
  (one rank-1 update per pivot), per the NumPy performance guidance.
* Phase 1 minimizes the sum of artificial variables; phase 2 re-prices
  with the true objective. Dantzig pricing with a Bland's-rule fallback
  (activated after an iteration threshold) guarantees termination.
* The tableau uses a *canonical* column layout — ``[structural | one
  identity column per row | extra artificials]`` — so the final tableau
  directly contains ``B^{-1}`` under the identity block regardless of
  which rows were sign-flipped. That makes dual extraction and RHS
  ranging one matrix slice, and it is what enables warm starts: a
  parent-optimal basis stays dual-feasible when only ``b`` changes
  (bound changes reduce to RHS changes under a fixed structure), so
  :meth:`SimplexSolver.solve_warm` re-solves with a handful of dual
  simplex pivots instead of two cold phases.
* Dual multipliers for the original equality and ``<=`` rows are
  recovered from the final tableau (``y = c_B @ B^{-1}``), matching the
  SciPy sign convention, so LMPs can be computed with either engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import get_telemetry
from ..telemetry.instrument import record_solver_result
from .model import StandardForm
from .result import SolveResult, SolveStatus

try:  # BLAS rank-1 update: in-place, no temporary allocation per pivot
    from scipy.linalg.blas import dger as _dger
except ImportError:  # pragma: no cover - scipy is a hard dependency
    _dger = None

__all__ = ["SimplexSolver", "WarmBasis"]

_INF = float("inf")

#: Incremental reduced-cost updates are refreshed from scratch this often.
_REPRICE_EVERY = 64

#: Structures kept per solver instance (branch & bound needs exactly one;
#: a couple extra tolerate interleaved problems without thrash).
_STRUCT_CACHE_SIZE = 4


@dataclass
class _Structure:
    """Bound-reduction layout shared by every LP with the same pattern.

    The pattern is (shapes, which lower bounds are -inf, which upper
    bounds are finite); ``src_*`` hold the exact arrays the expansion
    was computed from, so identical-object inputs (branch-and-bound
    nodes) skip the expansion entirely.
    """

    n_vars: int
    free: np.ndarray  # bool per var: lb == -inf (split into y+ - y-)
    fin_ub: np.ndarray  # bool per var: finite ub (explicit bound row)
    pos_col: np.ndarray
    neg_col: np.ndarray  # -1 where the variable has no negative part
    bound_vars: np.ndarray  # original var index per bound row
    col_count: int
    n_ub: int
    n_eq: int
    is_eq: np.ndarray
    A: np.ndarray  # stacked reduced rows: ub, eq, bound
    c: np.ndarray
    src_c: np.ndarray = field(repr=False)
    src_A_ub: np.ndarray = field(repr=False)
    src_A_eq: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]


@dataclass
class WarmBasis:
    """Opaque warm-start token returned by :meth:`SimplexSolver.solve_warm`.

    Holds the final canonical tableau and basis of a previous solve.
    Valid for re-solving any LP with the same reduction structure; the
    solver validates compatibility itself and silently falls back to a
    cold solve, so callers can hand back stale tokens freely.

    ``refs`` lets a caller opt into move semantics: when no other
    outstanding reference exists (``refs == 0``), the solver mutates
    the stored tableau in place instead of copying it (branch and bound
    hands each parent tableau to exactly one surviving child most of
    the time).
    """

    structure: _Structure = field(repr=False)
    T: np.ndarray = field(repr=False)  # (m, col_count + m + 1), canonical
    basis: np.ndarray = field(repr=False)
    refs: int = 0


@dataclass
class _TableauState:
    """Final-tableau snapshot used for ranging and warm-basis export.

    ``T``'s columns ``[n : n+m]`` are the canonical identity block, i.e.
    ``B^{-1}`` of the final basis; ``export_ok`` is False when a
    non-canonical (extra artificial) column is still basic.
    """

    T: np.ndarray
    basis: np.ndarray
    n_structural: int
    export_ok: bool


@dataclass
class _Prepared:
    """Intermediate data produced by the bound-reduction step."""

    c: np.ndarray  # objective over reduced variables
    A: np.ndarray  # all rows (ub rows then eq rows then bound rows)
    b: np.ndarray
    is_eq: np.ndarray  # bool per row
    # mapping back to original variables: x[j] = shift[j] + pos_col y - neg_col y
    shift: np.ndarray
    pos_col: np.ndarray  # column index of the positive part
    neg_col: np.ndarray  # column of negative part, -1 if none
    n_ub: int  # number of original <= rows (for dual extraction)
    n_eq: int  # number of original == rows


class SimplexSolver:
    """Two-phase dense tableau simplex for LPs in :class:`StandardForm`.

    Parameters
    ----------
    tol:
        Feasibility/optimality tolerance.
    max_iters:
        Hard pivot limit; exceeding it yields
        :attr:`SolveStatus.ITERATION_LIMIT`.
    bland_after:
        Number of Dantzig pivots after which the solver switches to
        Bland's anti-cycling rule.
    """

    name = "simplex"

    def __init__(self, tol: float = 1e-9, max_iters: int = 20_000, bland_after: int = 5_000):
        self.tol = tol
        self.max_iters = max_iters
        self.bland_after = bland_after
        self._structures: list[_Structure] = []

    # -- public API -----------------------------------------------------------

    def solve(self, sf: StandardForm, ranging: bool = False) -> SolveResult:
        """Solve the LP relaxation of ``sf`` and return a result with duals.

        With ``ranging=True`` the result also carries per-constraint
        RHS sensitivity ranges: the interval of right-hand-side change
        over which the optimal basis (and therefore every dual price)
        remains valid. For the DC-OPF this answers "how much can this
        bus's load grow before the LMP changes?" directly from one
        solve.
        """
        tel = get_telemetry()
        if not tel.enabled:
            return self._solve_impl(sf, ranging)
        t0 = time.perf_counter()
        res = self._solve_impl(sf, ranging)
        record_solver_result(
            tel, self.name, res.status.value, res.iterations,
            time.perf_counter() - t0,
        )
        return res

    def solve_warm(
        self, sf: StandardForm, warm: WarmBasis | None = None
    ) -> tuple[SolveResult, WarmBasis | None]:
        """Solve like :meth:`solve`, reusing and exporting a warm basis.

        ``warm`` is a token from a previous ``solve_warm`` on a
        structurally similar LP (e.g. the parent node in branch and
        bound). When compatible, the previous optimal basis is
        refreshed with the new right-hand side and re-optimized with
        dual simplex pivots — usually a handful — instead of a cold
        two-phase solve. Incompatible or numerically
        degraded warm data falls back to a cold solve automatically;
        results are identical either way (verified by the equivalence
        test suite).

        Returns ``(result, warm_out)``; ``warm_out`` is ``None`` when
        no reusable basis is available (failed solve or a degenerate
        basis still containing an extra artificial column).
        """
        tel = get_telemetry()
        if not tel.enabled:
            return self._solve_warm_impl(sf, warm, tel)
        t0 = time.perf_counter()
        res, warm_out = self._solve_warm_impl(sf, warm, tel)
        record_solver_result(
            tel, self.name, res.status.value, res.iterations,
            time.perf_counter() - t0,
        )
        return res, warm_out

    # -- solve implementations ------------------------------------------------

    def _solve_impl(self, sf: StandardForm, ranging: bool) -> SolveResult:
        prep = self._reduce_bounds(sf)
        status, y, duals, iters, state = self._two_phase(prep)
        if status is not SolveStatus.OPTIMAL:
            return SolveResult(status=status, iterations=iters, backend=self.name)
        x = self._recover(prep, y, sf)
        obj = float(sf.c @ x)
        duals_ub = duals[: prep.n_ub]
        duals_eq = duals[prep.n_ub : prep.n_ub + prep.n_eq]
        rhs_range_ub = rhs_range_eq = None
        if ranging:
            ranges = self._rhs_ranges(state)
            rhs_range_ub = ranges[: prep.n_ub]
            rhs_range_eq = ranges[prep.n_ub : prep.n_ub + prep.n_eq]
        return SolveResult(
            status=SolveStatus.OPTIMAL,
            objective=obj,
            x=x,
            duals_eq=duals_eq,
            duals_ub=duals_ub,
            iterations=iters,
            backend=self.name,
            rhs_range_eq=rhs_range_eq,
            rhs_range_ub=rhs_range_ub,
        )

    def _solve_warm_impl(self, sf: StandardForm, warm, tel):
        st = self._structure_for(sf, tel)
        prep = self._prepare_from(st, sf)
        out = None
        if warm is not None:
            out = self._warm_attempt(st, prep, warm)
            if tel.enabled:
                which = "reused" if out is not None else "fallback"
                tel.counter(f"solver.simplex.warm.{which}").inc()
        if out is None:
            out = self._two_phase(prep)
        status, y, duals, iters, state = out
        warm_out = None
        if state is not None and state.export_ok:
            n, m = state.n_structural, state.T.shape[0]
            if state.T.shape[1] == n + m + 1:
                T_exp = state.T  # warm-path tableau is already canonical
            else:
                T_exp = np.concatenate([state.T[:, : n + m], state.T[:, -1:]], axis=1)
            warm_out = WarmBasis(structure=st, T=T_exp, basis=state.basis)
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

    # -- bound reduction --------------------------------------------------------

    def _structure_for(self, sf: StandardForm, tel) -> _Structure:
        free = np.isneginf(sf.lb)
        fin_ub = np.isfinite(sf.ub)
        for k, st in enumerate(self._structures):
            if (
                st.n_vars == sf.n_vars
                and st.n_ub == sf.A_ub.shape[0]
                and st.n_eq == sf.A_eq.shape[0]
                and np.array_equal(st.free, free)
                and np.array_equal(st.fin_ub, fin_ub)
            ):
                if st.src_c is sf.c and st.src_A_ub is sf.A_ub and st.src_A_eq is sf.A_eq:
                    # Identical arrays (branch-and-bound node): full reuse.
                    if k:
                        self._structures.insert(0, self._structures.pop(k))
                    if tel.enabled:
                        tel.counter("solver.simplex.structure_cache.hit").inc()
                    return st
                # Same pattern, new coefficient values (e.g. a patched
                # dispatch model): reuse the layout, re-expand A and c.
                # A *new* structure object is created so outstanding
                # WarmBasis tokens anchored to the old one cannot be
                # misapplied to the new coefficients.
                new = self._build_structure(sf, free, fin_ub, layout=st)
                self._structures[k] = new
                if k:
                    self._structures.insert(0, self._structures.pop(k))
                if tel.enabled:
                    tel.counter("solver.simplex.structure_cache.pattern").inc()
                return new
        st = self._build_structure(sf, free, fin_ub, layout=None)
        self._structures.insert(0, st)
        del self._structures[_STRUCT_CACHE_SIZE:]
        if tel.enabled:
            tel.counter("solver.simplex.structure_cache.miss").inc()
        return st

    def _build_structure(self, sf, free, fin_ub, layout: _Structure | None) -> _Structure:
        n = sf.n_vars
        if layout is not None:
            pos_col, neg_col = layout.pos_col, layout.neg_col
            bound_vars, col_count = layout.bound_vars, layout.col_count
        else:
            width = np.where(free, 2, 1)
            pos_col = np.cumsum(width) - width
            neg_col = np.where(free, pos_col + 1, -1)
            bound_vars = np.flatnonzero(fin_ub)
            col_count = int(width.sum())

        split = np.flatnonzero(free)

        def expand(A: np.ndarray) -> np.ndarray:
            """Map an original-variable matrix to reduced columns."""
            out = np.zeros((A.shape[0], col_count))
            if A.size:
                out[:, pos_col] = A
                if split.size:
                    out[:, neg_col[split]] = -A[:, split]
            return out

        A_ub = expand(sf.A_ub)
        A_eq = expand(sf.A_eq)
        nb = bound_vars.size
        bound_A = np.zeros((nb, col_count))
        if nb:
            rows = np.arange(nb)
            bound_A[rows, pos_col[bound_vars]] = 1.0
            bf = free[bound_vars]
            if bf.any():
                bound_A[rows[bf], neg_col[bound_vars[bf]]] = -1.0

        c = np.zeros(col_count)
        c[pos_col] = sf.c
        if split.size:
            c[neg_col[split]] = -sf.c[split]

        A = np.vstack([A_ub, A_eq, bound_A])
        is_eq = np.zeros(A.shape[0], dtype=bool)
        is_eq[sf.A_ub.shape[0] : sf.A_ub.shape[0] + sf.A_eq.shape[0]] = True
        return _Structure(
            n_vars=n,
            free=free,
            fin_ub=fin_ub,
            pos_col=pos_col,
            neg_col=neg_col,
            bound_vars=bound_vars,
            col_count=col_count,
            n_ub=sf.A_ub.shape[0],
            n_eq=sf.A_eq.shape[0],
            is_eq=is_eq,
            A=A,
            c=c,
            src_c=sf.c,
            src_A_ub=sf.A_ub,
            src_A_eq=sf.A_eq,
        )

    @staticmethod
    def _prepare_from(st: _Structure, sf: StandardForm) -> _Prepared:
        """Per-solve part of the reduction: shifts and right-hand sides."""
        shift = np.where(st.free, 0.0, sf.lb)
        b_ub = sf.b_ub - sf.A_ub @ shift if sf.A_ub.size else sf.b_ub.copy()
        b_eq = sf.b_eq - sf.A_eq @ shift if sf.A_eq.size else sf.b_eq.copy()
        bound_b = sf.ub[st.bound_vars] - shift[st.bound_vars]
        return _Prepared(
            c=st.c,
            A=st.A,
            b=np.concatenate([b_ub, b_eq, bound_b]),
            is_eq=st.is_eq,
            shift=shift,
            pos_col=st.pos_col,
            neg_col=st.neg_col,
            n_ub=st.n_ub,
            n_eq=st.n_eq,
        )

    def _reduce_bounds(self, sf: StandardForm) -> _Prepared:
        return self._prepare_from(self._structure_for(sf, get_telemetry()), sf)

    # -- tableau machinery --------------------------------------------------------

    def _two_phase(self, prep: _Prepared):
        """Run phase 1 + 2; return (status, y, row_duals, iterations, state).

        ``row_duals`` are the multipliers for the rows of ``prep.A`` in
        their original (unflipped) orientation; ``state`` carries the
        final tableau for sensitivity ranging and warm-basis export
        (None on failure).

        Column layout: ``[structural (n)] [identity (m)] [extra
        artificials]``. Row ``i``'s identity column is the canonical
        unit vector ``e_i`` — a true slack for ``<=`` rows, an
        artificial for ``==`` rows — entered with the row's flip sign,
        so the final tableau's identity block *is* ``B^{-1}`` in the
        original row orientation (the flips cancel). Flipped rows
        cannot start basic on their identity column (negative sign) and
        get an extra artificial instead.
        """
        b0 = prep.b
        is_eq = prep.is_eq
        m, n = prep.A.shape

        flipped = b0 < 0
        sign = np.where(flipped, -1.0, 1.0)
        art_rows = np.flatnonzero(flipped)
        n_extra = art_rows.size
        ncols = n + m + n_extra

        T = np.zeros((m, ncols + 1))
        T[:, :n] = prep.A * sign[:, None]
        rows = np.arange(m)
        T[rows, n + rows] = sign
        if n_extra:
            T[art_rows, n + m + np.arange(n_extra)] = 1.0
        T[:, -1] = b0 * sign

        basis = n + rows.copy()
        if n_extra:
            basis[art_rows] = n + m + np.arange(n_extra)

        # Phase-1 artificials: identity columns of unflipped eq rows plus
        # every extra column. Flipped eq identity columns are barred in
        # both phases (they exist only so B^{-1} can be read off).
        art_set = np.zeros(ncols, dtype=bool)
        art_set[n + np.flatnonzero(is_eq & ~flipped)] = True
        art_set[n + m :] = True
        barred = np.zeros(ncols, dtype=bool)
        barred[n + np.flatnonzero(is_eq & flipped)] = True

        total_iters = 0

        if art_set.any():
            c1 = np.zeros(ncols)
            c1[art_set] = 1.0
            status, iters = self._optimize(T, basis, c1, allow=~barred)
            total_iters += iters
            if status is not SolveStatus.OPTIMAL:
                return status, None, None, total_iters, None
            phase1_obj = float(c1[basis] @ T[:, -1])
            if phase1_obj > 1e-7:
                return SolveStatus.INFEASIBLE, None, None, total_iters, None
            # Pivot remaining artificials out of the basis when possible.
            for i in np.flatnonzero(art_set[basis]):
                row = T[i, :ncols]
                candidates = np.flatnonzero(
                    (np.abs(row) > self.tol) & ~art_set & ~barred
                )
                if candidates.size:
                    self._pivot(T, basis, int(i), int(candidates[0]))
                # Degenerate redundant row: artificial stays basic at 0.

        # Phase 2: true objective; artificial columns are barred from entering.
        c2 = np.zeros(ncols)
        c2[:n] = prep.c
        # Identity columns of eq rows are artificials too (art_set); the
        # identity columns of ineq rows are genuine slacks and stay allowed.
        allow = ~(art_set | barred)
        status, iters = self._optimize(T, basis, c2, allow)
        total_iters += iters
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, total_iters, None

        y = np.zeros(n)
        structural = basis < n
        y[basis[structural]] = T[structural, -1]

        # Dual extraction: the identity block holds B^{-1} in canonical
        # row orientation, so y_row = c_B @ B^{-1} is one slice.
        duals = c2[basis] @ T[:, n : n + m]
        state = _TableauState(
            T=T,
            basis=basis,
            n_structural=n,
            export_ok=not bool(np.any(basis >= n + m)),
        )
        return SolveStatus.OPTIMAL, y, duals, total_iters, state

    # -- warm start ---------------------------------------------------------------

    def _warm_attempt(self, st: _Structure, prep: _Prepared, warm: WarmBasis):
        """Re-solve from a previous basis; None means 'fall back to cold'.

        Two tiers:

        * same structure object (branch-and-bound nodes): the parent's
          final tableau is reused directly — only the RHS column is
          refreshed via ``B^{-1} b`` read off the identity block;
        * same dimensions but re-expanded coefficients (a caller's
          token from an LP whose coefficients have since moved): the
          basis is refactorized against the new ``A`` with one dense
          solve.

        Then: primal-feasible ⇒ phase-2 pivots; dual-feasible ⇒ dual
        simplex; neither ⇒ cold. A residual check guards against
        numerical drift accumulated along tableau-reuse chains.
        """
        m, n = prep.A.shape
        if warm.basis.size != m or warm.T.shape != (m, n + m + 1):
            return None
        identity_tier = warm.structure is st
        if identity_tier:
            if warm.refs <= 0:
                T, basis = warm.T, warm.basis  # move: last user of this token
            else:
                T, basis = warm.T.copy(), warm.basis.copy()
            # Reading the identity block (B^{-1}) and writing only the
            # RHS column, so the in-place move is safe.
            T[:, -1] = T[:, n : n + m] @ prep.b
        else:
            if not (warm.basis < n + m).all():
                return None
            B = np.zeros((m, m))
            struct = warm.basis < n
            B[:, struct] = prep.A[:, warm.basis[struct]]
            slack_pos = np.flatnonzero(~struct)
            B[warm.basis[slack_pos] - n, slack_pos] = 1.0
            M = np.concatenate([prep.A, np.eye(m), prep.b[:, None]], axis=1)
            try:
                T = np.linalg.solve(B, M)
            except np.linalg.LinAlgError:
                return None
            basis = warm.basis.copy()
        if not np.isfinite(T).all():
            return None

        c2 = np.zeros(n + m)
        c2[:n] = prep.c
        allow = np.ones(n + m, dtype=bool)
        allow[n + np.flatnonzero(prep.is_eq)] = False
        feas_tol = self.tol * max(1.0, float(np.abs(prep.b).max(initial=0.0)))

        if float(T[:, -1].min(initial=0.0)) >= -feas_tol:
            status, iters = self._optimize(T, basis, c2, allow)
        else:
            # A basis that was optimal for the same c and A is dual
            # feasible for any b (reduced costs do not depend on b), so
            # the identity tier goes straight to dual simplex; only the
            # refactorized tier (new coefficients) needs the check.
            if not identity_tier:
                r = c2 - c2[basis] @ T[:, :-1]
                r[basis] = 0.0
                if float(r[allow].min(initial=0.0)) < -1e-7:
                    return None  # neither primal- nor dual-feasible: cold solve
            status, iters = self._dual_optimize(T, basis, c2, allow, feas_tol)
            if status is SolveStatus.OPTIMAL:
                # Polish with primal pivots (usually zero) to enforce the
                # same optimality tolerance as the cold path.
                status, extra = self._optimize(T, basis, c2, allow)
                iters += extra
        if status is SolveStatus.ITERATION_LIMIT:
            return None  # let the cold path have a clean attempt
        if status is not SolveStatus.OPTIMAL:
            return status, None, None, iters, None

        y_full = np.zeros(n + m)
        y_full[basis] = T[:, -1]
        # Drift guard: the reused/refactorized tableau must still satisfy
        # A y + s = b; re-solve cold when numerics degraded.
        resid = prep.A @ y_full[:n] + y_full[n:] - prep.b
        scale = 1.0 + float(np.abs(prep.b).max(initial=0.0))
        if float(np.abs(resid).max(initial=0.0)) > 1e-7 * scale:
            return None
        duals = c2[basis] @ T[:, n : n + m]
        state = _TableauState(T=T, basis=basis, n_structural=n, export_ok=True)
        return SolveStatus.OPTIMAL, y_full[:n], duals, iters, state

    def _dual_optimize(self, T, basis, c, allow, feas_tol):
        """Dual simplex pivots: restore primal feasibility, keep optimality.

        The entering-column ratio test preserves dual feasibility
        (reduced costs stay non-negative); no eligible column in a
        violated row proves primal infeasibility.
        """
        ncols = T.shape[1] - 1
        iters = 0
        r = c - c[basis] @ T[:, :-1]
        while True:
            if iters >= self.max_iters:
                return SolveStatus.ITERATION_LIMIT, iters
            xB = T[:, -1]
            if iters < self.bland_after:
                i = int(np.argmin(xB))
                if xB[i] >= -feas_tol:
                    return SolveStatus.OPTIMAL, iters
            else:
                negs = np.flatnonzero(xB < -feas_tol)
                if negs.size == 0:
                    return SolveStatus.OPTIMAL, iters
                i = int(min(negs, key=lambda k: basis[k]))  # Bland-style
            row = T[i, :-1]
            cand = (row < -self.tol) & allow
            cand[basis] = False
            if not cand.any():
                return SolveStatus.INFEASIBLE, iters
            ratios = np.full(ncols, _INF)
            ratios[cand] = np.maximum(r[cand], 0.0) / -row[cand]
            j = int(np.argmin(ratios))
            if iters >= self.bland_after:
                best = ratios[j]
                ties = np.flatnonzero(ratios <= best + self.tol * (1 + abs(best)))
                j = int(ties.min())
            rj = r[j]
            self._pivot(T, basis, i, j)
            iters += 1
            # Price update: the pivoted row re-prices every column at once.
            if iters % _REPRICE_EVERY:
                r -= rj * T[i, :-1]
                r[j] = 0.0
            else:  # periodic full refresh against accumulated drift
                r = c - c[basis] @ T[:, :-1]

    def _optimize(self, T, basis, c, allow):
        """Run primal simplex pivots on tableau ``T`` for objective ``c``."""
        m = T.shape[0]
        iters = 0
        # Reduced costs are maintained incrementally (one rank-1 price
        # update per pivot) with a periodic full refresh; the selection
        # works on a masked copy so the true values survive the pivot.
        r = c - c[basis] @ T[:, :-1]
        while True:
            if iters >= self.max_iters:
                return SolveStatus.ITERATION_LIMIT, iters
            rw = np.where(allow, r, _INF)  # barred columns never enter
            rw[basis] = _INF  # basic columns have r==0; exclude for speed
            if iters < self.bland_after:
                j = int(np.argmin(rw))
                if rw[j] >= -self.tol:
                    return SolveStatus.OPTIMAL, iters
            else:
                negs = np.flatnonzero(rw < -self.tol)
                if negs.size == 0:
                    return SolveStatus.OPTIMAL, iters
                j = int(negs[0])  # Bland: smallest index
            col = T[:, j]
            positive = col > self.tol
            if not np.any(positive):
                return SolveStatus.UNBOUNDED, iters
            ratios = np.full(m, _INF)
            ratios[positive] = T[positive, -1] / col[positive]
            i = int(np.argmin(ratios))
            if iters >= self.bland_after:
                # Bland tie-break: leaving variable with the smallest index.
                best = ratios[i]
                ties = np.flatnonzero(np.abs(ratios - best) <= self.tol * (1 + abs(best)))
                i = int(min(ties, key=lambda k: basis[k]))
            rj = r[j]
            self._pivot(T, basis, i, j)
            iters += 1
            if iters % _REPRICE_EVERY:
                r -= rj * T[i, :-1]
                r[j] = 0.0
            else:
                r = c - c[basis] @ T[:, :-1]

    @staticmethod
    def _pivot(T: np.ndarray, basis: np.ndarray, i: int, j: int) -> None:
        """Pivot the tableau on element (i, j) with one rank-1 update."""
        T[i] /= T[i, j]
        col = T[:, j].copy()
        col[i] = 0.0
        # T -= outer(col, T[i]) updates every other row at once. BLAS
        # ``dger`` does the rank-1 update in place (T.T of a C-ordered
        # tableau is F-ordered, which is what dger requires), avoiding a
        # tableau-sized temporary on every pivot.
        if _dger is not None and T.flags.c_contiguous:
            _dger(-1.0, T[i], col, a=T.T, overwrite_a=1)
        else:
            T -= np.outer(col, T[i])
        # Clean numerical fuzz in the pivot column.
        T[:, j] = 0.0
        T[i, j] = 1.0
        basis[i] = j

    # -- sensitivity ranging ----------------------------------------------------------

    def _rhs_ranges(self, state: _TableauState) -> np.ndarray:
        """Per-row (delta_lo, delta_hi) keeping the optimal basis feasible.

        Classic RHS ranging: perturbing row ``i``'s right-hand side by
        ``delta`` moves the basic solution by ``delta * B^{-1} e_i``;
        the basis stays optimal while all basic values remain
        non-negative. ``B^{-1}`` is the identity block of the canonical
        final tableau, so all rows range in one vectorized pass. Within
        the returned interval every dual — for the DC-OPF, every LMP —
        is provably unchanged.
        """
        T = state.T
        m = T.shape[0]
        n = state.n_structural
        U = T[:, n : n + m]  # column i = B^{-1} e_i
        x_b = T[:, -1]
        pos = U > self.tol
        neg = U < -self.tol
        with np.errstate(divide="ignore", invalid="ignore"):
            R = np.where(pos | neg, -x_b[:, None] / U, np.nan)
        lo = np.where(pos, R, -_INF).max(axis=0)
        hi = np.where(neg, R, _INF).min(axis=0)
        return np.column_stack([lo, hi])

    # -- recovery -------------------------------------------------------------------

    def _recover(self, prep: _Prepared, y: np.ndarray, sf: StandardForm) -> np.ndarray:
        x = prep.shift + y[prep.pos_col]
        split = prep.neg_col >= 0
        if split.any():
            x[split] -= y[prep.neg_col[split]]
        # Snap values within tolerance onto their bounds. Vertex solutions
        # put variables exactly at bounds in exact arithmetic; the float
        # epsilon left by the shift/split arithmetic must not leak into
        # discrete downstream consumers (a 1e-8 rps "dispatch" would
        # still provision a server).
        snap = self.tol * np.maximum(1.0, np.abs(x))
        at_lb = np.isfinite(sf.lb) & (np.abs(x - sf.lb) <= snap)
        x[at_lb] = sf.lb[at_lb]
        at_ub = np.isfinite(sf.ub) & (np.abs(x - sf.ub) <= snap) & ~at_lb
        x[at_ub] = sf.ub[at_ub]
        return x
