"""The dense simplex against a reference copy of its earlier pivot loop.

``ReferenceSimplex`` carries the pivot loops (``_optimize``,
``_dual_optimize``, ``_pivot``) as they were before the loops kept their
work arrays across pivots: one masked pricing row, one ratio array and
one column copy allocated per pivot. The rewrite promises the same
floating-point operations in the same order, so every comparison here
is exact: status, iteration count and basis are equal, and ``x``, the
duals and the final tableau have the same bytes.

The LPs cover what the loops branch on: equality rows, negative
right-hand sides (flipped rows), degenerate ratio ties, infeasible and
unbounded problems, Bland's rule from the first pivot or after three,
the iteration limit, both warm-start tiers, and the branch-and-bound
MILPs that a demand-tariff run solves with cold node LPs.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg.blas import dger as _dger

from repro.solver import BranchBoundSolver, SimplexSolver, SolveStatus
from repro.solver.model import StandardForm
from repro.telemetry import get_telemetry

_INF = float("inf")
_REPRICE_EVERY = 64


class ReferenceSimplex(SimplexSolver):
    """``SimplexSolver`` with its earlier pivot loops, kept verbatim."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dual_calls = 0

    def _dual_optimize(self, T, basis, c, allow, feas_tol):
        """Dual simplex pivots: restore primal feasibility, keep optimality.

        The entering-column ratio test preserves dual feasibility
        (reduced costs stay non-negative); no eligible column in a
        violated row proves primal infeasibility.
        """
        self.dual_calls += 1
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


class _Recorder:
    """Mixin that fingerprints every cold solve's full two-phase output."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs: list[tuple] = []

    def _two_phase(self, prep):
        out = super()._two_phase(prep)
        self.runs.append(_fingerprint(out))
        return out


class RecordingSimplex(_Recorder, SimplexSolver):
    pass


class RecordingReference(_Recorder, ReferenceSimplex):
    pass


def _bytes(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _fingerprint(two_phase_out) -> tuple:
    """Status, iterations, y, duals, final tableau and basis, as bytes."""
    status, y, duals, iters, state = two_phase_out
    tableau = None if state is None else (
        _bytes(state.T), _bytes(state.basis), state.export_ok
    )
    return status, iters, _bytes(y), _bytes(duals), tableau


def _result_key(res) -> tuple:
    return (
        res.status, res.iterations, np.float64(res.objective).tobytes(),
        _bytes(res.x), _bytes(res.duals_eq), _bytes(res.duals_ub),
    )


def _warm_key(warm) -> tuple | None:
    return None if warm is None else (_bytes(warm.T), _bytes(warm.basis))


def _sf(c, A_ub, b_ub, A_eq, b_eq, lb, ub) -> StandardForm:
    n = len(c)
    return StandardForm(
        np.asarray(c, dtype=float),
        np.asarray(A_ub, dtype=float).reshape(-1, n),
        np.asarray(b_ub, dtype=float),
        np.asarray(A_eq, dtype=float).reshape(-1, n),
        np.asarray(b_eq, dtype=float),
        np.asarray(lb, dtype=float),
        np.asarray(ub, dtype=float),
        np.zeros(n, dtype=bool),
    )


def _random_lp(seed: int) -> StandardForm:
    """A small LP; even seeds use integer data, so ratio ties are common.

    Right-hand sides take both signs (flipped rows), some variables are
    free or have a negative or finite bound, and some seeds are
    infeasible or unbounded.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m_ub = int(rng.integers(1, 7))
    m_eq = int(rng.integers(0, 3))
    if seed % 2 == 0:
        A_ub = rng.integers(-2, 4, size=(m_ub, n))
        b_ub = rng.integers(-3, 7, size=m_ub)
        A_eq = rng.integers(-1, 3, size=(m_eq, n))
        b_eq = rng.integers(-2, 4, size=m_eq)
        c = rng.integers(-4, 4, size=n)
    else:
        A_ub = rng.normal(size=(m_ub, n))
        b_ub = rng.normal(1.0, 2.0, size=m_ub)
        A_eq = rng.normal(size=(m_eq, n))
        b_eq = rng.normal(size=m_eq)
        c = rng.normal(size=n)
    kind = rng.random(n)
    lb = np.where(kind < 0.15, -_INF, np.where(kind < 0.3, -1.0, 0.0))
    ub = np.where(rng.random(n) < 0.5, 3.0, _INF)
    return _sf(c, A_ub, b_ub, A_eq, b_eq, lb, ub)


def _assert_same_cold(sf: StandardForm, **params) -> tuple[SolveStatus, int]:
    """Solve ``sf`` cold with both loops; return the status and pivots."""
    new, ref = RecordingSimplex(**params), RecordingReference(**params)
    assert _result_key(new.solve(sf)) == _result_key(ref.solve(sf))
    assert len(ref.runs) == 1 and new.runs == ref.runs
    status, iters = ref.runs[0][:2]
    return status, iters


SEEDS = range(120)


class TestColdSolves:
    @pytest.mark.parametrize(
        "params",
        [{}, {"bland_after": 0}, {"bland_after": 3}],
        ids=["dantzig", "bland-after-0", "bland-after-3"],
    )
    def test_random_lps_match_reference(self, params):
        statuses = set()
        for seed in SEEDS:
            status, _ = _assert_same_cold(_random_lp(seed), **params)
            statuses.add(status)
        # The population reaches every outcome the loops can return.
        assert {
            SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED
        } <= statuses

    def test_iteration_limit_matches_reference(self):
        limited = 0
        for seed in SEEDS:
            status, iters = _assert_same_cold(_random_lp(seed), max_iters=2)
            limited += status is SolveStatus.ITERATION_LIMIT
        assert limited > 0

    def test_degenerate_ties_match_reference(self):
        """Exact ratio ties: the first minimum leaves, in both loops."""
        # Three rows tie at ratio 0 for every column; the vertex is
        # degenerate and the leaving row is decided by the tie rule.
        sf = _sf(
            c=[-1.0, -1.0, -1.0],
            A_ub=[[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
            b_ub=[0.0, 0.0, 0.0, 1.0],
            A_eq=np.zeros((0, 3)), b_eq=[],
            lb=[0.0, 0.0, 0.0], ub=[_INF, _INF, _INF],
        )
        _assert_same_cold(sf)
        _assert_same_cold(sf, bland_after=0)

    def test_dispatch_sized_lp_matches_reference(self):
        """A dense 60-row LP whose phases run past a full re-price."""
        rng = np.random.default_rng(7)
        n, m = 80, 60
        A = rng.uniform(0.0, 1.0, size=(m, n))
        x0 = rng.uniform(0.0, 1.0, size=n)
        b = A @ x0 + rng.uniform(0.0, 0.5, size=m)
        b[:5] = -0.1  # flipped rows force a phase 1
        A[:5] = -A[:5]
        sf = _sf(-rng.uniform(0.5, 1.5, size=n), A, b,
                 np.ones((1, n)), [x0.sum()], np.zeros(n), np.full(n, 2.0))
        status, _ = _assert_same_cold(sf)
        assert status is SolveStatus.OPTIMAL

        pivots = []

        class Counting(SimplexSolver):
            def _optimize(self, *args, **kwargs):
                out = super()._optimize(*args, **kwargs)
                pivots.append(out[1])
                return out

        Counting().solve(sf)
        assert max(pivots) > _REPRICE_EVERY  # a full re-price ran


def _children(sf: StandardForm, x: np.ndarray, rng) -> list[StandardForm]:
    """Bound-tightened children sharing ``sf``'s arrays (B&B nodes)."""
    out = []
    for _ in range(4):
        j = int(rng.integers(sf.n_vars))
        lb, ub = sf.lb.copy(), sf.ub.copy()
        if rng.random() < 0.5:
            ub[j] = max(np.floor(x[j]), lb[j])
        else:
            lb[j] = min(np.ceil(x[j] + 0.25), ub[j])
        out.append(StandardForm(
            sf.c, sf.A_ub, sf.b_ub, sf.A_eq, sf.b_eq, lb, ub, sf.integrality
        ))
    return out


def _warm_lp(seed: int) -> StandardForm:
    """A bounded, feasible LP whose children move the optimum."""
    rng = np.random.default_rng(500 + seed)
    n, m = 8, 6
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.5, 2.0, size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    return _sf(rng.normal(size=n), A, b, np.zeros((0, n)), [],
               np.zeros(n), np.full(n, 4.0))


class TestWarmSolves:
    @pytest.mark.parametrize("params", [{}, {"bland_after": 0}],
                             ids=["dantzig", "bland-after-0"])
    def test_same_structure_tier_matches_reference(self, params):
        """Children re-solve from the parent's tableau in place."""
        new, ref = SimplexSolver(**params), ReferenceSimplex(**params)
        for seed in range(30):
            sf = _warm_lp(seed)
            got, warm_n = new.solve_warm(sf)
            want, warm_r = ref.solve_warm(sf)
            assert _result_key(got) == _result_key(want)
            assert _warm_key(warm_n) == _warm_key(warm_r)
            if not want.ok:
                continue
            for child in _children(sf, want.x, np.random.default_rng(seed)):
                warm_n.refs = warm_r.refs = 1  # keep the parent token intact
                got, out_n = new.solve_warm(child, warm=warm_n)
                want, out_r = ref.solve_warm(child, warm=warm_r)
                assert _result_key(got) == _result_key(want)
                assert _warm_key(out_n) == _warm_key(out_r)
        assert ref.dual_calls > 0

    def test_reexpanded_structure_tier_matches_reference(self):
        """A token from LPs whose coefficients have moved is refactorized."""
        new, ref = SimplexSolver(), ReferenceSimplex()
        for seed in range(30):
            sf = _warm_lp(seed)
            _, warm_n = new.solve_warm(sf)
            _, warm_r = ref.solve_warm(sf)
            rng = np.random.default_rng(900 + seed)
            moved = StandardForm(
                sf.c + rng.normal(0.0, 0.05, sf.n_vars),
                sf.A_ub * rng.uniform(0.9, 1.1, sf.A_ub.shape),
                sf.b_ub - rng.uniform(0.0, 1.5, sf.b_ub.size),
                sf.A_eq, sf.b_eq, sf.lb, sf.ub, sf.integrality,
            )
            got, out_n = new.solve_warm(moved, warm=warm_n)
            want, out_r = ref.solve_warm(moved, warm=warm_r)
            assert _result_key(got) == _result_key(want)
            assert _warm_key(out_n) == _warm_key(out_r)
        assert ref.dual_calls > 0


@pytest.fixture(scope="module")
def demand_tariff_milps() -> list[StandardForm]:
    """Every MILP branch and bound solves in 48 demand-tariff hours."""
    from repro.experiments import paper_world
    from repro.sim import Engine, resolve_monthly_budget

    world = paper_world()
    engine = Engine(world.sites, world.workload, world.mix)
    budget = resolve_monthly_budget(world, 0.85, hours=48, engine=engine)
    seen: list[StandardForm] = []
    solve = BranchBoundSolver.solve

    def spy(self, sf):
        seen.append(sf)
        return solve(self, sf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BranchBoundSolver, "solve", spy)
        engine.run(
            "capping", budgeter=world.budgeter(budget), hours=48,
            tariff="energy+demand:rate=0.5,cycle=24",
        )
    return seen


class TestBranchAndBound:
    def test_peak_hour_milps_match_reference(self, demand_tariff_milps):
        """Cold node LPs, as peak-active throughput-max hours solve them."""
        assert len(demand_tariff_milps) >= 10
        new, ref = RecordingSimplex(), RecordingReference()
        bb_new = BranchBoundSolver(lp_solver=new, warm_start=False)
        bb_ref = BranchBoundSolver(lp_solver=ref, warm_start=False)
        for sf in demand_tariff_milps:
            assert _result_key(bb_new.solve(sf)) == _result_key(bb_ref.solve(sf))
        assert new.runs == ref.runs
        assert len(ref.runs) > len(demand_tariff_milps)  # the trees branched

    def test_warm_node_milps_match_reference(self, demand_tariff_milps):
        """The same MILPs with warm node LPs (the dual simplex path)."""
        new, ref = SimplexSolver(), ReferenceSimplex()
        bb_new = BranchBoundSolver(lp_solver=new, warm_start=True)
        bb_ref = BranchBoundSolver(lp_solver=ref, warm_start=True)
        for sf in demand_tariff_milps:
            assert _result_key(bb_new.solve(sf)) == _result_key(bb_ref.solve(sf))
        assert ref.dual_calls > 0


class TestTableauLayout:
    """Every tableau is C-ordered, so ``dger`` updates it in place.

    ``dger`` writes through ``T.T``, which is F-ordered only when ``T``
    is C-ordered; on any other layout it would update a copy and leave
    the tableau untouched.
    """

    # min x1 + 2 x2 subject to x1 + x2 >= 1: the row's right-hand side
    # is negative, so the cold tableau gets an extra artificial column.
    COVER = _sf([1.0, 2.0], [[-1.0, -1.0]], [-1.0], np.zeros((0, 2)), [],
                [0.0, 0.0], [_INF, _INF])

    def test_cold_tableau(self):
        solver = SimplexSolver()
        status, *_, state = solver._two_phase(solver._reduce_bounds(self.COVER))
        assert status is SolveStatus.OPTIMAL
        assert state.T.shape[1] > 2 + 1 + 1  # the extra artificial column
        assert state.T.flags.c_contiguous

    def test_exported_token_drops_extra_columns_in_c_order(self):
        _, token = SimplexSolver().solve_warm(self.COVER)
        assert token.T.shape == (1, 2 + 1 + 1)
        assert token.T.flags.c_contiguous

    def test_refactorized_tableau(self):
        solver = SimplexSolver()
        sf = _warm_lp(0)
        _, warm = solver.solve_warm(sf)
        moved = StandardForm(
            sf.c, sf.A_ub * 1.01, sf.b_ub, sf.A_eq, sf.b_eq, sf.lb, sf.ub,
            sf.integrality,
        )
        st = solver._structure_for(moved, get_telemetry())
        assert st is not warm.structure  # the refactorizing tier
        out = solver._warm_attempt(st, solver._prepare_from(st, moved), warm)
        assert out is not None
        assert out[4].T.flags.c_contiguous
