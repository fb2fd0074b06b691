"""Unit tests for the pure-NumPy two-phase simplex (`repro.solver.simplex`)."""

import numpy as np
import pytest

from repro.solver import Model, SimplexSolver, SolveStatus
from repro.solver.model import StandardForm


def _sf(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, lb=None, ub=None):
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
    return StandardForm(c, A_ub, b_ub, A_eq, b_eq, lb, ub, np.zeros(n, dtype=bool))


class TestBasicLPs:
    def test_textbook_max(self):
        # max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 (Dantzig's example); opt 36.
        sf = _sf(
            c=[-3, -5],
            A_ub=[[1, 0], [0, 2], [3, 2]],
            b_ub=[4, 12, 18],
        )
        r = SimplexSolver().solve(sf)
        assert r.ok
        assert r.objective == pytest.approx(-36.0)
        assert r.x == pytest.approx([2.0, 6.0])

    def test_equality_only(self):
        sf = _sf(c=[1, 2], A_eq=[[1, 1]], b_eq=[4])
        r = SimplexSolver().solve(sf)
        assert r.objective == pytest.approx(4.0)
        assert r.x == pytest.approx([4.0, 0.0])

    def test_negative_rhs_rows(self):
        # x - y <= -2 with min x -> x=0, y>=2 must hold via flipped row.
        sf = _sf(c=[1, 0], A_ub=[[1, -1]], b_ub=[-2], ub=[10, 10])
        r = SimplexSolver().solve(sf)
        assert r.ok
        assert r.objective == pytest.approx(0.0)
        assert r.x[1] - r.x[0] >= 2 - 1e-8

    def test_infeasible(self):
        sf = _sf(c=[1], A_eq=[[1]], b_eq=[5], ub=[2])
        r = SimplexSolver().solve(sf)
        assert r.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        sf = _sf(c=[-1])  # min -x, x >= 0 unbounded
        r = SimplexSolver().solve(sf)
        assert r.status is SolveStatus.UNBOUNDED

    def test_degenerate_problem_terminates(self):
        # Klee-Minty-flavoured degenerate cube, small size.
        n = 4
        A = np.zeros((n, n))
        b = np.zeros(n)
        for i in range(n):
            A[i, i] = 1.0
            for j in range(i):
                A[i, j] = 2.0 ** (i - j + 1)
            b[i] = 5.0 ** (i + 1)
        sf = _sf(c=-(2.0 ** np.arange(n - 1, -1, -1)), A_ub=A, b_ub=b)
        r = SimplexSolver().solve(sf)
        assert r.ok
        assert r.objective == pytest.approx(-(5.0 ** n))


class TestBounds:
    def test_lower_bound_shift(self):
        sf = _sf(c=[1.0], lb=[3.0])
        r = SimplexSolver().solve(sf)
        assert r.objective == pytest.approx(3.0)

    def test_upper_bound_binding(self):
        sf = _sf(c=[-1.0], ub=[7.5])
        r = SimplexSolver().solve(sf)
        assert r.objective == pytest.approx(-7.5)

    def test_free_variable_negative_optimum(self):
        sf = _sf(c=[1.0], A_ub=[[-1.0]], b_ub=[4.0], lb=[-np.inf])
        r = SimplexSolver().solve(sf)
        assert r.objective == pytest.approx(-4.0)

    def test_free_variable_with_upper_bound(self):
        sf = _sf(c=[-1.0], lb=[-np.inf], ub=[2.0])
        r = SimplexSolver().solve(sf)
        assert r.objective == pytest.approx(-2.0)

    def test_negative_lower_bound(self):
        sf = _sf(c=[1.0], lb=[-5.0], ub=[5.0])
        r = SimplexSolver().solve(sf)
        assert r.objective == pytest.approx(-5.0)

    def test_fixed_variable(self):
        sf = _sf(c=[1.0, 1.0], lb=[2.0, 0.0], ub=[2.0, 1.0], A_ub=[[1, 1]], b_ub=[3])
        r = SimplexSolver().solve(sf)
        assert r.ok
        assert r.x[0] == pytest.approx(2.0)


class TestDuals:
    def test_duals_match_scipy_on_model(self):
        m = Model()
        x = m.var("x", lb=0)
        y = m.var("y", lb=0)
        m.add(x + y == 10)
        m.add(x <= 4)
        m.minimize(2 * x + 5 * y)
        r_sp = m.solve()
        r_sx = m.solve(backend="simplex")
        assert r_sx.objective == pytest.approx(r_sp.objective)
        assert r_sx.duals_eq == pytest.approx(r_sp.duals_eq)
        assert r_sx.duals_ub == pytest.approx(r_sp.duals_ub)

    def test_dual_is_rhs_sensitivity(self):
        # Perturb the equality rhs and confirm the dual predicts the change.
        def solve(rhs):
            m = Model()
            x = m.var("x", lb=0, ub=6)
            y = m.var("y", lb=0, ub=20)
            m.add(x + y == rhs)
            m.minimize(1 * x + 3 * y)
            return m.solve(backend="simplex")

        base = solve(10.0)
        bumped = solve(10.5)
        predicted = base.objective + 0.5 * base.duals_eq[0]
        assert bumped.objective == pytest.approx(predicted)

    def test_nonbinding_constraint_zero_dual(self):
        m = Model()
        x = m.var("x", lb=0, ub=1)
        m.add(x <= 100)  # never binding
        m.minimize(x)
        r = m.solve(backend="simplex")
        assert r.duals_ub[0] == pytest.approx(0.0)


class TestRandomizedAgainstScipy:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_feasible_lps(self, seed):
        rng = np.random.default_rng(seed)
        n, m_rows = 6, 4
        A = rng.normal(size=(m_rows, n))
        x_feas = rng.uniform(0.5, 2.0, size=n)
        b = A @ x_feas + rng.uniform(0.1, 1.0, size=m_rows)
        c = rng.normal(size=n)
        ub = np.full(n, 10.0)
        sf = _sf(c=c, A_ub=A, b_ub=b, ub=ub)

        from repro.solver import ScipyLpBackend

        r_sx = SimplexSolver().solve(sf)
        r_sp = ScipyLpBackend().solve(sf)
        assert r_sx.status == r_sp.status
        if r_sp.ok:
            assert r_sx.objective == pytest.approx(r_sp.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_lps_with_equalities(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 5
        A_eq = rng.normal(size=(2, n))
        x_feas = rng.uniform(0.0, 3.0, size=n)
        b_eq = A_eq @ x_feas
        c = rng.normal(size=n)
        sf = _sf(c=c, A_eq=A_eq, b_eq=b_eq, ub=np.full(n, 5.0))

        from repro.solver import ScipyLpBackend

        r_sx = SimplexSolver().solve(sf)
        r_sp = ScipyLpBackend().solve(sf)
        assert r_sx.status == r_sp.status
        if r_sp.ok:
            assert r_sx.objective == pytest.approx(r_sp.objective, abs=1e-6)


class TestInfiniteRhs:
    """An infinite right-hand side never reaches the tableau: a ``+inf``
    row is dropped with dual 0, a ``-inf`` row proves infeasibility."""

    BASE = dict(
        c=[1.0, 2.0], A_eq=[[1.0, -1.0]], b_eq=[1.0], ub=[10.0, np.inf]
    )

    def test_plus_inf_rows_change_no_byte(self):
        ref = SimplexSolver().solve(
            _sf(A_ub=[[-1.0, -1.0]], b_ub=[-3.0], **self.BASE), ranging=True
        )
        with np.errstate(all="raise"):
            res = SimplexSolver().solve(_sf(
                A_ub=[[5.0, 7.0], [-1.0, -1.0], [1.0, 0.0]],
                b_ub=[np.inf, -3.0, np.inf],
                **self.BASE,
            ), ranging=True)
        assert res.status is SolveStatus.OPTIMAL
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.objective == ref.objective
        assert res.duals_ub.tolist() == [0.0, ref.duals_ub[0], 0.0]
        assert res.duals_eq.tobytes() == ref.duals_eq.tobytes()
        assert res.rhs_range_ub[1].tobytes() == ref.rhs_range_ub[0].tobytes()
        assert res.rhs_range_ub[[0, 2]].tolist() == [[-np.inf, np.inf]] * 2
        assert res.rhs_range_eq.tobytes() == ref.rhs_range_eq.tobytes()

    @pytest.mark.parametrize("A_eq, b_eq", [(None, None), ([[1.0, -1.0]], [1.0])])
    def test_minus_inf_row_beside_a_plus_inf_row(self, A_eq, b_eq):
        # min x + 2y s.t. x + y <= inf, y <= -inf: once a NaN phase-1
        # objective, read as feasible.
        sf = _sf(
            c=[1.0, 2.0], A_ub=[[1.0, 1.0], [0.0, 1.0]],
            b_ub=[np.inf, -np.inf], A_eq=A_eq, b_eq=b_eq,
        )
        with np.errstate(all="raise"):
            res, warm = SimplexSolver().solve_warm(sf)
        assert res.status is SolveStatus.INFEASIBLE
        assert warm is None

    def test_infinite_equality_is_infeasible(self):
        res = SimplexSolver().solve(_sf(c=[1.0], A_eq=[[1.0]], b_eq=[np.inf]))
        assert res.status is SolveStatus.INFEASIBLE

    def test_dropped_rows_export_no_warm_token(self):
        res, warm = SimplexSolver().solve_warm(_sf(
            A_ub=[[-1.0, -1.0], [1.0, 1.0]], b_ub=[-3.0, np.inf], **self.BASE
        ))
        assert res.status is SolveStatus.OPTIMAL and warm is None
