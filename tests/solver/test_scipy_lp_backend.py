"""Edge cases of the HiGHS LP backend (`ScipyLpBackend`).

Input validation, infeasible column bounds, dropped ``+inf`` rows and
LPs without one of the two row blocks: the contract a caller such as
:class:`~repro.powermarket.dcopf.DcOpf` or branch and bound relies on,
whatever the call into HiGHS looks like underneath. A stand-in for
HiGHS reaches the model statuses and the off-bound optimum that no
small LP produces, to pin ``linprog``'s status map and post-solve check.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize._highspy._core as _highs

from repro.solver import (
    RevisedSimplexSolver,
    ScipyLpBackend,
    SimplexSolver,
    SolveStatus,
)
from repro.solver.model import StandardForm

INF = np.inf


def _sf(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, lb=None, ub=None):
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
    ub = np.full(n, INF) if ub is None else np.asarray(ub, dtype=float)
    return StandardForm(c, A_ub, b_ub, A_eq, b_eq, lb, ub, np.zeros(n, dtype=bool))


def _base(**over):
    """min x + 2y  s.t.  x + y >= 3 (as -x - y <= -3),  x - y = 1,  0 <= x <= 10."""
    kw = dict(
        c=[1.0, 2.0],
        A_ub=[[-1.0, -1.0]],
        b_ub=[-3.0],
        A_eq=[[1.0, -1.0]],
        b_eq=[1.0],
        lb=[0.0, 0.0],
        ub=[10.0, INF],
    )
    kw.update(over)
    return _sf(**kw)


def _solve(sf):
    return ScipyLpBackend().solve(sf)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    def test_cost(self, bad):
        with pytest.raises(ValueError):
            _solve(_base(c=[bad, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    def test_inequality_matrix(self, bad):
        with pytest.raises(ValueError):
            _solve(_base(A_ub=[[-1.0, bad]]))

    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    def test_equality_matrix(self, bad):
        with pytest.raises(ValueError):
            _solve(_base(A_eq=[[bad, -1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, INF, -INF])
    def test_equality_rhs(self, bad):
        with pytest.raises(ValueError):
            _solve(_base(b_eq=[bad]))


class TestInfeasibleBounds:
    @pytest.mark.parametrize(
        "lb, ub",
        [
            ([INF, 0.0], [INF, INF]),  # lb = +inf
            ([0.0, 0.0], [-INF, INF]),  # ub = -inf
            ([-INF, 0.0], [-INF, INF]),  # the whole column at -inf
            ([2.0, 0.0], [1.0, INF]),  # lb > ub
        ],
    )
    def test_column_with_no_value_is_infeasible(self, lb, ub):
        res = _solve(_base(lb=lb, ub=ub))
        assert res.status is SolveStatus.INFEASIBLE
        assert res.x.size == 0

    def test_infeasible_rows(self):
        res = _solve(_base(A_ub=[[1.0, 1.0]], b_ub=[-1.0]))
        assert res.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        res = _solve(_sf(c=[-1.0, 1.0], A_eq=[[0.0, 1.0]], b_eq=[1.0]))
        assert res.status is SolveStatus.UNBOUNDED


class TestRows:
    def test_optimum_and_duals(self):
        res = _solve(_base())
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([2.0, 1.0])
        assert res.objective == pytest.approx(4.0)
        # Marginals: d(objective)/d(rhs), linprog's sign convention.
        assert res.duals_ub == pytest.approx([-1.5])
        assert res.duals_eq == pytest.approx([-0.5])
        assert res.backend == "scipy-linprog"

    def test_plus_inf_rows_dropped_with_zero_duals(self):
        ref = _solve(_base())
        res = _solve(_base(
            A_ub=[[5.0, 7.0], [-1.0, -1.0], [1.0, 0.0]],
            b_ub=[INF, -3.0, INF],
        ))
        assert res.status is SolveStatus.OPTIMAL
        assert res.duals_ub.shape == (3,)
        assert res.duals_ub[0] == 0.0 and res.duals_ub[2] == 0.0
        assert res.duals_ub[1] == ref.duals_ub[0]
        assert np.array_equal(res.x, ref.x)
        assert np.array_equal(res.duals_eq, ref.duals_eq)
        assert res.objective == ref.objective

    def test_only_plus_inf_rows(self):
        ref = _solve(_base(A_ub=None, b_ub=None))
        res = _solve(_base(A_ub=[[1.0, 1.0]], b_ub=[INF]))
        assert res.status is SolveStatus.OPTIMAL
        assert np.array_equal(res.duals_ub, [0.0])
        assert np.array_equal(res.x, ref.x)

    def test_non_finite_coefficients_in_a_dropped_row_are_ignored(self):
        res = _solve(_base(
            A_ub=[[-1.0, -1.0], [np.nan, 1.0]], b_ub=[-3.0, INF],
        ))
        assert res.status is SolveStatus.OPTIMAL
        assert res.duals_ub[1] == 0.0

    def test_no_inequality_rows(self):
        res = _solve(_base(A_ub=None, b_ub=None))
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([1.0, 0.0])
        assert res.objective == pytest.approx(1.0)
        assert res.duals_ub.shape == (0,)
        assert res.duals_eq.shape == (1,)

    def test_no_equality_rows(self):
        res = _solve(_base(A_eq=None, b_eq=None))
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([3.0, 0.0])
        assert res.objective == pytest.approx(3.0)
        assert res.duals_eq.shape == (0,)
        assert res.duals_ub.shape == (1,)

    def test_no_rows_at_all(self):
        res = _solve(_sf(c=[1.0, -1.0], ub=[3.0, 4.0]))
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([0.0, 4.0])
        assert res.duals_ub.shape == (0,) and res.duals_eq.shape == (0,)

    def test_fresh_solver_state_per_solve(self):
        backend = ScipyLpBackend()
        first = backend.solve(_base())
        backend.solve(_base(A_ub=[[1.0, 1.0]], b_ub=[-1.0]))  # infeasible
        again = backend.solve(_base())
        assert np.array_equal(first.x, again.x)
        assert np.array_equal(first.duals_eq, again.duals_eq)
        assert first.iterations == again.iterations


class TestMinusInfRow:
    """``a @ x <= -inf`` holds for no x: every LP engine says infeasible."""

    @pytest.mark.parametrize(
        "engine", [ScipyLpBackend, SimplexSolver, RevisedSimplexSolver]
    )
    @pytest.mark.parametrize(
        "A_ub, b_ub",
        [([[1.0, 1.0]], [-INF]), ([[-1.0, -1.0], [1.0, 1.0]], [-3.0, -INF])],
    )
    def test_engines_agree(self, engine, A_ub, b_ub):
        res = engine().solve(_base(A_ub=A_ub, b_ub=b_ub))
        assert res.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize(
        "engine", [ScipyLpBackend, SimplexSolver, RevisedSimplexSolver]
    )
    def test_beside_a_dropped_plus_inf_row(self, engine):
        res = engine().solve(_base(A_ub=[[1.0, 1.0], [0.0, 1.0]], b_ub=[INF, -INF]))
        assert res.status is SolveStatus.INFEASIBLE

    def test_nan_rhs_raises(self):
        with pytest.raises(ValueError):
            _solve(_base(A_ub=[[-1.0, -1.0], [1.0, 1.0]], b_ub=[-3.0, np.nan]))


def test_no_variables_raises():
    with pytest.raises(ValueError):
        _solve(_sf(c=[]))


class _StubHighs:
    """Stands in for HiGHS to reach outcomes no small LP produces."""

    def __init__(self, model_status, run_status=_highs.HighsStatus.kOk, x=(0.0, 0.0)):
        self.model_status, self.run_status = model_status, run_status
        self.x = list(x)

    def __call__(self):
        return self

    def passOptions(self, options):
        return _highs.HighsStatus.kOk

    def passModel(self, lp):
        return _highs.HighsStatus.kOk

    def run(self):
        return self.run_status

    def getModelStatus(self):
        return self.model_status

    def modelStatusToString(self, status):
        return str(status)

    def getInfo(self):
        return SimpleNamespace(
            objective_function_value=1.0,
            simplex_iteration_count=1,
            ipm_iteration_count=0,
        )

    def getSolution(self):
        # _base's rows at this x: A_ub @ x = -(x0 + x1), A_eq @ x = x0 - x1.
        x0, x1 = self.x
        return SimpleNamespace(
            col_value=[x0, x1],
            row_value=[-(x0 + x1), x0 - x1],
            row_dual=[0.0, 0.0],
        )


class TestStatusMap:
    """linprog's map from a HiGHS model status to a solve status."""

    @pytest.mark.parametrize(
        "model_status, expected",
        [
            (_highs.HighsModelStatus.kModelError, SolveStatus.INFEASIBLE),
            (_highs.HighsModelStatus.kInfeasible, SolveStatus.INFEASIBLE),
            (_highs.HighsModelStatus.kUnbounded, SolveStatus.UNBOUNDED),
            (_highs.HighsModelStatus.kUnboundedOrInfeasible, SolveStatus.ERROR),
            (_highs.HighsModelStatus.kIterationLimit, SolveStatus.ITERATION_LIMIT),
            (_highs.HighsModelStatus.kTimeLimit, SolveStatus.ITERATION_LIMIT),
            (_highs.HighsModelStatus.kSolveError, SolveStatus.ERROR),
            (_highs.HighsModelStatus.kModelEmpty, SolveStatus.ERROR),
        ],
    )
    def test_model_status(self, monkeypatch, model_status, expected):
        monkeypatch.setattr(_highs, "_Highs", _StubHighs(model_status))
        res = _solve(_base())
        assert res.status is expected
        assert res.x.size == 0

    def test_model_highs_rejects_is_infeasible(self):
        # |a_ij| >= 1e15 is past HiGHS's large_matrix_value: passModel
        # fails, which linprog reports as infeasible.
        res = _solve(_base(A_ub=[[1e16, -1.0]], b_ub=[-3.0]))
        assert res.status is SolveStatus.INFEASIBLE

    def test_optimal_after_a_failed_run_is_an_error(self, monkeypatch):
        stub = _StubHighs(
            _highs.HighsModelStatus.kOptimal,
            run_status=_highs.HighsStatus.kError,
            x=(2.0, 1.0),  # the true optimum: only the failed run is wrong
        )
        monkeypatch.setattr(_highs, "_Highs", stub)
        assert _solve(_base()).status is SolveStatus.ERROR

    @pytest.mark.parametrize(
        "x, expected",
        [
            ((2.0, 1.0), SolveStatus.OPTIMAL),  # the true optimum
            # The tolerance is sqrt(1e-9) * 10 = 3.16e-4.
            ((2.0, 1.0 - 1e-4), SolveStatus.OPTIMAL),  # both rows off by 1e-4
            ((10.0 + 1e-4, 9.0 + 1e-4), SolveStatus.OPTIMAL),  # x off its bound by 1e-4
            ((2.0, 1.0 - 4e-4), SolveStatus.ERROR),  # both rows off by 4e-4
            ((10.0 + 4e-4, 9.0 + 4e-4), SolveStatus.ERROR),  # x off its bound by 4e-4
            ((2.0, 0.9), SolveStatus.ERROR),  # x + y >= 3 broken
            ((2.1, 1.0), SolveStatus.ERROR),  # x - y = 1 broken
            ((np.nan, 1.0), SolveStatus.ERROR),
        ],
    )
    def test_post_solve_check(self, monkeypatch, x, expected):
        monkeypatch.setattr(
            _highs, "_Highs", _StubHighs(_highs.HighsModelStatus.kOptimal, x=x)
        )
        assert _solve(_base()).status is expected
