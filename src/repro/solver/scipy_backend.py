"""SciPy (HiGHS) backends behind the :class:`~repro.solver.model.Model` API.

Two entry points:

* :class:`ScipyLpBackend` — solves LPs with the HiGHS bindings SciPy
  ships (``scipy.optimize._highspy._core``, what
  :func:`scipy.optimize.linprog` itself calls) and ignores
  integrality: the LP engine inside branch & bound, and the engine for
  pure LPs such as the DC-OPF, whose row duals are LMPs.
* :class:`ScipyBackend` — the default full backend: dispatches to
  :func:`scipy.optimize.milp` when the model has integer variables and
  to :class:`ScipyLpBackend` otherwise.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import tempfile
import time

import numpy as np
import scipy.optimize._highspy._core as _highs
from scipy import optimize as sciopt

from ..telemetry import get_telemetry
from ..telemetry.instrument import record_solver_result
from .model import StandardForm
from .result import SolveResult, SolveStatus

__all__ = ["ScipyLpBackend", "ScipyBackend"]


@contextlib.contextmanager
def _silence_native_stdout():
    """Suppress stdout writes from native code (HiGHS debug prints).

    Some HiGHS builds print ``HighsMipSolverData::transformNewInteger
    FeasibleSolution tmpSolver.run();`` straight to fd 1, bypassing
    ``sys.stdout``; redirecting the fd is the only way to keep solver
    runs quiet. Restores the fd even on exceptions. Falls back to a
    no-op when fd 1 is not duplicable (exotic embedding).
    """
    try:
        sys.stdout.flush()
        saved_fd = os.dup(1)
    except (OSError, ValueError):  # pragma: no cover - exotic runtimes
        yield
        return
    try:
        with tempfile.TemporaryFile() as sink:
            os.dup2(sink.fileno(), 1)
            try:
                yield
            finally:
                os.dup2(saved_fd, 1)
    finally:
        os.close(saved_fd)

_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def _bounds(sf: StandardForm):
    return sciopt.Bounds(sf.lb, sf.ub)


def _constraints(sf: StandardForm):
    cons = []
    if sf.A_ub.size:
        cons.append(sciopt.LinearConstraint(sf.A_ub, -np.inf, sf.b_ub))
    if sf.A_eq.size:
        cons.append(sciopt.LinearConstraint(sf.A_eq, sf.b_eq, sf.b_eq))
    return cons


def _lp_options():
    """HiGHS options as ``linprog`` sets them for ``method="highs"``.

    Presolve on, dual simplex, no debug checks, no output; everything
    else at HiGHS's defaults. ``passOptions`` copies the object into
    each solver, so one instance serves the whole process.
    """
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = False
    opts.log_to_console = False
    return opts


_LP_OPTIONS = _lp_options()

# linprog's map from HiGHS model status to its own; any other status
# (``kUnboundedOrInfeasible`` included) is an error.
_HIGHS_STATUS = {
    _highs.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    _highs.HighsModelStatus.kTimeLimit: SolveStatus.ITERATION_LIMIT,
    _highs.HighsModelStatus.kIterationLimit: SolveStatus.ITERATION_LIMIT,
    _highs.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    _highs.HighsModelStatus.kModelError: SolveStatus.INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}

# linprog's post-solve tolerance: sqrt(tol) * 10 at its default tol 1e-9.
_CHECK_TOL = np.sqrt(1e-9) * 10


class ScipyLpBackend:
    """LP-only backend over SciPy's HiGHS bindings; integrality is ignored.

    Calls HiGHS as ``linprog`` with ``method="highs"`` does, without its
    per-call option parsing, and keeps what ``linprog`` checks around
    the call. Before HiGHS runs: non-finite data raises ``ValueError``
    (HiGHS answers "optimal" for a NaN cost), and a column with
    ``lb = +inf`` or ``ub = -inf`` or a row with ``b_ub = -inf`` is
    infeasible (HiGHS rejects such a column, and a rejected model must
    never run). After: ``linprog``'s status map and its check that an
    optimum keeps its bounds and rows. Each solve builds a fresh HiGHS
    instance, so no solver state outlives a solve. Exposes equality and
    inequality dual marginals, which :mod:`repro.powermarket.dcopf`
    uses to compute LMPs.
    """

    name = "scipy-linprog"

    def solve(self, sf: StandardForm) -> SolveResult:
        tel = get_telemetry()
        if not tel.enabled:
            return self._solve_impl(sf)
        t0 = time.perf_counter()
        res = self._solve_impl(sf)
        record_solver_result(
            tel, self.name, res.status.value, res.iterations,
            time.perf_counter() - t0,
        )
        return res

    def _failed(self, status: SolveStatus, message: str) -> SolveResult:
        return SolveResult(status=status, backend=self.name, message=message)

    def _solve_impl(self, sf: StandardForm) -> SolveResult:
        n = sf.c.shape[0]
        if n == 0:
            raise ValueError("an LP needs at least one variable")
        # A row with b_ub = +inf never binds: it is dropped, and its
        # dual is 0.
        kept = sf.b_ub != np.inf
        A_ub, b_ub = sf.A_ub[kept], sf.b_ub[kept]
        A = np.concatenate((A_ub, sf.A_eq))
        if not (
            np.isfinite(sf.c).all()
            and np.isfinite(A).all()
            and np.isfinite(sf.b_eq).all()
        ) or np.isnan(b_ub).any():
            raise ValueError(
                "LP c, A_ub, A_eq and b_eq must be finite, and b_ub not nan"
            )
        # fmax/fmin read a NaN bound as no bound, as linprog does.
        lb, ub = np.fmax(sf.lb, -np.inf), np.fmin(sf.ub, np.inf)
        if (b_ub == -np.inf).any() or (lb == np.inf).any() or (ub == -np.inf).any():
            return self._failed(
                SolveStatus.INFEASIBLE, "a row or column bound admits no value"
            )

        m_ub = b_ub.shape[0]
        # Column-wise (CSC) storage of A, as HiGHS takes it.
        AT = A.T
        nonzero = AT != 0
        start = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(nonzero.sum(axis=1), out=start[1:])
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = np.nonzero(nonzero)[1].astype(np.int32)
        lp.a_matrix_.value_ = AT[nonzero]
        lp.col_cost_ = sf.c
        lp.col_lower_ = lb
        lp.col_upper_ = ub
        lp.row_lower_ = np.concatenate((np.full(m_ub, -np.inf), sf.b_eq))
        lp.row_upper_ = np.concatenate((b_ub, sf.b_eq))

        highs = _highs._Highs()
        highs.passOptions(_LP_OPTIONS)
        if highs.passModel(lp) == _highs.HighsStatus.kError:
            return self._failed(SolveStatus.INFEASIBLE, "HiGHS rejected the model")
        run_ok = highs.run() != _highs.HighsStatus.kError
        model_status = highs.getModelStatus()
        status = _HIGHS_STATUS.get(model_status, SolveStatus.ERROR)
        if status is not SolveStatus.OPTIMAL or not run_ok:
            # A failed run has no solution: "optimal" then is an error.
            if status is SolveStatus.OPTIMAL:
                status = SolveStatus.ERROR
            return self._failed(status, highs.modelStatusToString(model_status))

        info = highs.getInfo()
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        row = np.array(solution.row_value)
        dual = np.array(solution.row_dual)
        objective = info.objective_function_value
        # linprog's post-solve check. A NaN compares false, so it fails.
        if not (
            not math.isnan(objective)
            and ((x >= lb - _CHECK_TOL) & (x <= ub + _CHECK_TOL)).all()
            and (b_ub - row[:m_ub] >= -_CHECK_TOL).all()
            and (np.abs(sf.b_eq - row[m_ub:]) <= _CHECK_TOL).all()
        ):
            return self._failed(
                SolveStatus.ERROR,
                f"HiGHS's optimum is off a bound or row by more than {_CHECK_TOL:.2e}",
            )
        duals_ub = np.zeros(sf.A_ub.shape[0])
        duals_ub[kept] = dual[:m_ub]
        return SolveResult(
            status=status,
            objective=float(objective),
            x=x,
            duals_eq=dual[m_ub:],
            duals_ub=duals_ub,
            iterations=int(info.simplex_iteration_count or info.ipm_iteration_count),
            backend=self.name,
        )


class ScipyBackend:
    """Default backend: HiGHS MILP for integer models, LP otherwise."""

    name = "scipy"

    def __init__(self, mip_rel_gap: float = 1e-9, time_limit: float | None = None):
        self.mip_rel_gap = mip_rel_gap
        self.time_limit = time_limit

    def solve(self, sf: StandardForm) -> SolveResult:
        if not sf.has_integers:
            return ScipyLpBackend().solve(sf)
        tel = get_telemetry()
        if not tel.enabled:
            return self._solve_milp(sf)
        t0 = time.perf_counter()
        res = self._solve_milp(sf)
        record_solver_result(
            tel, self.name, res.status.value, res.iterations,
            time.perf_counter() - t0,
        )
        tel.histogram(f"solver.{self.name}.nodes").observe(res.iterations)
        if res.ok:
            tel.histogram(f"solver.{self.name}.gap").observe(res.gap)
        return res

    def _solve_milp(self, sf: StandardForm) -> SolveResult:
        options: dict = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        with _silence_native_stdout():
            res = sciopt.milp(
                sf.c,
                constraints=_constraints(sf),
                bounds=_bounds(sf),
                integrality=sf.integrality.astype(int),
                options=options,
            )
        status = _STATUS_MAP.get(res.status, SolveStatus.ERROR)
        if status is not SolveStatus.OPTIMAL:
            return SolveResult(status=status, backend=self.name, message=str(res.message))
        return SolveResult(
            status=status,
            objective=float(res.fun),
            x=np.asarray(res.x),
            # B&B nodes, where this HiGHS build exposes them.
            iterations=int(getattr(res, "mip_node_count", 0) or 0),
            gap=float(getattr(res, "mip_gap", 0.0) or 0.0),
            backend=self.name,
        )
