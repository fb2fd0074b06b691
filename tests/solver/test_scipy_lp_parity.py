"""`ScipyLpBackend` against ``scipy.optimize.linprog(method="highs")``.

The backend calls SciPy's HiGHS bindings directly, with the options,
input checks, status map and post-solve check ``linprog`` applies. The
reference below is the ``linprog`` call the backend made before; both
must agree on status and, at an optimum, on the bytes of ``x``, both
dual vectors, the objective and the iteration count.

Covered: seeded random LPs (even seeds integer data, odd seeds real;
inequality, equality and dropped ``+inf`` rows; zero, negative, free
and boxed bounds) reaching optimal, infeasible and unbounded outcomes,
and every DC-OPF LP of the pinned closed-loop runs. A row with
``b_ub = -inf`` is the one deliberate difference: the old path dropped
it and solved without it, the backend reports ``INFEASIBLE`` (see
``test_scipy_lp_backend.py``), so no LP here has one.
"""

import importlib.util
import pathlib
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.solver import ScipyLpBackend, SolveStatus
from repro.solver.model import StandardForm

_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def _linprog_reference(sf: StandardForm):
    """The backend's former body: ``linprog`` with infinite rows dropped."""
    finite_rows = np.isfinite(sf.b_ub)
    A_ub, b_ub = sf.A_ub[finite_rows], sf.b_ub[finite_rows]
    res = linprog(
        sf.c,
        A_ub=A_ub if A_ub.size else None,
        b_ub=b_ub if A_ub.size else None,
        A_eq=sf.A_eq if sf.A_eq.size else None,
        b_eq=sf.b_eq if sf.A_eq.size else None,
        bounds=np.column_stack([sf.lb, sf.ub]),
        method="highs",
    )
    status = _LINPROG_STATUS.get(res.status, SolveStatus.ERROR)
    if status is not SolveStatus.OPTIMAL:
        return status, None
    duals_eq = np.asarray(res.eqlin.marginals) if sf.A_eq.size else np.empty(0)
    duals_ub = np.zeros(sf.A_ub.shape[0])
    if A_ub.size:
        duals_ub[finite_rows] = np.asarray(res.ineqlin.marginals)
    return status, (np.asarray(res.x), duals_eq, duals_ub, float(res.fun), int(res.nit))


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_same(sf: StandardForm, label: str) -> SolveStatus:
    want_status, want = _linprog_reference(sf)
    got = ScipyLpBackend().solve(sf)
    assert got.status is want_status, label
    if want is None:
        return want_status
    x, duals_eq, duals_ub, objective, iterations = want
    assert _bits(got.x) == _bits(x), f"{label}: x"
    assert _bits(got.duals_eq) == _bits(duals_eq), f"{label}: duals_eq"
    assert _bits(got.duals_ub) == _bits(duals_ub), f"{label}: duals_ub"
    assert _bits(got.objective) == _bits(objective), f"{label}: objective"
    assert got.iterations == iterations, f"{label}: iterations"
    return want_status


def _random_lp(seed: int) -> StandardForm:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m_ub, m_eq = int(rng.integers(0, 7)), int(rng.integers(0, 4))
    if seed % 2 == 0:
        c = rng.integers(-5, 6, n).astype(float)
        A = rng.integers(-3, 4, (m_ub + m_eq, n)).astype(float)
        b = rng.integers(-4, 10, m_ub + m_eq).astype(float)
    else:
        c = rng.normal(size=n)
        A = rng.normal(size=(m_ub + m_eq, n))
        b = rng.normal(1.0, 3.0, m_ub + m_eq)
    A[rng.random(A.shape) < 0.3] = 0.0
    b_ub = b[:m_ub]
    b_ub[rng.random(m_ub) < 0.15] = np.inf
    lb = rng.choice([0.0, 0.0, -2.0, -np.inf], n)
    ub = np.where(rng.random(n) < 0.5, np.inf, lb + rng.integers(0, 6, n))
    ub[np.isinf(lb) & np.isinf(ub)] = np.inf
    return StandardForm(
        c, A[:m_ub], b_ub, A[m_ub:], b[m_ub:], lb, ub, np.zeros(n, dtype=bool)
    )


def test_random_lps_match_linprog():
    outcomes = Counter(
        _assert_same(_random_lp(seed), f"seed {seed}") for seed in range(600)
    )
    # Every outcome the status map turns into a result is reached.
    for status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED):
        assert outcomes[status] >= 50, outcomes


def _closed_loop_gen():
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "fixtures" / "closedloop" / "gen_fixtures.py"
    )
    spec = importlib.util.spec_from_file_location("closedloop_gen_fixtures", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("case", ["paper_world", "contingency"])
def test_closed_loop_dcopf_lps_match_linprog(case, monkeypatch):
    solved = []
    solve = ScipyLpBackend.solve

    def recording(self, sf):
        solved.append(sf)
        return solve(self, sf)

    monkeypatch.setattr(ScipyLpBackend, "solve", recording)
    _closed_loop_gen().run_case(case)
    monkeypatch.undo()
    assert len(solved) >= 20
    for k, sf in enumerate(solved):
        assert _assert_same(sf, f"{case} LP {k}") is SolveStatus.OPTIMAL
