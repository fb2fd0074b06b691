"""The DC-OPF's compiled form and its input checks (`repro.powermarket.dcopf`).

`DcOpf` compiles its LP once per grid and patches each call's loads
into the balance rows' right-hand sides. The model path it replaced —
build a `Model` per call, compile it, solve it — is kept here as the
reference: the patched standard form must equal the model's bit for
bit, and `dispatch` must return exactly what the model path returned.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.powermarket import DcOpf, LOAD_SHARES, pjm5bus
from repro.powermarket.closedloop import get_grid, line_outage
from repro.powermarket.dcopf import DispatchResult
from repro.solver import ScipyLpBackend, SimplexSolver, SolveStatus

from .test_dcopf import _BalanceFirstOpf, _two_bus
from .test_sweep_bisection import _must_run


def model_dispatch(opf: DcOpf, loads) -> DispatchResult:
    """The per-call model path: build, compile and solve a `Model`."""
    m, gen_vars, flow_vars, balance_order = opf._build(loads)
    res = m.solve(backend=opf.backend)
    if res.status is not SolveStatus.OPTIMAL:
        return DispatchResult(False, float("nan"), {}, {}, {})
    eq_rows = opf._eq_rows(m)
    lmps = {
        bus: float(res.duals_eq[eq_rows[f"balance[{bus}]"]])
        for bus in balance_order
    }
    generation = {name: float(res.value(v)) for name, v in gen_vars.items()}
    flows = {key: float(res.value(v)) for key, v in flow_vars.items()}
    return DispatchResult(True, float(res.objective), generation, flows, lmps)


def assert_same_form(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.shape, x.dtype) == (y.shape, y.dtype), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert repr(x) == repr(y), f.name


GRIDS = {
    "pjm5bus": pjm5bus,
    "pjm5bus-D-E-out": lambda: get_grid("pjm5bus", mutate=line_outage("D-E")),
    "two-zone": lambda: get_grid("two-zone"),
    "ieee9": lambda: get_grid("ieee9"),
    "two-bus": lambda: _two_bus(limit=60.0),
    "must-run": _must_run,
}


def _load_vectors(grid):
    """Zero, absent, signed-zero and mixed loads, plus one infeasible."""
    names = [b.name for b in grid.buses]
    cap = grid.total_generation_capacity
    rng = np.random.default_rng(len(names))
    mixed = {b: float(rng.uniform(0.0, 0.5 * cap / len(names))) for b in names}
    mixed[names[0]] = 0.0
    del mixed[names[-1]]
    return [
        {},
        {b: 0.0 for b in names},
        {names[-1]: -0.0},
        mixed,
        {b: 0.3 * cap / len(names) for b in names},
        {names[-1]: 2.0 * cap},
    ]


@pytest.mark.parametrize("opf_cls", [DcOpf, _BalanceFirstOpf])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
class TestCompiledForm:
    def test_patched_form_equals_model_form(self, opf_cls, grid_name):
        opf = opf_cls(GRIDS[grid_name]())
        for loads in _load_vectors(opf.grid):
            assert_same_form(
                opf._form.standard_form(loads),
                opf._build(loads)[0].to_standard_form(),
            )

    @pytest.mark.parametrize("backend", [ScipyLpBackend, SimplexSolver])
    def test_dispatch_equals_model_path(self, opf_cls, grid_name, backend):
        opf = opf_cls(GRIDS[grid_name](), backend=backend())
        reference = opf_cls(GRIDS[grid_name](), backend=backend())
        for loads in _load_vectors(opf.grid):
            # repr spells every float exactly, -0.0 and nan included.
            assert repr(opf.dispatch(loads)) == repr(
                model_dispatch(reference, loads)
            )


class TestTemplateHoldsNoLoads:
    def test_balance_rhs_is_nan_and_arrays_read_only(self):
        opf = DcOpf(pjm5bus())
        opf.dispatch({b: 200.0 for b in ("B", "C", "D")})
        form = opf._form
        rows = list(form.balance.values())
        assert np.isnan(form.template.b_eq[rows]).all()
        with pytest.raises(ValueError):
            form.template.A_eq[0, 0] = 1.0

    def test_calls_do_not_leak_into_each_other(self):
        opf = DcOpf(pjm5bus())
        first = repr(opf.dispatch({"B": 150.0}))
        opf.dispatch({b: 300.0 for b in ("B", "C", "D")})
        assert repr(opf.dispatch({"B": 150.0})) == first


class _CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def solve(self, sf):
        self.calls += 1
        return self.inner.solve(sf)


class TestNonFiniteLoads:
    @pytest.mark.parametrize("backend", [ScipyLpBackend, SimplexSolver])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dispatch_rejects_before_any_lp(self, backend, bad):
        counting = _CountingBackend(backend())
        opf = DcOpf(_two_bus(), backend=counting)
        with pytest.raises(ValueError, match="non-finite load .* at bus 'Y'"):
            opf.dispatch({"X": 10.0, "Y": bad})
        assert counting.calls == 0

    def test_headroom_rejects_nan(self):
        with pytest.raises(ValueError, match="bus 'Y'"):
            DcOpf(_two_bus()).load_growth_headroom({"Y": math.nan}, "Y")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sweep_rejects_non_finite_system_load(self, bad):
        opf = DcOpf(pjm5bus())
        with pytest.raises(ValueError, match="non-finite"):
            opf.lmp_sweep(LOAD_SHARES, np.array([100.0, bad, 300.0]))
