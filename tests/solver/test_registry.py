"""The solver-backend registry: round-trips, flags, and error surface."""

import numpy as np
import pytest

from repro.solver import (
    Model,
    available_backends,
    backend_spec,
    get_backend,
    register_backend,
)
from repro.solver.registry import BackendSpec


class TestBuiltins:
    def test_builtin_names_present(self):
        names = available_backends()
        for expected in (
            "scipy", "scipy-lp", "branch-bound", "simplex",
            "revised-simplex", "presolve", "fallback", "decomposition",
        ):
            assert expected in names
        assert list(names) == sorted(names)

    def test_capability_flags(self):
        assert backend_spec("scipy").milp
        assert not backend_spec("scipy-lp").milp
        rs = backend_spec("revised-simplex")
        assert rs.milp and rs.warm_start and rs.sparse and not rs.dispatch
        dec = backend_spec("decomposition")
        assert dec.dispatch and dec.sparse

    def test_builtin_instances_solve(self):
        # Every non-dispatch builtin must solve a tiny MILP/LP correctly.
        m = Model("t")
        x = m.var("x", ub=4.0)
        y = m.var("y", ub=3.0)
        m.add(x + y <= 5.0)
        m.maximize(2.0 * x + y)
        for name in ("scipy", "branch-bound", "simplex", "revised-simplex"):
            res = m.solve(backend=get_backend(name), raise_on_failure=True)
            assert res.objective == pytest.approx(9.0), name


class TestRoundTrip:
    def test_register_and_resolve(self):
        calls = []

        class Dummy:
            def solve(self, sf):
                calls.append(sf)

        register_backend(
            "test-dummy-rt", lambda **kw: Dummy(), milp=True,
            description="test only", replace=True,
        )
        spec = backend_spec("test-dummy-rt")
        assert isinstance(spec, BackendSpec)
        assert spec.milp and not spec.sparse
        assert isinstance(get_backend("test-dummy-rt"), Dummy)
        # Fresh instance per get_backend call.
        assert get_backend("test-dummy-rt") is not get_backend("test-dummy-rt")
        assert "test-dummy-rt" in available_backends()

    def test_factory_kwargs_forwarded(self):
        register_backend(
            "test-dummy-kw", lambda tol=0.5, **kw: ("made", tol),
            replace=True,
        )
        assert get_backend("test-dummy-kw", tol=0.25) == ("made", 0.25)

    def test_duplicate_requires_replace(self):
        register_backend("test-dummy-dup", lambda **kw: None, replace=True)
        with pytest.raises(ValueError, match="already registered"):
            register_backend("test-dummy-dup", lambda **kw: None)
        register_backend("test-dummy-dup", lambda **kw: 42, replace=True)
        assert get_backend("test-dummy-dup") == 42


class TestErrors:
    def test_unknown_backend_lists_names(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            backend_spec("no-such-engine")
        with pytest.raises(ValueError, match="scipy"):
            get_backend("no-such-engine")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            register_backend("", lambda **kw: None)
        with pytest.raises(ValueError):
            register_backend(None, lambda **kw: None)

    def test_bad_factory_rejected(self):
        with pytest.raises(TypeError):
            register_backend("test-dummy-bad", "not-callable")

    def test_dispatch_backend_rejected_by_model_solve(self):
        from repro.solver import ModelingError

        m = Model("t")
        x = m.var("x", ub=1.0)
        m.maximize(x)
        with pytest.raises(ModelingError, match="dispatch problems"):
            m.solve(backend="decomposition", raise_on_failure=True)

    def test_lp_only_backend_rejected_by_name_for_integer_model(self):
        from repro.solver import ModelingError, ScipyLpBackend

        m = Model("t")
        x = m.integer("x", ub=2.5)
        m.maximize(x)
        with pytest.raises(ModelingError, match="lacks the milp capability"):
            m.solve(backend="scipy-lp")
        # A backend object is the caller's explicit choice: it still
        # solves the relaxation.
        res = m.solve(backend=ScipyLpBackend(), raise_on_failure=True)
        assert res.objective == pytest.approx(2.5)

    def test_lp_only_backend_by_name_solves_an_lp(self):
        m = Model("t")
        x = m.var("x", ub=2.5)
        m.maximize(x)
        res = m.solve(backend="scipy-lp", raise_on_failure=True)
        assert res.objective == pytest.approx(2.5)

    def test_unknown_name_via_model_solve(self):
        from repro.solver import ModelingError

        m = Model("t")
        x = m.var("x", ub=1.0)
        m.maximize(x)
        with pytest.raises(ModelingError, match="unknown solver backend"):
            m.solve(backend="no-such-engine")
