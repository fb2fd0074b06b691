"""Pluggable solver-backend registry (the pyomo ``SolverFactory`` pattern).

Every LP/MILP engine the repo can run — SciPy/HiGHS, the own
branch-and-bound over either simplex, the fallback-chain wrapper, and
the dual-decomposition dispatch path — is a named factory here,
exactly as dispatch strategies are named factories in
:mod:`repro.sim.registry`. All entry points (``Model.solve``, the
compiled-model caches, ``repro run --solver-backend``, ``repro
serve --solver-backend``, ``repro solvers``) resolve backends through
this module, so adding an engine is one :func:`register_backend` call
instead of an ``if/elif`` chain per call site.

Each registration carries *capability flags* so callers can check what
they are getting before they depend on it:

``milp``
    Solves mixed-integer programs (otherwise LP relaxations only).
``warm_start``
    Re-solves branch-and-bound child nodes from their parent's basis
    (``solve_warm``) inside one solve; the decomposition backend has
    it through its monolithic fallback. No backend carries state from
    one solve to the next.
``sparse``
    Prices columns sparsely / factorizes the basis instead of carrying
    a dense tableau — the large-fleet engines.
``dispatch``
    Operates on the *dispatch problem* (site hours) rather than a
    compiled :class:`~repro.solver.model.StandardForm`; such backends
    cannot be passed to ``Model.solve`` and are resolved by the
    optimizers in :mod:`repro.core` instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "BackendSpec",
    "register_backend",
    "get_backend",
    "backend_spec",
    "available_backends",
    "INT_ENV_VARS",
    "env_int",
]

#: The solver stack's integer tuning variables and the least value each
#: accepts: the decomposition's auto-activation fleet size, the
#: compiled-model cache capacity and the dense-tableau cell budget.
INT_ENV_VARS = {
    "REPRO_DECOMP_AUTO_SITES": 0,
    "REPRO_MODEL_CACHE_SIZE": 1,
    "REPRO_DENSE_TABLEAU_CELLS": 0,
}


@dataclass(frozen=True)
class BackendSpec:
    """One registered solver backend: factory plus capability flags."""

    name: str
    factory: Callable[..., object]
    milp: bool = False
    warm_start: bool = False
    sparse: bool = False
    dispatch: bool = False
    description: str = ""

    def make(self, **kwargs) -> object:
        """A fresh backend instance (kwargs go to the factory)."""
        return self.factory(**kwargs)


_SPECS: dict[str, BackendSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Register the built-in backends exactly once, lazily.

    Lazy so that importing :mod:`repro.solver` stays cheap and so the
    decomposition entry (which lives in :mod:`repro.core`, a package
    that imports this one) can be declared without a circular import:
    its factory only touches ``repro.core`` when actually called.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True

    def scipy_factory(**kw):
        from .scipy_backend import ScipyBackend

        return ScipyBackend(**kw)

    def scipy_lp_factory(**kw):
        from .scipy_backend import ScipyLpBackend

        return ScipyLpBackend(**kw)

    def branch_bound_factory(**kw):
        from .branch_bound import BranchBoundSolver

        return BranchBoundSolver(**kw)

    def simplex_factory(**kw):
        from .branch_bound import BranchBoundSolver
        from .simplex import SimplexSolver

        return BranchBoundSolver(lp_solver=SimplexSolver(), **kw)

    def revised_simplex_factory(**kw):
        from .branch_bound import BranchBoundSolver
        from .revised_simplex import RevisedSimplexSolver

        return BranchBoundSolver(lp_solver=RevisedSimplexSolver(), **kw)

    def fallback_factory(**kw):
        from .branch_bound import BranchBoundSolver
        from .fallback import FallbackBackend
        from .scipy_backend import ScipyBackend

        return FallbackBackend(ScipyBackend(), BranchBoundSolver(), **kw)

    def decomposition_factory(**kw):
        from ..core.decomposition import DecompositionSolver

        return DecompositionSolver(**kw)

    register_backend(
        "scipy", scipy_factory, milp=True,
        description="SciPy HiGHS (milp; LPs as scipy-lp); the external reference",
    )
    register_backend(
        "scipy-lp", scipy_lp_factory,
        description="HiGHS LP via SciPy's bundled bindings; LPs with duals",
    )
    register_backend(
        "branch-bound", branch_bound_factory, milp=True, warm_start=True,
        description="own best-first B&B over HiGHS LP nodes",
    )
    register_backend(
        "simplex", simplex_factory, milp=True, warm_start=True,
        description="own B&B over the dense-tableau NumPy simplex",
    )
    register_backend(
        "revised-simplex", revised_simplex_factory, milp=True,
        warm_start=True, sparse=True,
        description="own B&B over the sparse-pricing revised simplex "
        "(factorized basis; built for 100+ site fleets)",
    )
    register_backend(
        "fallback", fallback_factory, milp=True,
        description="HiGHS with automatic failover to the own B&B",
    )
    register_backend(
        "decomposition", decomposition_factory, milp=True, warm_start=True,
        sparse=True, dispatch=True,
        description="dual decomposition across market regions "
        "(exact region subproblems, gap-checked, monolithic fallback)",
    )


def register_backend(
    name: str,
    factory: Callable[..., object],
    *,
    milp: bool = False,
    warm_start: bool = False,
    sparse: bool = False,
    dispatch: bool = False,
    description: str = "",
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name`` with its capability flags.

    ``factory(**kwargs)`` must return a fresh backend object — for
    standard-form backends, anything with ``solve(StandardForm) ->
    SolveResult``. Re-registering an existing name raises unless
    ``replace=True``, mirroring :func:`repro.sim.registry.
    register_strategy`.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if not callable(factory):
        raise TypeError("backend factory must be callable")
    _ensure_builtins()
    if name in _SPECS and not replace:
        raise ValueError(
            f"solver backend {name!r} is already registered; pass "
            "replace=True to override it"
        )
    _SPECS[name] = BackendSpec(
        name=name,
        factory=factory,
        milp=milp,
        warm_start=warm_start,
        sparse=sparse,
        dispatch=dispatch,
        description=description,
    )


def backend_spec(name: str) -> BackendSpec:
    """The :class:`BackendSpec` registered under ``name``.

    Raises :class:`ValueError` listing the registered names when the
    name is unknown — the message every CLI entry point surfaces.
    """
    _ensure_builtins()
    spec = _SPECS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown solver backend {name!r}; expected one of "
            f"{available_backends()}"
        )
    return spec


def get_backend(name: str, **kwargs) -> object:
    """A fresh backend instance for ``name`` (kwargs to the factory)."""
    return backend_spec(name).make(**kwargs)


def available_backends() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_SPECS))


def env_int(name: str, default: int) -> int:
    """The integer variable ``name`` of :data:`INT_ENV_VARS`, or ``default``.

    Raises :class:`ValueError` naming the variable when it is set to
    anything but an integer at or above its least value.
    """
    text = os.environ.get(name)
    if text is None:
        return default
    minimum = INT_ENV_VARS[name]
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {text!r}"
        )
    return value
