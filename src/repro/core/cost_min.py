"""Step 1 of the bill-capping algorithm: electricity-cost minimization.

Implements the paper's Section IV optimization (eq. 1-2): choose
per-site request rates ``lambda_i`` that serve the entire offered load
at minimum total electricity cost, subject to per-site power caps and
response-time targets, **with the sites' impact on their own prices
modeled** via the stepped-cost MILP linearization — the price-maker
formulation that distinguishes Cost Capping from Min-Only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..solver import InfeasibleError
from .allocation import CappingStep, HourlyDecision
from .decomposition import DecompositionSolver, decomposition_auto_sites
from .dispatch_model import (
    RATE_SCALE,
    _decision_from,
    build_dispatch_model,
    single_class_decision,
)
from .model_cache import DispatchModelCache
from .site import SiteHour

__all__ = ["CostMinimizer"]


def resolve_solver_backend(
    backend: object | None, solver_backend: str | None
) -> tuple[object | None, str | None]:
    """Normalize the (backend, solver_backend) pair an optimizer holds.

    ``solver_backend`` falls back to the ``REPRO_SOLVER_BACKEND``
    environment variable; the ``"decomposition"`` name is accepted in
    either slot (it is a dispatch-level backend, so ``backend=
    "decomposition"`` is rerouted out of the cold ``Model.solve`` path).
    """
    if solver_backend is None:
        solver_backend = os.environ.get("REPRO_SOLVER_BACKEND") or None
    if backend == "decomposition":
        backend = None
        solver_backend = "decomposition"
    return backend, solver_backend


def _use_decomposition(
    backend: object | None, solver_backend: str | None, n_sites: int
) -> bool:
    """Decomposition runs when asked for, or by size when nothing is."""
    if solver_backend == "decomposition":
        return True
    return (
        backend is None
        and solver_backend is None
        and n_sites >= decomposition_auto_sites()
    )


@dataclass
class CostMinimizer:
    """Price-maker-aware cost minimization (the paper's eq. 1-2).

    Parameters
    ----------
    backend:
        Solver backend name or object (see
        :meth:`repro.solver.Model.solve`); ``None`` (the default)
        enables the hot path — the enumeration kernel answers
        separable hours from the site hours alone; otherwise the MILP
        structure is cached and patched per hour, solved by
        branch-and-bound with SciPy/HiGHS as automatic fallback.
        Passing any explicit backend (including ``"scipy"``) forces the
        cold build-and-solve path.
    solver_backend:
        Registered backend name (see :mod:`repro.solver.registry`) the
        compiled-model hot path solves with; ``None`` reads
        ``REPRO_SOLVER_BACKEND`` and otherwise picks by problem size.
        ``"decomposition"`` routes fleets through the region-decomposed
        solver (:mod:`repro.core.decomposition`) with monolithic
        fallback; with no backend selected at all, decomposition
        auto-activates at ``decomposition_auto_sites()`` sites.
    step_margin_frac:
        Safety margin below price breakpoints as a fraction of each
        site's reachable power (guards against the smooth decision
        model under-predicting the stepped realized power; see
        :func:`repro.core.linearize.add_stepped_cost`).
    """

    backend: object | None = None
    solver_backend: str | None = None
    step_margin_frac: float = 0.01
    model_cache: DispatchModelCache | None = field(
        default=None, repr=False, compare=False
    )

    def solve(
        self, site_hours: list[SiteHour], total_rate_rps: float
    ) -> HourlyDecision:
        """Dispatch ``total_rate_rps`` across the sites at minimum cost.

        Raises
        ------
        InfeasibleError
            When the offered load exceeds the sites' combined servable
            capacity (caps + fleets) — constraint (a) cannot hold.
        """
        if total_rate_rps < 0:
            raise ValueError("total rate must be >= 0")
        if total_rate_rps == 0:
            return _zero_decision(site_hours, CappingStep.COST_MIN)

        backend, solver_backend = resolve_solver_backend(
            self.backend, self.solver_backend
        )
        if _use_decomposition(backend, solver_backend, len(site_hours)):
            out = DecompositionSolver().solve_cost_min(
                site_hours, total_rate_rps, self.step_margin_frac
            )
            if out is not None:
                return out.to_decision(site_hours, CappingStep.COST_MIN)
            # Uncertified gap: fall through to the monolithic solve.

        if backend is None:
            if self.model_cache is None:
                cache_backend = (
                    None if solver_backend == "decomposition" else solver_backend
                )
                self.model_cache = DispatchModelCache(
                    solver_backend=cache_backend
                )
            return self.model_cache.solve_cost_min(
                site_hours, total_rate_rps, self.step_margin_frac
            )

        dm = build_dispatch_model(
            site_hours, name="cost-min", step_margin_frac=self.step_margin_frac
        )
        dm.model.add(
            dm.total_rate_scaled == total_rate_rps / RATE_SCALE, name="serve_all"
        )
        dm.model.minimize(dm.total_cost)
        res = dm.model.solve(backend=backend, raise_on_failure=True)
        return _decision_from(dm, res, CappingStep.COST_MIN)


def _zero_decision(site_hours: list[SiteHour], step: CappingStep) -> HourlyDecision:
    return single_class_decision(
        step, [(sh, 0.0, 0.0, 0.0) for sh in site_hours]
    )
