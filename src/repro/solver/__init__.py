"""Self-contained LP/MILP optimization layer.

Public API:

* :class:`Model`, :class:`Variable`, :class:`LinExpr`, :func:`quicksum`
  — algebraic model construction;
* :class:`SolveResult`, :class:`SolveStatus` — results;
* Backends: :class:`ScipyBackend` (HiGHS, default),
  :class:`ScipyLpBackend` (LP + duals),
  :class:`BranchBoundSolver` (own B&B), :class:`SimplexSolver`
  (pure-NumPy LP engine), :class:`RevisedSimplexSolver` (factorized
  basis + sparse pricing, for 100+-site fleets);
* Registry: :func:`register_backend` / :func:`get_backend` /
  :func:`available_backends` — named backend factories with capability
  flags, the resolution point for ``--solver-backend``;
* Errors: :class:`SolverError` and friends.
"""

from .branch_bound import BranchBoundSolver
from .errors import (
    InfeasibleError,
    ModelingError,
    SolverError,
    SolverLimitError,
    UnboundedError,
)
from .model import (
    Constraint,
    LinExpr,
    Model,
    Sense,
    StandardForm,
    Variable,
    VarType,
    quicksum,
)
from .cuts import CoverCut, apply_cuts, find_cover_cuts
from .fallback import FallbackBackend
from .lp_format import model_to_lp_string, parse_lp_string, read_lp, write_lp
from .registry import (
    BackendSpec,
    available_backends,
    backend_spec,
    get_backend,
    register_backend,
)
from .result import SolveResult, SolveStatus
from .revised_simplex import (
    RevisedSimplexSolver,
    RevisedWarmBasis,
    lp_solver_for_size,
)
from .scipy_backend import ScipyBackend, ScipyLpBackend
from .simplex import SimplexSolver

__all__ = [
    "Model",
    "Variable",
    "LinExpr",
    "Constraint",
    "VarType",
    "Sense",
    "StandardForm",
    "quicksum",
    "SolveResult",
    "SolveStatus",
    "ScipyBackend",
    "ScipyLpBackend",
    "BranchBoundSolver",
    "SimplexSolver",
    "RevisedSimplexSolver",
    "RevisedWarmBasis",
    "lp_solver_for_size",
    "BackendSpec",
    "register_backend",
    "get_backend",
    "backend_spec",
    "available_backends",
    "SolverError",
    "ModelingError",
    "InfeasibleError",
    "UnboundedError",
    "SolverLimitError",
    "FallbackBackend",
    "CoverCut",
    "find_cover_cuts",
    "apply_cuts",
    "write_lp",
    "read_lp",
    "model_to_lp_string",
    "parse_lp_string",
]
