"""A small algebraic modeling layer for linear and mixed-integer programs.

This module plays the role that ``lp_solve`` (used by the paper) or PuLP
would play: it lets the optimization code in :mod:`repro.core` state
problems in terms of named variables and linear expressions, then hands
a compiled standard form to any of the interchangeable backends in
:mod:`repro.solver.scipy_backend` or
:mod:`repro.solver.branch_bound`.

Example
-------
>>> from repro.solver import Model
>>> m = Model("toy")
>>> x = m.var("x", lb=0.0, ub=4.0)
>>> y = m.binary("y")
>>> m.add(x + 3.0 * y <= 5.0)
>>> m.minimize(-x - 2.0 * y)
>>> res = m.solve()
>>> round(res.objective, 6)
-6.0

Only *linear* expressions are supported; multiplying two variables
raises :class:`~repro.solver.errors.ModelingError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    InfeasibleError,
    ModelingError,
    SolverLimitError,
    UnboundedError,
)
from .result import SolveResult, SolveStatus

__all__ = [
    "VarType",
    "Sense",
    "Variable",
    "LinExpr",
    "Constraint",
    "StandardForm",
    "Model",
]

#: Tolerance used when validating bounds.
_BOUND_EPS = 1e-12


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Sense(enum.Enum):
    """Optimization direction."""

    MIN = "min"
    MAX = "max"


class LinExpr:
    """An affine expression ``sum(coeffs[i] * x_i) + constant``.

    Instances are immutable from the caller's perspective; arithmetic
    operators return new expressions. Coefficients are stored sparsely
    in a dict keyed by variable index.
    """

    __slots__ = ("coeffs", "constant", "model")

    def __init__(
        self,
        model: "Model | None" = None,
        coeffs: Mapping[int, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        self.model = model
        self.coeffs: dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _coerce(other: "LinExpr | Variable | float | int") -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other.to_expr()
        if isinstance(other, (int, float, np.integer, np.floating)):
            return LinExpr(None, None, float(other))
        raise ModelingError(
            f"cannot combine a linear expression with {type(other)!r}"
        )

    def _merged_model(self, other: "LinExpr") -> "Model | None":
        if self.model is not None and other.model is not None:
            if self.model is not other.model:
                raise ModelingError(
                    "cannot mix variables from different models in one "
                    "expression"
                )
        return self.model or other.model

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        model = self._merged_model(other)
        coeffs = dict(self.coeffs)
        for idx, coef in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + coef
        return LinExpr(model, coeffs, self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) + (-1.0) * self

    def __mul__(self, scalar):
        if isinstance(scalar, (LinExpr, Variable)):
            raise ModelingError("products of variables are not linear")
        s = float(scalar)
        return LinExpr(
            self.model,
            {idx: s * coef for idx, coef in self.coeffs.items()},
            s * self.constant,
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def __neg__(self):
        return self * -1.0

    # -- comparisons build constraints ----------------------------------------

    def __le__(self, other):
        return Constraint.build(self, self._coerce(other), "<=")

    def __ge__(self, other):
        return Constraint.build(self, self._coerce(other), ">=")

    def __eq__(self, other):  # type: ignore[override]
        return Constraint.build(self, self._coerce(other), "==")

    __hash__ = None  # type: ignore[assignment]

    # -- utilities -------------------------------------------------------------

    def evaluate(self, x: Sequence[float] | np.ndarray) -> float:
        """Evaluate the expression at the point ``x`` (full variable vector)."""
        total = self.constant
        for idx, coef in self.coeffs.items():
            total += coef * x[idx]
        return float(total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{coef:+g}*x{idx}" for idx, coef in sorted(self.coeffs.items())]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


def quicksum(terms: Iterable["LinExpr | Variable | float"]) -> LinExpr:
    """Sum an iterable of expressions/variables/constants efficiently.

    Unlike the builtin :func:`sum`, this builds a single accumulator
    dict instead of one intermediate :class:`LinExpr` per term, which
    matters when summing thousands of terms.
    """
    model: Model | None = None
    coeffs: dict[int, float] = {}
    constant = 0.0
    for term in terms:
        expr = LinExpr._coerce(term)
        if expr.model is not None:
            if model is not None and expr.model is not model:
                raise ModelingError(
                    "cannot mix variables from different models in quicksum"
                )
            model = expr.model
        for idx, coef in expr.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + coef
        constant += expr.constant
    return LinExpr(model, coeffs, constant)


class Variable:
    """A decision variable belonging to a :class:`Model`.

    Supports the same arithmetic as :class:`LinExpr`. Variables compare
    with ``<=``, ``>=``, ``==`` to build constraints.
    """

    __slots__ = ("model", "index", "name", "vtype", "lb", "ub")

    def __init__(
        self,
        model: "Model",
        index: int,
        name: str,
        vtype: VarType,
        lb: float,
        ub: float,
    ) -> None:
        self.model = model
        self.index = index
        self.name = name
        self.vtype = vtype
        self.lb = lb
        self.ub = ub

    def to_expr(self) -> LinExpr:
        """Return this variable as a single-term linear expression."""
        return LinExpr(self.model, {self.index: 1.0}, 0.0)

    # Delegate arithmetic to LinExpr.
    def __add__(self, other):
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return LinExpr._coerce(other) - self.to_expr()

    def __mul__(self, scalar):
        return self.to_expr() * scalar

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.to_expr() / scalar

    def __neg__(self):
        return self.to_expr() * -1.0

    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        return self.to_expr() == other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r}, {self.vtype.value}, [{self.lb}, {self.ub}])"


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|==) rhs`` in canonical form.

    Canonicalization performed by :meth:`build`:

    * ``a >= b`` is stored as ``-a <= -b``;
    * the constant of the left expression is folded into the rhs;
    * the stored ``expr`` therefore has ``constant == 0``.
    """

    expr: LinExpr
    rhs: float
    kind: str  # "<=" or "=="
    name: str = ""

    @staticmethod
    def build(lhs: LinExpr, rhs: LinExpr, op: str) -> "Constraint":
        model = lhs._merged_model(rhs)
        diff = lhs - rhs  # diff.coeffs * x + diff.constant (op) 0
        bound = -diff.constant
        body = LinExpr(model, diff.coeffs, 0.0)
        if op == "<=":
            return Constraint(body, bound, "<=")
        if op == ">=":
            return Constraint(body * -1.0, -bound, "<=")
        if op == "==":
            return Constraint(body, bound, "==")
        raise ModelingError(f"unsupported constraint operator {op!r}")

    def violation(self, x: Sequence[float] | np.ndarray) -> float:
        """Amount by which ``x`` violates the constraint (0 if satisfied)."""
        lhs = self.expr.evaluate(x)
        if self.kind == "<=":
            return max(0.0, lhs - self.rhs)
        return abs(lhs - self.rhs)


@dataclass
class StandardForm:
    """Compiled arrays for ``min c @ x`` subject to linear constraints.

    ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``lb <= x <= ub``;
    ``integrality[i]`` is truthy when ``x_i`` must be integral. The
    objective ``c`` is always a *minimization*; :class:`Model` negates
    coefficients for maximization models and the backends never need to
    know the user's sense.
    """

    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    obj_constant: float = 0.0

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def has_integers(self) -> bool:
        return bool(np.any(self.integrality))


class Model:
    """A linear / mixed-integer optimization model.

    Variables are created with :meth:`var`, :meth:`integer` and
    :meth:`binary`; constraints with :meth:`add`; the objective with
    :meth:`minimize` / :meth:`maximize`; then :meth:`solve` dispatches
    to a backend.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._vars: list[Variable] = []
        self._constrs: list[Constraint] = []
        self._objective: LinExpr = LinExpr(self)
        self._sense: Sense = Sense.MIN

    # -- variable creation ------------------------------------------------

    def var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = float("inf"),
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create a decision variable and return it.

        Parameters
        ----------
        name:
            Optional label used in error messages and debugging output.
        lb, ub:
            Bounds; ``lb=-inf``/``ub=inf`` are allowed. ``lb > ub``
            raises :class:`~repro.solver.errors.ModelingError`.
        vtype:
            Variable domain.
        """
        lb = float(lb)
        ub = float(ub)
        if lb > ub + _BOUND_EPS:
            raise ModelingError(f"variable {name!r}: lb={lb} > ub={ub}")
        if vtype is VarType.BINARY:
            lb = max(lb, 0.0)
            ub = min(ub, 1.0)
        v = Variable(self, len(self._vars), name or f"x{len(self._vars)}", vtype, lb, ub)
        self._vars.append(v)
        return v

    def integer(self, name: str = "", lb: float = 0.0, ub: float = float("inf")) -> Variable:
        """Create an integer variable."""
        return self.var(name, lb, ub, VarType.INTEGER)

    def binary(self, name: str = "") -> Variable:
        """Create a 0/1 variable."""
        return self.var(name, 0.0, 1.0, VarType.BINARY)

    def vars_array(
        self, count: int, prefix: str, lb: float = 0.0, ub: float = float("inf"),
        vtype: VarType = VarType.CONTINUOUS,
    ) -> list[Variable]:
        """Create ``count`` homogeneous variables named ``prefix[i]``."""
        return [self.var(f"{prefix}[{i}]", lb, ub, vtype) for i in range(count)]

    # -- constraints and objective ------------------------------------------

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelingError(
                "Model.add expects a Constraint; did you compare with "
                "'<' or '>' instead of '<=' / '>='?"
            )
        if constraint.expr.model is not None and constraint.expr.model is not self:
            raise ModelingError("constraint references variables of another model")
        constraint.name = name or f"c{len(self._constrs)}"
        self._constrs.append(constraint)
        return constraint

    def minimize(self, expr: "LinExpr | Variable | float") -> None:
        """Set a minimization objective."""
        self._set_objective(expr, Sense.MIN)

    def maximize(self, expr: "LinExpr | Variable | float") -> None:
        """Set a maximization objective."""
        self._set_objective(expr, Sense.MAX)

    def _set_objective(self, expr, sense: Sense) -> None:
        expr = LinExpr._coerce(expr)
        if expr.model is not None and expr.model is not self:
            raise ModelingError("objective references variables of another model")
        self._objective = expr
        self._sense = sense

    # -- introspection ---------------------------------------------------------

    @property
    def variables(self) -> Sequence[Variable]:
        return tuple(self._vars)

    @property
    def constraints(self) -> Sequence[Constraint]:
        return tuple(self._constrs)

    @property
    def sense(self) -> Sense:
        return self._sense

    @property
    def num_vars(self) -> int:
        return len(self._vars)

    @property
    def num_constraints(self) -> int:
        return len(self._constrs)

    @property
    def num_integer_vars(self) -> int:
        return sum(v.vtype is not VarType.CONTINUOUS for v in self._vars)

    # -- compilation -----------------------------------------------------------

    def to_standard_form(self) -> StandardForm:
        """Compile the model to dense arrays for the backends.

        The compiled objective is always a minimization; for a
        maximization model the coefficient vector is negated here and
        the optimal value is negated back in :meth:`solve`.
        """
        n = len(self._vars)
        c = np.zeros(n)
        for idx, coef in self._objective.coeffs.items():
            c[idx] = coef
        obj_constant = self._objective.constant
        if self._sense is Sense.MAX:
            c = -c
            obj_constant = -obj_constant

        ub_rows = [k for k in self._constrs if k.kind == "<="]
        eq_rows = [k for k in self._constrs if k.kind == "=="]

        def stack(rows: list[Constraint]) -> tuple[np.ndarray, np.ndarray]:
            A = np.zeros((len(rows), n))
            b = np.zeros(len(rows))
            for i, row in enumerate(rows):
                for idx, coef in row.expr.coeffs.items():
                    A[i, idx] = coef
                b[i] = row.rhs
            return A, b

        A_ub, b_ub = stack(ub_rows)
        A_eq, b_eq = stack(eq_rows)
        lb = np.array([v.lb for v in self._vars])
        ub = np.array([v.ub for v in self._vars])
        integrality = np.array(
            [v.vtype is not VarType.CONTINUOUS for v in self._vars], dtype=bool
        )
        return StandardForm(c, A_ub, b_ub, A_eq, b_eq, lb, ub, integrality, obj_constant)

    # -- solving ---------------------------------------------------------------

    def solve(
        self,
        backend: "str | object | None" = None,
        raise_on_failure: bool = False,
        **kwargs,
    ) -> SolveResult:
        """Solve the model and return a :class:`SolveResult`.

        Parameters
        ----------
        backend:
            ``None`` (auto: HiGHS), any registered backend name from
            :func:`repro.solver.registry.available_backends` (e.g.
            ``"scipy"``, ``"simplex"``, ``"revised-simplex"``), or any
            object with a ``solve(StandardForm) -> SolveResult`` method.
        raise_on_failure:
            When true, raise :class:`InfeasibleError` /
            :class:`UnboundedError` / :class:`SolverLimitError` instead
            of returning a failed result.
        kwargs:
            Forwarded to the backend constructor when ``backend`` is a
            string or None.
        """
        resolved = self._resolve_backend(backend, **kwargs)
        sf = self.to_standard_form()
        result = resolved.solve(sf)
        if result.ok:
            value = result.objective + sf.obj_constant
            if self._sense is Sense.MAX:
                value = -value
            result.objective = value
        elif raise_on_failure:
            if result.status is SolveStatus.INFEASIBLE:
                raise InfeasibleError(f"model {self.name!r} is infeasible")
            if result.status is SolveStatus.UNBOUNDED:
                raise UnboundedError(f"model {self.name!r} is unbounded")
            raise SolverLimitError(
                f"model {self.name!r}: {result.status.value} ({result.message})"
            )
        return result

    def _resolve_backend(self, backend, **kwargs):
        if backend is None:
            from .scipy_backend import ScipyBackend

            return ScipyBackend(**kwargs)
        if isinstance(backend, str):
            from . import registry

            try:
                spec = registry.backend_spec(backend)
            except ValueError as exc:
                raise ModelingError(str(exc)) from None
            if spec.dispatch:
                raise ModelingError(
                    f"backend {backend!r} operates on dispatch problems, "
                    "not compiled standard forms; pass it to the "
                    "repro.core optimizers instead"
                )
            if not spec.milp and self.num_integer_vars:
                raise ModelingError(
                    f"backend {backend!r} lacks the milp capability (it "
                    f"solves LP relaxations only); model {self.name!r} has "
                    f"{self.num_integer_vars} integer variables"
                )
            return spec.make(**kwargs)
        if hasattr(backend, "solve"):
            return backend
        raise ModelingError(f"unknown backend {backend!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"constraints={self.num_constraints}, "
            f"integers={self.num_integer_vars}, sense={self._sense.value})"
        )
