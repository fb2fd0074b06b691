"""DC optimal power flow with locational marginal prices.

The DC-OPF is the market-clearing engine behind the LMP methodology the
paper builds on (Section II): an ISO dispatches generators at least cost
subject to transmission limits, and the dual multiplier of each bus's
power-balance constraint is that bus's **locational marginal price** —
the cost of serving one more MW at the bus. LMP step changes appear
exactly when a new constraint (a generator limit or a line limit)
becomes binding as load grows, which is what produces the stepped
pricing policies of Figure 1.

Formulation (B-theta):

.. math::

    \\min \\sum_k c_k g_k \\quad \\text{s.t.} \\quad
    \\sum_{k \\in b} g_k - d_b = \\sum_{l: b \\to} f_l - \\sum_{l: \\to b} f_l,
    \\qquad f_l = B_l (\\theta_{from} - \\theta_{to}),
    \\qquad |f_l| \\le F_l,
    \\qquad 0 \\le g_k \\le G_k.

The LP is stated on :class:`repro.solver.Model` and compiled to a
standard form once per :class:`DcOpf`; loads enter only as the balance
rows' right-hand sides, which each call patches into a copy. It is
solved with a backend that reports equality duals (HiGHS by default;
the pure-NumPy simplex also works and is exercised in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ..solver import Model, ScipyLpBackend, SolveStatus, StandardForm, quicksum
from .network import Grid

__all__ = ["DispatchResult", "DcOpf"]


@dataclass
class DispatchResult:
    """Market-clearing outcome for one load vector.

    Attributes
    ----------
    feasible:
        Whether the load could be served.
    total_cost:
        Generation cost in $/h (``nan`` if infeasible).
    generation:
        ``{generator name: MW}``.
    flows:
        ``{line key: MW}`` with sign per line orientation.
    lmp:
        ``{bus name: $/MWh}`` — dual of the bus balance constraint.
    """

    feasible: bool
    total_cost: float
    generation: dict[str, float]
    flows: dict[str, float]
    lmp: dict[str, float]

    def lmp_at(self, bus: str) -> float:
        """LMP at ``bus``; raises ``KeyError`` for unknown buses."""
        return self.lmp[bus]


class _CompiledOpf:
    """A grid's DC-OPF LP in standard form, with the loads left out.

    ``template`` is ``_build({}).to_standard_form()`` with every balance
    row's right-hand side set to ``nan``; :meth:`standard_form` writes
    all of them on each call, into a copy. The template's arrays are
    read-only, so nothing a backend does can carry from one call into
    the next through them.
    """

    def __init__(self, opf: "DcOpf"):
        m, gen_vars, flow_vars, balance_order = opf._build({})
        sf = m.to_standard_form()
        eq_rows = DcOpf._eq_rows(m)
        self.n_eq = len(eq_rows)
        #: ``{bus: equality-row index}`` in balance order (every grid bus).
        self.balance = {bus: eq_rows[f"balance[{bus}]"] for bus in balance_order}
        self._rows = np.fromiter(self.balance.values(), np.intp, len(self.balance))
        self.gen_cols = {name: v.index for name, v in gen_vars.items()}
        self.flow_cols = {key: v.index for key, v in flow_vars.items()}
        # Limits of the generation and flow columns, in DispatchResult
        # order, and each generator's cost and bus (as an LMP position).
        limited = [*self.gen_cols.values(), *self.flow_cols.values()]
        self._lower, self._upper = sf.lb[limited], sf.ub[limited]
        self._cost = sf.c[list(self.gen_cols.values())]
        at = {g.name: g.bus for g in opf.grid.generators}
        position = {bus: k for k, bus in enumerate(self.balance)}
        self._gen_bus = np.array([position[at[g]] for g in self.gen_cols], np.intp)
        b_eq = sf.b_eq.copy()
        b_eq[self._rows] = np.nan
        self.template = replace(sf, b_eq=b_eq)
        for name in ("c", "A_ub", "b_ub", "A_eq", "b_eq", "lb", "ub", "integrality"):
            getattr(self.template, name).setflags(write=False)

    def standard_form(self, loads: Mapping[str, float]) -> StandardForm:
        """The LP for ``loads``, bit-identical to ``_build(loads)``'s."""
        mw = np.array([float(loads.get(bus, 0.0)) for bus in self.balance])
        b_eq = self.template.b_eq.copy()
        # `Constraint.build` stores `expr == load` (expr constant 0.0) as
        # rhs -(0.0 - load), which turns a zero load into -0.0.
        b_eq[self._rows] = -(0.0 - mw)
        return replace(self.template, b_eq=b_eq)

    def regime(self, res: DispatchResult) -> bytes | None:
        """A feasible dispatch's price regime as bytes; None on a tie.

        The bytes are the LMP at every bus and which generator and line
        limits bind. A tie is a dispatch that equally cheap generators
        could rearrange: a generator at a limit whose cost equals its
        bus's LMP, two marginal generators (strictly inside their
        limits) with the same cost, or marginal generators not one more
        than the binding lines (a degenerate vertex). On a tie the
        solver may settle on a different, equally cheap vertex at each
        load, and the LMP it computes there can differ in the last bit.
        """
        lmps = np.fromiter(res.lmp.values(), float, len(res.lmp))
        x = np.fromiter(
            [*res.generation.values(), *res.flows.values()], float, len(self._lower)
        )
        at_lower, at_upper = x == self._lower, x == self._upper
        n = len(self._cost)
        at_limit = (at_lower | at_upper)[:n]
        gap = self._cost - lmps[self._gen_bus]
        tied = np.abs(gap) <= 1e-9 * np.maximum(1.0, np.abs(self._cost))
        marginal = self._cost[~at_limit]
        binding = at_lower[n:] | at_upper[n:]
        if (
            (tied & at_limit).any()
            or np.unique(marginal).size < marginal.size
            or marginal.size != 1 + binding.sum()
        ):
            return None
        return lmps.tobytes() + at_lower.tobytes() + at_upper.tobytes()


class DcOpf:
    """DC optimal power flow solver for a :class:`Grid`.

    The LP is compiled once, at construction; build a new ``DcOpf``
    for a changed grid (e.g. :func:`~repro.powermarket.closedloop.
    line_outage` returns a new :class:`Grid`).

    Parameters
    ----------
    grid:
        The transmission network.
    backend:
        Any LP backend exposing equality duals (default:
        :class:`~repro.solver.ScipyLpBackend`, HiGHS called directly).
        The pure simplex engine may be passed for a fully self-contained
        stack.
    """

    def __init__(self, grid: Grid, backend=None):
        self.grid = grid
        self.backend = backend or ScipyLpBackend()
        self._bus_names = frozenset(b.name for b in grid.buses)
        self._form = _CompiledOpf(self)

    def dispatch(self, loads: Mapping[str, float]) -> DispatchResult:
        """Clear the market for the given nodal loads (MW).

        Buses absent from ``loads`` carry zero load. Negative and
        non-finite loads are rejected before any LP is solved.
        """
        self._check_loads(loads)
        form = self._form
        sf = form.standard_form(loads)
        res = self.backend.solve(sf)
        if res.status is not SolveStatus.OPTIMAL:
            return DispatchResult(False, float("nan"), {}, {}, {})

        # Equality duals are mapped back to buses by *constraint name*
        # (`balance[<bus>]`, resolved at compile time), never by
        # positional offset: `_build`'s row ordering must not silently
        # decide which dual is an LMP.
        if res.duals_eq.size < form.n_eq:
            raise ValueError(
                f"backend {res.backend or type(self.backend).__name__!s} "
                f"returned {res.duals_eq.size} equality duals for "
                f"{form.n_eq} equality rows; LMPs need an LP backend "
                "that reports duals"
            )
        lmps = {bus: float(res.duals_eq[row]) for bus, row in form.balance.items()}
        x = res.x
        generation = {name: float(x[j]) for name, j in form.gen_cols.items()}
        flows = {key: float(x[j]) for key, j in form.flow_cols.items()}
        # As `Model.solve` reports it: backend objective + model constant.
        total_cost = float(res.objective + sf.obj_constant)
        return DispatchResult(True, total_cost, generation, flows, lmps)

    def load_growth_headroom(self, loads: Mapping[str, float], bus: str) -> float:
        """MW of extra load at ``bus`` before any LMP changes.

        Computed in a *single* solve via the simplex solver's RHS
        sensitivity ranging on the bus's balance row: within the
        returned headroom the optimal basis — and therefore every
        nodal price — is provably unchanged. ``inf`` when no constraint
        ever binds (practically: bounded by generation capacity, which
        ranging reports too).

        The value is *incremental* MW above the current load at ``bus``
        (``rhs_range_eq`` reports deltas relative to the current RHS,
        not the absolute RHS at which the basis changes).
        """
        from ..solver import SimplexSolver

        if bus not in self._bus_names:
            raise KeyError(f"unknown bus {bus!r}")
        self._check_loads(loads)
        sf = self._form.standard_form(loads)
        res = SimplexSolver().solve(sf, ranging=True)
        if res.status is not SolveStatus.OPTIMAL:
            raise ValueError("load vector is infeasible")
        # The balance row was resolved by name among the equality rows —
        # positional arithmetic breaks as soon as `_build` reorders rows.
        _, hi = res.rhs_range_eq[self._form.balance[bus]]
        return float(hi)

    def _check_loads(self, loads: Mapping[str, float]) -> None:
        for bus, mw in loads.items():
            if bus not in self._bus_names:
                raise KeyError(f"unknown bus {bus!r} in load vector")
            if not math.isfinite(mw):
                raise ValueError(f"non-finite load {mw!r} at bus {bus!r}")
            if mw < 0:
                raise ValueError(f"negative load at bus {bus!r}")

    @staticmethod
    def _eq_rows(m: Model) -> dict[str, int]:
        """Name -> row index of the model's equality constraints.

        Matches ``Model.to_standard_form``'s ordering (insertion order
        among ``==`` constraints), which is also the order backends
        report ``duals_eq`` and ``rhs_range_eq`` in.
        """
        return {
            c.name: i
            for i, c in enumerate(k for k in m._constrs if k.kind == "==")
        }

    def _build(self, loads: Mapping[str, float]):
        """Construct the OPF model; returns (model, gens, flows, balance order).

        :class:`_CompiledOpf` compiles it once with no loads; the model
        path stays as the reference the compiled form is tested against.
        """
        self._check_loads(loads)
        grid = self.grid
        m = Model("dcopf")
        gen_vars = {
            g.name: m.var(f"g[{g.name}]", lb=g.min_mw, ub=g.max_mw)
            for g in grid.generators
        }
        # Reference bus angle fixed at zero removes the rotational nullspace.
        theta = {}
        for i, bus in enumerate(grid.buses):
            if i == 0:
                theta[bus.name] = m.var(f"theta[{bus.name}]", lb=0.0, ub=0.0)
            else:
                theta[bus.name] = m.var(
                    f"theta[{bus.name}]", lb=-float("inf"), ub=float("inf")
                )

        # Line flows as explicit variables tied to angle differences;
        # keeps the balance rows sparse and makes flow limits plain bounds.
        flow_vars = {}
        for line in grid.lines:
            lim = line.limit_mw
            f = m.var(f"f[{line.key}]", lb=-lim, ub=lim)
            flow_vars[line.key] = f
            coupling = grid.base_mva * line.susceptance
            m.add(
                f == coupling * (theta[line.from_bus] - theta[line.to_bus]),
                name=f"flow[{line.key}]",
            )

        # Nodal balance; constraint order is recorded so duals can be
        # mapped back to buses (equality rows keep insertion order).
        balance_order: list[str] = []
        for bus in grid.buses:
            inflow = quicksum(
                flow_vars[l.key] for l in grid.lines if l.to_bus == bus.name
            )
            outflow = quicksum(
                flow_vars[l.key] for l in grid.lines if l.from_bus == bus.name
            )
            gen = quicksum(gen_vars[g.name] for g in grid.generators_at(bus.name))
            load = float(loads.get(bus.name, 0.0))
            m.add(gen + inflow - outflow == load, name=f"balance[{bus.name}]")
            balance_order.append(bus.name)

        m.minimize(
            quicksum(g.cost * gen_vars[g.name] for g in grid.generators)
        )
        return m, gen_vars, flow_vars, balance_order

    # -- sweeps ------------------------------------------------------------------

    def lmp_sweep(
        self,
        load_shares: dict[str, float],
        system_loads: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """LMP at every load bus for a range of system loads.

        Each system load ``t`` is cleared at nodal loads
        ``share_b * t``, so the points lie on a ray in load space.
        Along a ray the optimal cost is convex and piecewise linear in
        ``t``: a dual solution optimal at two loads is optimal at every
        load between them, and an interior LMP can differ from it only
        where the dual is not unique. The sweep therefore solves the
        lowest and highest load, then bisects only the sub-intervals
        whose two ends differ, solving each load at most once.

        A sub-interval is filled without a solve when both ends are
        feasible, neither is on a tie, and they agree bitwise on the LMP
        at every grid bus (sign of zero included) and on which generator
        and line limits bind (:meth:`_CompiledOpf.regime`). Equal LMPs
        alone are not enough for bitwise equality: where generators tie
        (Solitude and Sundance both cost $30 on the PJM grid) the
        cheapest dispatch is not unique, the solver settles on a
        different vertex at different loads, and the LMP it computes
        there can differ in the last bit (``30.000000000000004``
        against ``30.0`` at bus C with line A-E out). Loads on a tie are
        therefore all solved. An infeasible end always splits too, since
        the feasible loads may form an interval strictly inside the
        window (generator minimums). Every LP goes through
        :meth:`dispatch`.

        LP count: never more than one per point. A window costs 2 LPs
        for its ends plus about ``log2(len(system_loads))`` per regime
        change inside it; points on a tie or beyond the feasible range
        cost one each. The closed loop's 61-point windows hold one or
        two regimes and cost 2 or 8 LPs, so its hour costs the fixed
        point's 2 re-clears plus 2-8 sweep LPs, against 61 with one LP
        per point.

        Parameters
        ----------
        load_shares:
            Fraction of the system load drawn at each bus (must sum to
            1, e.g. ``{"B": 1/3, "C": 1/3, "D": 1/3}`` for the paper's
            uniformly distributed load).
        system_loads:
            1-D array of total system loads in MW, in any order.

        Returns
        -------
        dict
            ``{bus: array of LMPs}`` for each bus in ``load_shares``;
            infeasible load levels yield ``nan``.
        """
        total_share = sum(load_shares.values())
        # Relative tolerance: float accumulation (e.g. rounded thirds)
        # must not reject an intentionally-complete share vector.  The
        # shares are renormalized so the sweep is exact either way.
        if not np.isclose(total_share, 1.0, rtol=1e-6, atol=0.0):
            raise ValueError(f"load shares sum to {total_share}, expected 1")
        shares = {b: s / total_share for b, s in load_shares.items()}
        totals = np.asarray(system_loads, dtype=float)
        out = {bus: np.full(len(totals), np.nan) for bus in load_shares}
        # Positions in load order; non-finite totals sort to the ends,
        # which are always solved, so `dispatch` rejects them.
        order = np.argsort(totals, kind="stable")
        # Price regime per position (None: infeasible, on a tie, or not
        # solved).
        keys: list[bytes | None] = [None] * len(order)

        def solve(k: int) -> None:
            i = order[k]
            res = self.dispatch({b: s * totals[i] for b, s in shares.items()})
            if res.feasible:
                keys[k] = self._form.regime(res)
                for bus in load_shares:
                    out[bus][i] = res.lmp_at(bus)

        last = len(order) - 1
        if last < 0:
            return out
        solve(0)
        if last:
            solve(last)
        pending = [(0, last)]
        while pending:
            lo, hi = pending.pop()
            if hi - lo < 2:
                continue
            if keys[lo] is not None and keys[lo] == keys[hi]:
                inside = order[lo + 1 : hi]
                for arr in out.values():
                    arr[inside] = arr[order[lo]]
                continue
            mid = (lo + hi) // 2
            solve(mid)
            pending += [(lo, mid), (mid, hi)]
        return out
