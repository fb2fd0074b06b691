"""Dual decomposition of the dispatch MILPs across market regions.

The hourly cost-min / throughput-max programs couple otherwise
independent sites only through fleet-wide rows: ``sum lam_i = L``
(serve-all), ``sum lam_i <= D`` (demand) and ``sum cost_i <= B``
(budget). Relaxing those rows with Lagrange multipliers makes the
problem *separable per site* — each site's best response to a rate
price ``mu`` (or ``alpha``/``beta`` pair) is a closed-form scan of its
admissible segment choices, the same choice sets the enumeration kernel
builds (:func:`repro.core.enum_kernel.site_choices`). That turns the
monolithic MILP — whose dense standard form is memory-infeasible beyond
a few hundred sites — into:

1. **Dual stage** — bisection on the scalar serve-all multiplier
   (cost-min) or nested bisection on the demand/budget multiplier pair
   (throughput-max). Every evaluation is one vectorized pass over all
   site choices, and each search starts from brackets set by this
   hour's choices alone, so the solver keeps no state between solves.
2. **Primal recovery** — the dual responses are completed into a
   feasible dispatch, then *re-optimized exactly per market region*
   with the entry-free enumeration greedy: one
   :class:`~repro.core.enum_kernel.ComboTable` per region per solve,
   filled many times (:func:`~repro.core.enum_kernel.cost_min_fill` /
   :func:`~repro.core.enum_kernel.throughput_max_fill`) by the
   bisection, transfer and water-fill loops below, each region sized
   to keep its choice product under the combination cap.
3. **Gap check** — the dual value bounds the monolithic optimum, so
   ``|primal - dual| <= gap_tol * |primal|`` *proves* the recovered
   dispatch is within tolerance of the monolithic answer. On failure
   the caller falls back to the monolithic MILP (small fleets), or —
   beyond ``force_accept_sites``, where no monolithic solve is
   practical — the best recovered primal is accepted and the residual
   gap is recorded in telemetry.

Decision construction bypasses the compiled model entirely: outcomes
decode straight into :class:`~repro.core.allocation.HourlyDecision`
through the enumeration kernel's decoder
(:func:`~repro.core.enum_kernel.to_decision`), so no dense array ever
scales with fleet size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..solver.registry import env_int
from ..telemetry import get_telemetry
from .allocation import CappingStep, HourlyDecision
from .dispatch_model import RATE_SCALE
from .enum_kernel import (
    MAX_COMBOS,
    ComboTable,
    SiteChoices,
    cost_min_fill,
    site_choices,
    throughput_max_fill,
    to_decision,
)
from .site import SiteHour

__all__ = [
    "DecompositionSolver",
    "DecompositionOutcome",
    "partition_market_regions",
    "decomposition_auto_sites",
    "DECOMP_AUTO_SITES",
]

_FEAS_TOL = 1e-9

#: Fleets at or above this many sites route through the decomposition
#: automatically (override with ``REPRO_DECOMP_AUTO_SITES``).
DECOMP_AUTO_SITES = 100


def decomposition_auto_sites() -> int:
    """The auto-activation fleet size, honoring the env override."""
    return env_int("REPRO_DECOMP_AUTO_SITES", DECOMP_AUTO_SITES)


def partition_market_regions(
    site_hours: list[SiteHour],
    choices: list[SiteChoices],
    max_region_combos: int = 512,
) -> list[list[int]]:
    """Partition site indices into exactly-solvable market regions.

    Sites are grouped by their price policy (the market they bid into),
    then each group is chunked so the product of per-site choice counts
    stays under ``max_region_combos`` — the bound that keeps the
    per-region enumeration greedy exact *and* cheap. Any partition is
    correct (the coupling is fully relaxed); market grouping keeps
    same-curve sites together so regional re-optimization can trade
    load across the sites that actually share price steps.
    """
    groups: dict[int, list[int]] = {}
    for i, sh in enumerate(site_hours):
        groups.setdefault(id(sh.policy), []).append(i)
    ordered = [i for idxs in groups.values() for i in idxs]
    regions: list[list[int]] = []
    cur: list[int] = []
    prod = 1
    for i in ordered:
        k = choices[i].lo.size
        if cur and prod * k > max_region_combos:
            regions.append(cur)
            cur, prod = [], 1
        cur.append(i)
        prod *= k
    if cur:
        regions.append(cur)
    return regions


@dataclass
class DecompositionOutcome:
    """A recovered dispatch plus its optimality certificate."""

    choices: list[SiteChoices]
    choice_idx: np.ndarray  # per-site chosen choice row
    lam: np.ndarray  # per-site scaled rate (Mrps)
    cost: float  # exact bill of the recovered dispatch
    served_scaled: float
    bound: float  # dual bound on the monolithic optimum
    rel_gap: float
    n_regions: int
    converged: bool  # True: gap within tolerance (proven near-optimal)

    def to_decision(
        self, site_hours: list[SiteHour], step: CappingStep
    ) -> HourlyDecision:
        """Decode directly into an HourlyDecision (no model arrays)."""
        return to_decision(
            site_hours, self.choices, self.choice_idx, self.lam, step
        )


@dataclass
class _Padded:
    """All sites' choice arrays, padded to a rectangle for vector math."""

    LO: np.ndarray  # (n_sites, k_max)
    HI: np.ndarray
    M: np.ndarray
    F: np.ndarray  # +inf on padding, so padded rows never win a min
    valid: np.ndarray


def _pad(choices: list[SiteChoices]) -> _Padded:
    n = len(choices)
    k = max(sc.lo.size for sc in choices)
    LO = np.zeros((n, k))
    HI = np.zeros((n, k))
    M = np.zeros((n, k))
    F = np.full((n, k), np.inf)
    valid = np.zeros((n, k), dtype=bool)
    for i, sc in enumerate(choices):
        w = sc.lo.size
        LO[i, :w] = sc.lo
        HI[i, :w] = sc.hi
        M[i, :w] = sc.m
        F[i, :w] = sc.f
        valid[i, :w] = True
    return _Padded(LO=LO, HI=HI, M=M, F=F, valid=valid)


@dataclass
class DecompositionSolver:
    """Region-decomposed dispatch with gap-certified primal recovery.

    Parameters
    ----------
    gap_tol:
        Relative duality gap below which the recovered dispatch is
        accepted as (provably) matching the monolithic optimum. The
        default is half the 0.1% equivalence tolerance the test suite
        pins.
    max_region_combos:
        Choice-combination cap per region for the exact regional
        re-optimization.
    bisect_iters:
        Multiplier bisection depth per stage.
    force_accept_sites:
        Beyond this many sites a failed gap check no longer falls back
        to the monolithic MILP (whose dense arrays would not fit) —
        the best recovered primal is returned with
        ``converged=False`` and counted in telemetry.
    """

    gap_tol: float = 5e-4
    max_region_combos: int = 512
    bisect_iters: int = 60
    force_accept_sites: int = 256

    # -- shared plumbing --------------------------------------------------------

    def _choices(
        self, site_hours: list[SiteHour], step_margin_frac: float
    ) -> list[SiteChoices] | None:
        choices = []
        for sh in site_hours:
            sc = site_choices(sh, step_margin_frac)
            if sc is None:
                return None  # piecewise/degenerate site: monolithic owns it
            choices.append(sc)
        return choices

    @staticmethod
    def _tel_outcome(which: str, rel_gap: float | None = None) -> None:
        tel = get_telemetry()
        if not tel.enabled:
            return
        tel.counter(f"core.decomposition.{which}").inc()
        if rel_gap is not None:
            tel.histogram("core.decomposition.rel_gap").observe(rel_gap)

    # -- cost minimization ------------------------------------------------------

    def solve_cost_min(
        self,
        site_hours: list[SiteHour],
        total_rate_rps: float,
        step_margin_frac: float,
    ) -> DecompositionOutcome | None:
        """Min-cost dispatch of the full offered load, or None to fall back."""
        choices = self._choices(site_hours, step_margin_frac)
        if choices is None:
            self._tel_outcome("fallback")
            return None
        L = total_rate_rps / RATE_SCALE
        pad = _pad(choices)

        bracket = self._bisect_mu(pad, L)
        if bracket is None:
            self._tel_outcome("fallback")
            return None
        mu_lo, mu_hi, lower_bound = bracket

        primal = self._recover_cost_min(site_hours, choices, pad, (mu_lo, mu_hi), L)
        if primal is None:
            self._tel_outcome("fallback")
            return None
        choice_idx, lam, cost, n_regions = primal

        rel_gap = (cost - lower_bound) / max(abs(cost), 1e-12)
        converged = rel_gap <= self.gap_tol
        if not converged and len(site_hours) <= self.force_accept_sites:
            self._tel_outcome("fallback", rel_gap)
            return None
        self._tel_outcome("solved" if converged else "gap_accept", rel_gap)
        return DecompositionOutcome(
            choices=choices,
            choice_idx=choice_idx,
            lam=lam,
            cost=cost,
            served_scaled=float(lam.sum()),
            bound=lower_bound,
            rel_gap=rel_gap,
            n_regions=n_regions,
            converged=converged,
        )

    @staticmethod
    def _site_response_cost_min(pad: _Padded, mu: float):
        """Per-site best choice and rate interval at rate price ``mu``.

        Each site independently minimizes ``(m - mu) lam + f`` over its
        choices; the response rate is ``lo`` when the reduced marginal
        is positive and ``hi`` when negative, with both endpoints
        returned for the tie (step) case.
        """
        coef = pad.M - mu
        V = np.minimum(coef * pad.LO, coef * pad.HI) + pad.F
        j = np.argmin(V, axis=1)
        rows = np.arange(V.shape[0])
        coef_j = coef[rows, j]
        lo_j = pad.LO[rows, j]
        hi_j = pad.HI[rows, j]
        lam_low = np.where(coef_j < 0.0, hi_j, lo_j)
        lam_high = np.where(coef_j <= 0.0, hi_j, lo_j)
        return j, V[rows, j], lam_low, lam_high

    def _dual_value_cost_min(self, pad: _Padded, mu: float, L: float) -> float:
        _, vbest, _, _ = self._site_response_cost_min(pad, mu)
        return float(vbest.sum() + mu * L)

    def _bisect_mu(self, pad: _Padded, L: float):
        """Bracket the serve-all multiplier; return (mu_lo, mu_hi, best_lb).

        The site responses are step functions of ``mu`` (the fixed-cost
        nonconvexity), so the aggregate response typically *jumps over*
        ``L`` at the optimal multiplier rather than crossing it. The
        bisection therefore converges a bracket, and the best dual value
        seen at any evaluated multiplier is the lower bound.
        """
        m_valid = pad.M[pad.valid]
        mu_lo = min(0.0, float(m_valid.min())) - 1.0
        mu_hi = float(m_valid.max()) + 1.0
        _, _, low, _ = self._site_response_cost_min(pad, mu_lo)
        if float(low.sum()) > L + _FEAS_TOL:
            return None  # even the cheapest-response floor overshoots
        for _ in range(20):
            _, _, _, high = self._site_response_cost_min(pad, mu_hi)
            if float(high.sum()) >= L - _FEAS_TOL:
                break
            mu_hi = 2.0 * mu_hi + 1.0
        else:
            return None  # capacity short of L: the MILP owns the diagnosis
        best_lb = max(
            self._dual_value_cost_min(pad, mu_lo, L),
            self._dual_value_cost_min(pad, mu_hi, L),
        )
        for _ in range(self.bisect_iters):
            mu = 0.5 * (mu_lo + mu_hi)
            _, vbest, lam_low, lam_high = self._site_response_cost_min(pad, mu)
            best_lb = max(best_lb, float(vbest.sum() + mu * L))
            if float(lam_low.sum()) > L:
                mu_hi = mu
            elif float(lam_high.sum()) < L:
                mu_lo = mu
            else:
                mu_lo = mu_hi = mu
                break  # L sits inside the response interval at mu
        return mu_lo, mu_hi, best_lb

    def _cost_min_candidates(self, pad: _Padded, mu: float, L: float):
        """Feasible completions of the dual response at one multiplier.

        Two recovery moves, both exact given the choice vector:

        * **greedy** — keep every site's best choice, ascending-marginal
          fill of the remaining load between the choice bounds;
        * **one-swap** — with one coupling constraint the convexified
          optimum re-chooses at most *one* site, so for every site try
          "everyone else at their response floor, this site absorbs the
          residual in whichever of its choices admits it".
        """
        j, _, _, _ = self._site_response_cost_min(pad, mu)
        rows = np.arange(pad.LO.shape[0])
        lo_j = pad.LO[rows, j]
        hi_j = pad.HI[rows, j]
        m_j = pad.M[rows, j]
        f_j = np.where(pad.valid[rows, j], pad.F[rows, j], 0.0)
        out = []
        base = float(lo_j.sum())
        if base <= L + _FEAS_TOL and float(hi_j.sum()) >= L - _FEAS_TOL:
            order = np.argsort(m_j, kind="stable")
            caps = (hi_j - lo_j)[order]
            before = np.concatenate([[0.0], np.cumsum(caps)[:-1]])
            take = np.clip(max(L - base, 0.0) - before, 0.0, caps)
            lam = lo_j.copy()
            lam[order] += take
            out.append((j.copy(), lam))
        # One-swap: everyone else pinned at one end of their best
        # choice, site i absorbs the residual in whichever of its
        # choices admits it; pick the cheapest (i, choice) pair.
        f_safe = np.where(pad.valid, pad.F, 0.0)
        for anchor in (lo_j, hi_j):
            resid = (L - float(anchor.sum())) + anchor  # if i alone deviates
            fits = (
                pad.valid
                & (pad.LO <= resid[:, None] + _FEAS_TOL)
                & (pad.HI >= resid[:, None] - _FEAS_TOL)
            )
            swap_cost = np.where(fits, pad.M * resid[:, None] + f_safe, np.inf)
            j_swap = np.argmin(swap_cost, axis=1)
            delta = swap_cost[rows, j_swap] - (m_j * anchor + f_j)
            cand = np.where(np.isfinite(delta))[0]
            if not cand.size:
                continue
            i = int(cand[np.argmin(delta[cand])])
            j2 = j.copy()
            j2[i] = int(j_swap[i])
            lam2 = anchor.copy()
            lam2[i] = float(np.clip(resid[i], pad.LO[i, j2[i]], pad.HI[i, j2[i]]))
            if abs(float(lam2.sum()) - L) <= max(1e-7, 1e-9 * abs(L)):
                out.append((j2, lam2))
        return out

    def _recover_cost_min(self, site_hours, choices, pad, bracket, L):
        """Best feasible completion at either bracket end, then exact
        per-region re-optimization at the resulting regional targets."""
        candidates = []
        for mu in dict.fromkeys(bracket):
            candidates.extend(self._cost_min_candidates(pad, mu, L))
        if not candidates:
            return None

        def exact(j, lam):
            rows = np.arange(lam.size)
            return float(
                (pad.M[rows, j] * lam).sum() + pad.F[rows, j].sum()
            )

        j, lam = min(candidates, key=lambda c: exact(*c))

        # Exact per-region re-optimization at the regional targets: each
        # region may flip segment/activity choices the site-separable
        # dual could not price (the fixed-cost nonconvexity).
        regions = partition_market_regions(
            site_hours, choices, self.max_region_combos
        )
        n_r = len(regions)
        tables = [
            ComboTable.build([choices[i] for i in reg], self.max_region_combos)
            for reg in regions
        ]
        if any(table is None for table in tables):
            return None
        choice_idx = j.astype(np.int64)
        lam = lam.copy()
        targets = np.array([float(lam[reg].sum()) for reg in regions])
        cost_r = np.zeros(n_r)

        def apply(r: int, target: float, fill) -> None:
            best, lam_f, cost_f = fill
            targets[r] = target
            cost_r[r] = cost_f
            lam[regions[r]] = lam_f
            choice_idx[regions[r]] = tables[r].idx[best]

        for r in range(n_r):
            fill = cost_min_fill(tables[r], float(targets[r]))
            if fill is None:
                return None
            apply(r, float(targets[r]), fill)

        # Inter-region load transfers: the dual splits the fleet load
        # well but not perfectly; move a shrinking tranche of load from
        # the region that sheds it cheapest to the region that absorbs
        # it cheapest, keeping only net-saving moves.
        cost_tol = 1e-9 * max(float(cost_r.sum()), 1.0)
        delta = L / max(n_r, 1)
        for _ in range(6):
            if delta <= 1e-12 * max(L, 1.0):
                break
            saves = np.full(n_r, -np.inf)
            adds = np.full(n_r, np.inf)
            shed_fill: dict[int, tuple] = {}
            grow_fill: dict[int, tuple] = {}
            for r in range(n_r):
                t_down = float(targets[r]) - delta
                if t_down >= -_FEAS_TOL:
                    p = cost_min_fill(tables[r], max(t_down, 0.0))
                    if p is not None:
                        saves[r] = float(cost_r[r]) - p[2]
                        shed_fill[r] = p
                p = cost_min_fill(tables[r], float(targets[r]) + delta)
                if p is not None:
                    adds[r] = p[2] - float(cost_r[r])
                    grow_fill[r] = p
            best_pair = None
            for d in np.argsort(-saves)[:2]:
                for q in np.argsort(adds)[:2]:
                    if d == q or d not in shed_fill or q not in grow_fill:
                        continue
                    net = saves[d] - adds[q]
                    if best_pair is None or net > best_pair[0]:
                        best_pair = (net, int(d), int(q))
            if best_pair is not None and best_pair[0] > cost_tol:
                _, d, q = best_pair
                apply(d, max(float(targets[d]) - delta, 0.0), shed_fill[d])
                apply(q, float(targets[q]) + delta, grow_fill[q])
            else:
                delta *= 0.5
        return choice_idx, lam, float(cost_r.sum()), len(regions)

    # -- throughput maximization ------------------------------------------------

    def solve_throughput_max(
        self,
        site_hours: list[SiteHour],
        offered_rate_rps: float,
        budget: float,
        step_margin_frac: float,
        weight: float,
    ) -> DecompositionOutcome | None:
        """Budget-capped throughput maximization, or None to fall back."""
        choices = self._choices(site_hours, step_margin_frac)
        if choices is None:
            self._tel_outcome("fallback")
            return None
        pad = _pad(choices)
        if weight < 0.0 or (
            weight > 0.0 and weight * float(pad.M[pad.valid].max(initial=0.0)) >= 1.0
        ):
            self._tel_outcome("fallback")
            return None
        D = offered_rate_rps / RATE_SCALE
        B = budget

        found = self._search_alpha_beta(pad, D, B, weight)
        if found is None:
            self._tel_outcome("fallback")
            return None
        dual_ub, j, lam = found
        j, lam = self._swap_repair_tp(pad, j, lam, D, B, weight)

        primal = self._recover_throughput(site_hours, choices, pad, j, lam, D, B, weight)
        if primal is None:
            self._tel_outcome("fallback")
            return None
        choice_idx, lam, served, cost, n_regions = primal

        value = served - weight * cost
        rel_gap = (dual_ub - value) / max(abs(value), 1.0)
        converged = rel_gap <= self.gap_tol
        if not converged and len(site_hours) <= self.force_accept_sites:
            self._tel_outcome("fallback", rel_gap)
            return None
        self._tel_outcome("solved" if converged else "gap_accept", rel_gap)
        return DecompositionOutcome(
            choices=choices,
            choice_idx=choice_idx,
            lam=lam,
            cost=cost,
            served_scaled=served,
            bound=dual_ub,
            rel_gap=rel_gap,
            n_regions=n_regions,
            converged=converged,
        )

    @staticmethod
    def _site_response_tp(pad: _Padded, alpha: float, beta: float, weight: float):
        """Per-site best choice for demand price alpha / budget price beta.

        Each site maximizes ``(1 - alpha) lam - (w + beta)(m lam + f)``
        over its choices; padding has ``f = +inf`` so it never wins.
        """
        wb = weight + beta
        coef = (1.0 - alpha) - wb * pad.M
        f_safe = np.where(pad.valid, pad.F, 0.0)  # avoid 0 * inf at wb == 0
        V = np.maximum(coef * pad.LO, coef * pad.HI) - wb * f_safe
        V[~pad.valid] = -np.inf
        j = np.argmax(V, axis=1)
        rows = np.arange(V.shape[0])
        coef_j = coef[rows, j]
        # Ties take lo: the conservative (demand/budget-light) endpoint.
        lam = np.where(coef_j > 0.0, pad.HI[rows, j], pad.LO[rows, j])
        cost = pad.M[rows, j] * lam + f_safe[rows, j]
        return j, lam, V[rows, j], cost

    def _search_alpha_beta(self, pad: _Padded, D: float, B: float, weight: float):
        """Nested bisection: alpha clears demand, beta clears the budget.

        Every dual evaluation doubles as a primal probe: a response whose
        served rate and cost already satisfy both coupling rows is a
        feasible dispatch, and the best one seen anywhere in the search
        becomes the recovery seed. Returns ``(dual_ub, j, lam)``, or
        None when no evaluated response was feasible.
        """
        state = {"ub": np.inf, "val": -np.inf, "seed": None}

        def evaluate(alpha: float, beta: float):
            j, lam, v, cost = self._site_response_tp(pad, alpha, beta, weight)
            served = float(lam.sum())
            tot_cost = float(cost.sum())
            state["ub"] = min(
                state["ub"], float(v.sum()) + alpha * D + beta * B
            )
            if (
                served <= D + _FEAS_TOL
                and tot_cost <= B * (1.0 + 1e-9) + _FEAS_TOL
            ):
                val = served - weight * tot_cost
                if val > state["val"]:
                    state["val"] = val
                    state["seed"] = (j.copy(), lam.copy())
            return served, tot_cost

        def inner(beta: float) -> float:
            """Bisect alpha >= 0 until the served response meets D."""
            served, cost = evaluate(0.0, beta)
            if served <= D + _FEAS_TOL:
                return cost
            a_lo = 0.0
            a_hi = 1.0 + (weight + beta) * float(pad.M[pad.valid].max(initial=0.0))
            for _ in range(self.bisect_iters):
                a = 0.5 * (a_lo + a_hi)
                served, _ = evaluate(a, beta)
                if served > D:
                    a_lo = a
                else:
                    a_hi = a
            _, cost = evaluate(a_hi, beta)
            return cost

        cost = inner(0.0)
        if cost > B * (1.0 + 1e-9) + _FEAS_TOL:
            m_pos = pad.M[pad.valid & (pad.M > 0.0)]
            if m_pos.size == 0:
                return None
            b_lo, b_hi = 0.0, 1.0 / float(m_pos.min()) + 1.0
            for _ in range(self.bisect_iters):
                beta = 0.5 * (b_lo + b_hi)
                if inner(beta) > B:
                    b_lo = beta
                else:
                    b_hi = beta
        if state["seed"] is None:
            return None
        j, lam = state["seed"]
        return state["ub"], j, lam

    def _swap_repair_tp(self, pad: _Padded, j, lam, D, B, weight, rounds=16):
        """Hill-climb the feasible seed with single-site re-choices.

        The convexified optimum re-chooses at most two sites relative
        to a dual response (one per coupling row), so repeatedly
        applying the best single-site move — re-choose site ``i`` to
        choice ``j'`` and let it absorb as much leftover demand as the
        leftover budget admits — recovers most of the remaining value.
        Every move keeps both coupling rows satisfied.
        """
        j = np.asarray(j).copy()
        lam = np.asarray(lam, dtype=float).copy()
        rows = np.arange(lam.size)
        f_safe = np.where(pad.valid, pad.F, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(rounds):
                cost_i = pad.M[rows, j] * lam + f_safe[rows, j]
                d_left = max(D - float(lam.sum()), 0.0)
                b_left = max(B - float(cost_i.sum()), 0.0)
                # Budget available to site i under choice j': the global
                # leftover plus what the site currently spends.
                avail = b_left + cost_i[:, None] - f_safe
                cap_budget = np.where(
                    pad.M > 0.0, avail / np.where(pad.M > 0.0, pad.M, 1.0),
                    np.inf,
                )
                lam_new = np.minimum(
                    pad.HI, np.minimum(lam[:, None] + d_left, cap_budget)
                )
                ok = pad.valid & (avail >= -_FEAS_TOL) & (
                    lam_new >= pad.LO - _FEAS_TOL
                )
                lam_new = np.clip(lam_new, pad.LO, pad.HI)
                cost_new = pad.M * lam_new + f_safe
                gain = (lam_new - lam[:, None]) - weight * (
                    cost_new - cost_i[:, None]
                )
                gain = np.where(ok, gain, -np.inf)
                i, jn = np.unravel_index(np.argmax(gain), gain.shape)
                if not np.isfinite(gain[i, jn]) or gain[i, jn] <= max(
                    1e-9 * max(D, 1.0), 1e-12
                ):
                    break
                j[i] = jn
                lam[i] = lam_new[i, jn]
        return j, lam

    def _recover_throughput(self, site_hours, choices, pad, j, lam, D, B, weight):
        """Water-fill the feasible seed across exactly-solved regions.

        Each round hands every region its previous usage plus an equal
        share of the unspent demand and budget, then re-solves the
        region exactly. A region's previous dispatch stays feasible
        under its new allotment, so regional (and total) objective
        value is non-decreasing; a few rounds route the slack to the
        regions that can convert it into throughput.
        """
        rows = np.arange(len(choices))
        f_j = np.where(pad.valid[rows, j], pad.F[rows, j], 0.0)
        cost_site = pad.M[rows, j] * lam + f_j

        regions = partition_market_regions(
            site_hours, choices, self.max_region_combos
        )
        n_r = max(len(regions), 1)
        tables = [
            ComboTable.build([choices[i] for i in reg], self.max_region_combos)
            for reg in regions
        ]
        if any(table is None for table in tables):
            return None
        targets = np.array([float(lam[reg].sum()) for reg in regions])
        budgets = np.array([float(cost_site[reg].sum()) for reg in regions])
        targets += max(D - targets.sum(), 0.0) / n_r
        budgets += max(B - budgets.sum(), 0.0) / n_r

        choice_idx = np.asarray(j, dtype=np.int64).copy()
        lam_out = np.asarray(lam, dtype=float).copy()
        served_r = np.zeros(n_r)
        cost_r = np.zeros(n_r)
        value_r = np.full(n_r, -np.inf)
        d_tol = max(1e-9 * D, 1e-9)

        def probe(r: int, target: float, budget: float):
            return throughput_max_fill(tables[r], target, budget, weight)

        def refill(r: int, target: float, budget: float) -> bool:
            fill = probe(r, target, budget)
            if fill is None:
                return False
            best, lam_f, served_f, cost_f = fill
            served_r[r] = served_f
            cost_r[r] = cost_f
            value_r[r] = served_f - weight * cost_f
            lam_out[regions[r]] = lam_f
            choice_idx[regions[r]] = tables[r].idx[best]
            return True

        for r in range(n_r):
            if not refill(r, float(targets[r]), float(budgets[r])):
                return None
        # Greedy slack routing: with fixed costs a region's binding
        # constraint is not identifiable from its fill (extra budget can
        # unlock a combo whose base cost exceeded the old allotment), so
        # probe every region with the full leftover and grant it to the
        # best converter. Allotments never drop below usage, so regional
        # values are non-decreasing round over round.
        for _ in range(8):
            d_left = max(D - float(served_r.sum()), 0.0)
            b_left = max(B - float(cost_r.sum()), 0.0)
            if d_left <= d_tol:
                break
            gains = np.zeros(n_r)
            for r in range(n_r):
                p = probe(
                    r, float(served_r[r]) + d_left, float(cost_r[r]) + b_left
                )
                if p is not None:
                    _, _, served_p, cost_p = p
                    gains[r] = (served_p - weight * cost_p) - value_r[r]
            r_star = int(np.argmax(gains))
            if gains[r_star] <= d_tol:
                break
            if not refill(
                r_star, float(served_r[r_star]) + d_left,
                float(cost_r[r_star]) + b_left,
            ):
                return None

        # Inter-region budget transfers: once the budget is fully spent
        # the slack router is powerless, but the seed may still hold
        # budget in a region whose marginal throughput per dollar is
        # lower than another's. Move a shrinking tranche from the
        # cheapest donor to the best receiver, keeping the move only on
        # net objective gain — total value stays non-decreasing.
        delta = B / max(n_r, 1)
        for _ in range(6):
            if delta <= 1e-9 * max(B, 1.0):
                break
            d_left = max(D - float(served_r.sum()), 0.0)
            b_left = max(B - float(cost_r.sum()), 0.0)
            if d_left <= d_tol:
                break
            losses = np.full(n_r, np.inf)
            for r in range(n_r):
                give = min(delta, float(cost_r[r]))
                if give <= 0.0:
                    losses[r] = 0.0 if cost_r[r] == 0.0 else np.inf
                    continue
                p = probe(r, float(served_r[r]), float(cost_r[r]) - give)
                if p is not None:
                    _, _, served_p, cost_p = p
                    losses[r] = value_r[r] - (served_p - weight * cost_p)
            d_star = int(np.argmin(losses))
            if not np.isfinite(losses[d_star]):
                delta *= 0.5
                continue
            prev = (
                served_r.copy(), cost_r.copy(), value_r.copy(),
                lam_out.copy(), choice_idx.copy(),
            )
            give = min(delta, float(cost_r[d_star]))
            refill(d_star, float(served_r[d_star]), float(cost_r[d_star]) - give)
            freed_b = b_left + float(prev[1].sum() - cost_r.sum())
            freed_d = d_left + max(float(prev[0].sum() - served_r.sum()), 0.0)
            gains = np.full(n_r, -np.inf)
            for r in range(n_r):
                if r == d_star:
                    continue
                p = probe(
                    r, float(served_r[r]) + freed_d, float(cost_r[r]) + freed_b
                )
                if p is not None:
                    _, _, served_p, cost_p = p
                    gains[r] = (served_p - weight * cost_p) - value_r[r]
            r_star = int(np.argmax(gains))
            net = gains[r_star] - losses[d_star]
            if np.isfinite(net) and net > d_tol and refill(
                r_star, float(served_r[r_star]) + freed_d,
                float(cost_r[r_star]) + freed_b,
            ):
                continue
            served_r, cost_r, value_r, lam_out, choice_idx = prev
            delta *= 0.5
        return (
            choice_idx, lam_out, float(served_r.sum()), float(cost_r.sum()),
            len(regions),
        )
