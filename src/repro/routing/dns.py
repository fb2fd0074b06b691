"""Weighted DNS request routing (the paper's dispatch mechanism).

Section III: "the dynamic request routing mechanism in the cloud-scale
data center networks dispatches the incoming requests among data
centers based on the determined request dispatching strategy ... the
Authoritative Domain Name System (DNS) is deployed to take the request
dispatcher role by mapping the request URL hostname into the IP address
of the destined data centers."

The bill capper hands the DNS layer *target fractions*; reality
deviates from them for two mechanical reasons modeled here:

* **resolution granularity** — each resolver gets one answer per TTL
  window and sends its whole client population there, so the realized
  split is a finite-sample approximation of the weights;
* **TTL caching lag** — when the capper changes the weights at the top
  of the hour, resolvers keep using cached answers until their TTL
  expires, so the old allocation bleeds into the new hour.

:class:`WeightedDnsDispatcher` simulates both effects with seeded
randomness; :func:`routing_error` summarizes how far realized fractions
land from the targets — the input for the routing-robustness study in
``tests/routing`` (the bill capper's savings survive realistic DNS
imprecision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ResolverPopulation", "WeightedDnsDispatcher", "routing_error"]


@dataclass(frozen=True)
class ResolverPopulation:
    """A population of recursive resolvers fronting the client base.

    Attributes
    ----------
    n_resolvers:
        Distinct resolver caches (ISPs, enterprises, public DNS).
    ttl_s:
        Answer TTL; a resolver re-queries once per TTL on average.
    skew:
        Zipf-like skew of client load across resolvers (0 = uniform;
        larger = a few resolvers dominate, making the realized split
        noisier).
    """

    n_resolvers: int = 1000
    ttl_s: float = 300.0
    skew: float = 0.8

    def __post_init__(self):
        if self.n_resolvers <= 0:
            raise ValueError("need at least one resolver")
        if not (math.isfinite(self.ttl_s) and self.ttl_s > 0):
            raise ValueError("TTL must be finite and positive")
        if self.skew < 0:
            raise ValueError("skew must be >= 0")

    def client_shares(self, rng: np.random.Generator) -> np.ndarray:
        """Per-resolver share of the client load (sums to 1)."""
        ranks = np.arange(1, self.n_resolvers + 1, dtype=float)
        weights = ranks ** (-self.skew)
        rng.shuffle(weights)
        return weights / weights.sum()


class WeightedDnsDispatcher:
    """Simulates hourly weighted-DNS dispatch with TTL caching.

    Parameters
    ----------
    site_names:
        Destination data centers (answer pool).
    population:
        Resolver population model.
    seed:
        RNG seed; the realized routing is reproducible.
    """

    def __init__(
        self,
        site_names: list[str],
        population: ResolverPopulation | None = None,
        seed: int = 0,
    ):
        if not site_names:
            raise ValueError("at least one site required")
        self.site_names = list(site_names)
        self.population = population or ResolverPopulation()
        self._rng = np.random.default_rng(seed)
        self._client_share = self.population.client_shares(self._rng)
        # Current cached answer per resolver (site index), -1 = no cache.
        self._cached = np.full(self.population.n_resolvers, -1, dtype=int)
        # Per-resolver cache-expiry schedule: resolver j re-queries at
        # _next_refresh[j] and every TTL thereafter. Deadlines (not a
        # per-window Bernoulli draw) make sub-TTL windows compose: k
        # consecutive windows summing to one TTL refresh every resolver
        # exactly once, so the realized split *converges* to new
        # weights within one TTL instead of leaving a memoryless stale
        # tail — the property the streaming control plane leans on when
        # it re-dispatches every few minutes against a 300 s TTL.
        self._clock = 0.0
        self._next_refresh = self._rng.uniform(
            0.0, self.population.ttl_s, self.population.n_resolvers
        )

    # -- mechanics ---------------------------------------------------------

    @property
    def clock_s(self) -> float:
        """Simulated seconds this dispatcher has advanced through."""
        return self._clock

    def dispatch_hour(self, target_fractions: dict[str, float]) -> dict[str, float]:
        """Realize one hour of routing toward ``target_fractions``.

        Returns the realized traffic fraction per site. Resolvers whose
        cached answer expired during the hour re-query and are steered
        by the new weights; the rest keep sending to their cached site.
        With a 300 s TTL every resolver refreshes within the hour, so
        the dominant error term is resolution granularity, not lag;
        shorter horizons (see :meth:`dispatch_window`) expose the lag.
        """
        return self.dispatch_window(target_fractions, window_s=3600.0)

    def dispatch_window(
        self, target_fractions: dict[str, float], window_s: float
    ) -> dict[str, float]:
        """Realize routing over an arbitrary window (see above).

        Advances the dispatcher's clock by ``window_s``; every resolver
        whose scheduled expiry falls inside the window re-queries once
        under the *new* weights (its next expiry moves to the first
        schedule point past the window). A window spanning several TTLs
        still re-assigns each resolver once — only the final answer of
        the window carries traffic.
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        targets = np.array(
            [target_fractions.get(name, 0.0) for name in self.site_names]
        )
        if np.any(targets < 0):
            raise ValueError("negative routing fraction")
        total = targets.sum()
        if total <= 0:
            raise ValueError("routing fractions sum to zero")
        targets = targets / total

        ttl = self.population.ttl_s
        self._clock += window_s
        due = self._next_refresh <= self._clock
        never_cached = self._cached < 0
        to_assign = due | never_cached
        n_assign = int(to_assign.sum())
        if n_assign:
            answers = self._rng.choice(
                len(self.site_names), size=n_assign, p=targets
            )
            self._cached[to_assign] = answers
        if due.any():
            behind = self._clock - self._next_refresh[due]
            self._next_refresh[due] += ttl * (np.floor(behind / ttl) + 1.0)

        realized = np.zeros(len(self.site_names))
        np.add.at(realized, self._cached, self._client_share)
        return dict(zip(self.site_names, realized.tolist()))


def routing_error(
    realized: dict[str, float], target: dict[str, float]
) -> float:
    """Total-variation distance between realized and target splits."""
    keys = set(realized) | set(target)
    t_total = sum(target.get(k, 0.0) for k in keys) or 1.0
    return 0.5 * sum(
        abs(realized.get(k, 0.0) - target.get(k, 0.0) / t_total) for k in keys
    )
