"""Streaming inputs for the control plane: λ and price-feed ticks.

The batch engine observes the workload once per hour; the streaming
control plane instead consumes a totally ordered sequence of
:class:`Tick` events carrying *simulated* time. Two tick kinds exist:

* ``"lambda"`` — the monitored total request rate (requests/second)
  across the whole client base;
* ``"price"`` — a per-site price-feed *scale*: the site's background
  market demand is multiplied by this factor (a proxy for the
  locational price signal moving intra-hour). A decision is dispatched
  on *and* billed at the price-feed view as of its dispatch, and that
  price holds while the decision is in force: a tick moves the bill only
  through the re-dispatch it triggers (``price_delta``, or the
  ``max_staleness_s`` deadline, see
  :class:`~repro.service.controller.TriggerPolicy`).

Sources are ordinary functions returning a finite ``list[Tick]`` — the
whole stream is materialized up front so a serial drive, the asyncio
service, and a killed-and-resumed service all iterate the *same*
sequence (seeded NumPy generators, no wall clock anywhere). Both
sources guarantee a λ tick exactly at every hour boundary they cover,
so the control loop always has a fresh observation when an hour opens.

:func:`replay_ticks` interpolates an hourly :class:`~repro.workload.Trace`
(sub-hourly linear ramp between consecutive hourly means, optional
seeded multiplicative jitter). :func:`bursty_ticks` modulates the same
ramp with hyperexponential burst factors from
:mod:`repro.workload.burstiness`, producing the flash-crowd-like
sub-hourly swings that exercise the trigger policy. Both optionally
emit per-site price-scale ticks following a seeded, clipped
multiplicative random walk. :func:`build_ticks` maps a plain-dict spec
(what ``repro serve`` stores in its checkpoint meta) onto a source, so
``--resume`` rebuilds the identical stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..workload import Trace
from ..workload.burstiness import hyperexp_arrivals

__all__ = ["Tick", "replay_ticks", "bursty_ticks", "build_ticks"]

#: Default scale-walk clamp: a site's observed background demand never
#: drifts outside [1/2x, 2x] of the truth.
_SCALE_LO, _SCALE_HI = 0.5, 2.0


@dataclass(frozen=True)
class Tick:
    """One timestamped observation consumed by the control loop.

    Attributes
    ----------
    seq:
        Position in the stream (0-based, contiguous within a source).
        Checkpoints store the first unconsumed ``seq``; resume skips
        everything before it.
    time_s:
        Simulated time of the observation, seconds from hour 0.
    kind:
        ``"lambda"`` or ``"price"``.
    value:
        The observed total request rate (rps) or the price-feed scale.
    site:
        The site a price tick applies to; ``None`` for λ ticks.
    """

    seq: int
    time_s: float
    kind: str
    value: float
    site: str | None = None

    def __post_init__(self):
        if self.kind not in ("lambda", "price"):
            raise ValueError(f"unknown tick kind {self.kind!r}")
        if self.kind == "price" and self.site is None:
            raise ValueError("price ticks must name a site")
        # `nan < 0` is false: a bare sign check would let NaN through.
        if not (math.isfinite(self.time_s) and self.time_s >= 0):
            raise ValueError(
                f"tick time must be finite and >= 0, got {self.time_s!r}"
            )
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(
                f"tick value must be finite and >= 0, got {self.value!r}"
            )

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time_s": self.time_s,
            "kind": self.kind,
            "value": self.value,
            "site": self.site,
        }


def _finalize(events: list[tuple[float, str, str | None, float]]) -> list[Tick]:
    """Order events and assign contiguous sequence numbers.

    The sort key is ``(time, kind, site)`` — deterministic even when a
    λ tick and price ticks share a timestamp (λ sorts first, so the
    dispatcher reacting to the λ observation already sees the
    coincident state the same way on every drive).
    """
    events.sort(key=lambda e: (e[0], e[1], e[2] or ""))
    return [
        Tick(seq=i, time_s=t, kind=kind, value=value, site=site)
        for i, (t, kind, site, value) in enumerate(events)
    ]


def _check_args(trace: Trace, ticks_per_hour: int, hours: int | None) -> int:
    if ticks_per_hour < 1:
        raise ValueError("ticks_per_hour must be >= 1")
    n_hours = trace.hours if hours is None else int(hours)
    if not 0 < n_hours <= trace.hours:
        raise ValueError(f"hours must be in 1..{trace.hours}")
    return n_hours


def _ramp(trace: Trace, hour: int, frac: float) -> float:
    """Sub-hourly λ: linear ramp between consecutive hourly means."""
    rates = trace.rates_rps
    here = float(rates[hour])
    there = float(rates[hour + 1]) if hour + 1 < len(rates) else here
    return here + (there - here) * frac


def _price_walk_events(
    events: list,
    sites: tuple[str, ...],
    n_hours: int,
    price_jitter: float,
    rng: np.random.Generator,
) -> None:
    """Append one mid-hour price-scale tick per site per hour.

    Each site's scale follows a clipped multiplicative random walk
    (lognormal steps of width ``price_jitter``), the standard small
    model for an intra-hour market signal drifting around its hourly
    mean. Ticks land at half past the hour, staggered a deterministic
    few seconds apart per site so no two events ever share an exact
    ``(time, kind, site)`` triple with a λ tick.
    """
    scales = {name: 1.0 for name in sites}
    for h in range(n_hours):
        for i, name in enumerate(sites):
            step = float(rng.normal(0.0, price_jitter))
            scales[name] = float(
                np.clip(scales[name] * np.exp(step), _SCALE_LO, _SCALE_HI)
            )
            events.append((h * 3600.0 + 1800.0 + i, "price", name, scales[name]))


def replay_ticks(
    trace: Trace,
    *,
    ticks_per_hour: int = 12,
    hours: int | None = None,
    jitter: float = 0.0,
    price_jitter: float = 0.0,
    sites: tuple[str, ...] = (),
    seed: int = 0,
) -> list[Tick]:
    """Replay an hourly trace as a sub-hourly λ tick stream.

    Emits ``ticks_per_hour`` evenly spaced λ ticks per hour — the first
    exactly at the hour boundary — linearly interpolated between the
    hourly means, optionally perturbed by seeded multiplicative
    Gaussian ``jitter`` (relative standard deviation). With
    ``price_jitter > 0`` each named site also gets one mid-hour
    price-scale tick per hour (see :func:`_price_walk_events`).
    """
    n_hours = _check_args(trace, ticks_per_hour, hours)
    if jitter < 0 or price_jitter < 0:
        raise ValueError("jitter must be >= 0")
    rng = np.random.default_rng(seed)
    dt = 3600.0 / ticks_per_hour
    events: list[tuple[float, str, str | None, float]] = []
    for h in range(n_hours):
        for k in range(ticks_per_hour):
            lam = _ramp(trace, h, k / ticks_per_hour)
            if jitter > 0:
                lam *= max(0.0, 1.0 + jitter * float(rng.normal()))
            events.append((h * 3600.0 + k * dt, "lambda", None, lam))
    if price_jitter > 0 and sites:
        _price_walk_events(events, tuple(sites), n_hours, price_jitter, rng)
    return _finalize(events)


def bursty_ticks(
    trace: Trace,
    *,
    ticks_per_hour: int = 12,
    hours: int | None = None,
    ca2: float = 4.0,
    price_jitter: float = 0.0,
    sites: tuple[str, ...] = (),
    seed: int = 0,
) -> list[Tick]:
    """Synthetic bursty λ stream: the hourly ramp times burst factors.

    Each λ tick's rate is the interpolated hourly mean multiplied by a
    unit-mean hyperexponential factor with squared coefficient of
    variation ``ca2`` (:func:`~repro.workload.burstiness.
    hyperexp_arrivals` with rate 1, so samples *are* the multipliers).
    CA2 well above 1 produces the short savage spikes that drive the
    trigger policy's λ-delta path; ``ca2`` must exceed 1 (use
    :func:`replay_ticks` for smooth feeds).
    """
    n_hours = _check_args(trace, ticks_per_hour, hours)
    if price_jitter < 0:
        raise ValueError("jitter must be >= 0")
    rng = np.random.default_rng(seed)
    bursts = hyperexp_arrivals(
        1.0, ca2, n_hours * ticks_per_hour, seed=seed + 1
    )
    dt = 3600.0 / ticks_per_hour
    events: list[tuple[float, str, str | None, float]] = []
    for h in range(n_hours):
        for k in range(ticks_per_hour):
            lam = _ramp(trace, h, k / ticks_per_hour)
            lam *= float(bursts[h * ticks_per_hour + k])
            events.append((h * 3600.0 + k * dt, "lambda", None, lam))
    if price_jitter > 0 and sites:
        _price_walk_events(events, tuple(sites), n_hours, price_jitter, rng)
    return _finalize(events)


def build_ticks(trace: Trace, spec: dict) -> list[Tick]:
    """Instantiate a tick stream from a plain-dict source spec.

    The spec is what ``repro serve`` persists in its checkpoint meta::

        {"kind": "replay" | "bursty", "ticks_per_hour": 12, "hours": 24,
         "seed": 0, "jitter": 0.02,          # replay only
         "ca2": 4.0,                          # bursty only
         "price_jitter": 0.0, "sites": ["CA", ...]}

    so that ``--resume`` rebuilds the byte-identical stream from disk
    without re-supplying CLI flags.
    """
    kind = spec.get("kind")
    common = dict(
        ticks_per_hour=int(spec.get("ticks_per_hour", 12)),
        hours=spec.get("hours"),
        price_jitter=float(spec.get("price_jitter", 0.0)),
        sites=tuple(spec.get("sites", ())),
        seed=int(spec.get("seed", 0)),
    )
    if kind == "replay":
        return replay_ticks(trace, jitter=float(spec.get("jitter", 0.0)), **common)
    if kind == "bursty":
        return bursty_ticks(trace, ca2=float(spec.get("ca2", 4.0)), **common)
    raise ValueError(f"unknown tick source kind {kind!r}")
