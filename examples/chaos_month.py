#!/usr/bin/env python
"""Chaos run: a fault-injected Cost Capping month that must not crash.

The paper's control loop runs hourly against real-world inputs — ISO
price feeds, background-demand telemetry, a MILP stack, a stateful
budgeter — every one of which can fail. This example drives the
engine through a seeded storm of those failures and checks the
graceful-degradation contract:

* every hour still carries a dispatch decision (no crashed hours);
* solver-stack failures are dispatched by a degradation policy and
  marked as DEGRADED hours;
* budgeter restarts resume from the hourly checkpoint;
* telemetry counts every injected fault and degraded hour;
* with no faults, the engine's output is bit-identical to a plain
  run (the resilience layer is pay-per-fault).

Run ``python examples/chaos_month.py --hours 48`` for the CI-sized
smoke; the assertions make it a self-checking chaos test.
"""

import argparse

from repro.experiments import paper_world
from repro.resilience import DegradationPolicy, FaultInjector, FaultSpec
from repro.sim import Engine
from repro.telemetry import Telemetry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=int, default=72)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    world = paper_world(max_servers=500_000, seed=3)
    engine = Engine(world.sites, world.workload, world.mix)

    # Anchor: an uncapped run prices the month and doubles as the
    # bit-identical reference for the fault-free path below.
    anchor = engine.run("capping", hours=args.hours, name="anchor")
    monthly = anchor.total_cost * world.hours / args.hours * 0.9
    print(f"anchor (no faults):  ${anchor.total_cost:,.0f} over {args.hours} h "
          f"-> monthly budget ${monthly:,.0f}")

    # The storm: stale prices, dead sensors, solver deaths and
    # timeouts, budgeter restarts — all seeded, all per-hour Bernoulli.
    spec = FaultSpec(
        price_stale=0.15,
        sensor_dropout=0.10,
        solver_error=0.12,
        solver_timeout=0.05,
        budget_loss=0.05,
        seed=args.seed,
    )
    injector = FaultInjector(spec)
    injected = injector.schedule_counts(args.hours)
    print("fault schedule:      "
          + ", ".join(f"{k}={v}" for k, v in injected.items() if v))

    tel = Telemetry()
    chaos_engine = Engine(world.sites, world.workload, world.mix, telemetry=tel)
    result = chaos_engine.run(
        "capping",
        budgeter=world.budgeter(monthly),
        hours=args.hours,
        name="chaos",
        faults=injector,
        degradation=DegradationPolicy.PROPORTIONAL,
    )

    print(f"\n[chaos month, {args.hours} h]")
    print(f"  total cost:          ${result.total_cost:,.0f}")
    print(f"  premium throughput:  {result.premium_throughput_fraction:.2%}")
    print(f"  ordinary throughput: {result.ordinary_throughput_fraction:.2%}")
    print(f"  degraded hours:      {result.degraded_hours}")
    print(f"  steps: " + ", ".join(
        f"{step.value}={n}" for step, n in sorted(
            result.step_counts().items(), key=lambda kv: kv[0].value
        )
    ))
    counters = {
        metric.name: metric.value
        for metric in tel.registry
        if metric.name.startswith("resilience.")
    }
    for name in sorted(counters):
        print(f"  {name}: {counters[name]:.0f}")

    # -- the graceful-degradation contract --------------------------------
    assert len(result.hours) == args.hours, "an hour lost its dispatch"
    assert all(h.sites for h in result.hours), "an hour carries no allocation"
    assert result.degraded_hours > 0, "storm produced no degraded hours"
    assert counters.get("resilience.degraded_hours", 0) > 0
    assert sum(
        v for k, v in counters.items() if k.startswith("resilience.injected.")
    ) > 0, "telemetry recorded no injected faults"

    # Fault-free determinism: a zero-probability injector must reproduce
    # the anchor bit for bit.
    clean_engine = Engine(world.sites, world.workload, world.mix)
    clean = clean_engine.run(
        "capping",
        hours=args.hours,
        name="anchor",
        faults=FaultInjector(FaultSpec()),
    )
    assert [h.realized_cost for h in clean.hours] == [
        h.realized_cost for h in anchor.hours
    ], "fault-free path diverged from the plain run"

    print("\nall chaos invariants hold: every hour dispatched, degraded "
          "hours counted, fault-free path bit-identical.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
