"""Session-wide fixtures for the figure benchmarks.

The expensive artifacts — the assembled paper world and the uncapped
month simulation every budget level is anchored against — are built
once per pytest session and shared by all benchmark files.

``BENCH_HOURS`` trades fidelity for wall-clock: the default 360 hours
(15 days) preserves every qualitative feature (two full weeks plus
change for the budgeter's weekly structure); set the environment
variable ``REPRO_BENCH_HOURS=720`` for the full month.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import paper_world
from repro.sim import Engine

#: Simulated horizon per strategy run (hours).
BENCH_HOURS = int(os.environ.get("REPRO_BENCH_HOURS", "360"))


@pytest.fixture(scope="session", autouse=True)
def bench_telemetry():
    """Machine-readable telemetry sidecar for benchmark runs.

    Set ``REPRO_BENCH_TELEMETRY=1`` to record spans and solver metrics
    across the whole benchmark session and write them to
    ``benchmarks/results/telemetry.jsonl`` (inspect with
    ``repro telemetry summary``). Off by default so timing benchmarks
    measure the uninstrumented no-op path.
    """
    if not os.environ.get("REPRO_BENCH_TELEMETRY"):
        yield None
        return
    from repro.telemetry import Telemetry, use_telemetry, write_jsonl

    from _report import RESULTS_DIR

    tel = Telemetry()
    with use_telemetry(tel):
        yield tel
    path = write_jsonl(tel, RESULTS_DIR / "telemetry.jsonl")
    print(f"\ntelemetry sidecar written to {path}")


@pytest.fixture(scope="session")
def world():
    """The canonical Section VI world (Policy 1)."""
    return paper_world()


@pytest.fixture(scope="session")
def engine(world):
    return Engine(world.sites, world.workload, world.mix)


@pytest.fixture(scope="session")
def uncapped(engine):
    """Uncapped Cost Capping over the bench horizon (budget anchor)."""
    return engine.run("capping", hours=BENCH_HOURS)


@pytest.fixture(scope="session")
def min_only_avg(engine):
    return engine.run("min-only-avg", hours=BENCH_HOURS)


@pytest.fixture(scope="session")
def min_only_low(engine):
    return engine.run("min-only-low", hours=BENCH_HOURS)


def monthly_budget_from(uncapped_result, world, fraction: float) -> float:
    """Anchor a monthly budget at ``fraction`` of the uncapped spend."""
    scale = world.hours / len(uncapped_result)
    return uncapped_result.total_cost * scale * fraction


def run_once(benchmark, fn):
    """Run a month-scale simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
