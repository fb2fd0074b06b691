"""Self-tests of the benchmark harness.

Run from the repo root: ``python -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import pathlib
import subprocess
import sys
import time

import pytest

from perfbench import speed
from perfbench.checks import Tally, check_decision, check_hour
from perfbench.layers import (
    HourClock,
    TimedSolver,
    answered_by,
    engine_bins,
    stage_self_times,
)
from perfbench.stats import percentile
from perfbench.workloads import WORKLOADS, PaperMonth, ServeStorm

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Horizons small enough for a smoke run of each workload.
TINY_HOURS = {"paper-month": 24, "peak-month": 24, "closed-loop": 6,
              "serve-storm": 8}


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--hours", str(TINY_HOURS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_workloads_are_harness_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(names) >= 2
    assert set(names) <= set(WORKLOADS)


def test_unknown_workload_fails_without_a_result():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "no-such",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("workload", sorted(TINY_HOURS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_named_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in group}
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["better"] in ("higher", "lower")
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, name


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-month",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# -- engine attribution -------------------------------------------------------


class _FakeSolver:
    """Moves the counters of a scripted engine on every solve."""

    def __init__(self, script):
        self.script = list(script)

    def solve(self, *args, **kwargs):
        from repro.telemetry import get_telemetry

        for name in self.script.pop(0):
            get_telemetry().counter(name).inc()
        return "decision"


def test_engine_attribution_bins_a_synthetic_call_sequence():
    from repro.telemetry import Telemetry, use_telemetry

    script = [
        ["core.enum_kernel.solved"],
        # A B&B solve also moves its LP engine's counter.
        ["core.enum_kernel.bail", "solver.simplex.solves",
         "solver.branch-bound.solves"],
        ["solver.scipy.solves"],
        ["solver.scipy-linprog.solves"],
        [],
        ["core.enum_kernel.solved"],
    ]
    log = []
    solver = TimedSolver(_FakeSolver(script), "cost_min", log)
    with use_telemetry(Telemetry()):
        for _ in range(len(script)):
            assert solver.solve([], 1.0) == "decision"
    assert [engine for _, _, engine in log] == [
        "kernel", "bb", "highs", "highs", "other", "kernel",
    ]
    bins = engine_bins(log)
    assert len(bins["kernel"]) == 2 and len(bins["highs"]) == 2
    assert all(seconds >= 0 for _, seconds, _ in log)


def test_answered_by_prefers_kernel_then_bb_then_highs():
    before = {"core.enum_kernel.solved": 3.0}
    assert answered_by(before, {"core.enum_kernel.solved": 3.0}) == "other"
    assert answered_by(
        before,
        {"core.enum_kernel.solved": 3.0, "solver.branch-bound.solves": 1.0,
         "solver.scipy.solves": 1.0},
    ) == "bb"


def test_stage_self_time_excludes_the_nested_fixed_point():
    from repro.telemetry import Tracer

    tracer = Tracer()
    with tracer.span("bench.hour") as hour:
        with tracer.span("engine.dispatch") as dispatch:
            with tracer.span("closedloop.apply") as apply:
                pass
        with tracer.span("engine.realize") as realize:
            pass
    hour.duration_s, dispatch.duration_s = 10.0, 8.0
    apply.duration_s, realize.duration_s = 6.0, 1.0
    per_stage, applies, cover = stage_self_times(tracer.finished)
    assert per_stage["dispatch"] == [2.0]
    assert per_stage["realize"] == [1.0]
    assert applies == [6.0]
    assert cover == pytest.approx(0.9)


class _ScriptedClock:
    """Stands in for the ``time`` module with scripted readings."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def process_time(self):
        return next(self._readings)


def test_hour_clock_keeps_reference_seconds(monkeypatch):
    import perfbench.layers as layers

    # Hour opens at 0 s, the dispatcher runs from 1 s to 4 s, the hour
    # closes at 5 s; the probes around it read 1x and 3x the reference.
    monkeypatch.setattr(layers, "time", _ScriptedClock([0.0, 1.0, 4.0, 5.0]))
    probes = iter([speed.PROBE_REF_S, 3 * speed.PROBE_REF_S])
    clock = HourClock(probe=lambda: next(probes))
    with clock.hour(None, None):
        with clock.dispatcher.stage("dispatch", None, None):
            pass
    # The core ran at half the reference speed: times read halved.
    assert clock.hour_s == [2.5]
    assert clock.dispatch_s == [1.5]
    assert clock.publish_s == [0.5]


def test_sampler_scales_cpu_time_by_the_mean_reading(monkeypatch):
    monkeypatch.setattr(speed, "probe_s", lambda: 4 * speed.PROBE_REF_S)
    sampler = speed.Sampler(period_s=0.001).start()
    time.sleep(0.05)
    cpu_s = time.process_time()
    setup_s = sampler.stop()
    assert sampler.readings
    assert 0 < setup_s <= 0.25 * cpu_s


def test_core_probes_read_every_core_and_stop():
    with speed.CoreProbes(period_s=0.005) as probes:
        time.sleep(0.2)
    assert probes.scale > 0
    assert not any(proc.is_alive() for proc, _ in probes._procs)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([], 50) == 0.0


# -- output checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def paper_pass():
    workload = PaperMonth(0, hours=6)
    workload.setup()
    return workload, workload.run_pass()


def test_a_clean_pass_passes_every_check(paper_pass):
    _, result = paper_pass
    assert result.tally.attempted == 6
    assert result.tally.failed == 0
    assert result.tally.consistent


def test_planted_bad_hours_lower_ok_ops(paper_pass):
    workload, _ = paper_pass
    from repro.sim.strategies import CappingStrategy

    record = workload.engine.run(CappingStrategy(), hours=1).hours[0]
    spend = sum(li.amount for li in record.line_items)
    cap = workload.capacity(0)
    clean = check_hour(record, capacity_rps=cap, ledger_spend=spend)
    assert clean == []
    short = dataclasses.replace(
        record, served_premium_rps=0.5 * record.demand_premium_rps
    )
    assert check_hour(short, capacity_rps=cap, ledger_spend=spend) == [
        "premium-served"
    ]
    over = dataclasses.replace(record, budget=0.5 * spend)
    assert check_hour(over, capacity_rps=cap, ledger_spend=spend) == [
        "overspend-unflagged"
    ]
    assert check_hour(
        record, capacity_rps=cap, ledger_spend=spend + 1.0
    ) == ["line-items"]
    tally = Tally()
    for rec, ledger in ((record, spend), (short, spend), (record, spend + 1)):
        tally.record(check_hour(rec, capacity_rps=cap, ledger_spend=ledger))
    assert tally.ok_frac == pytest.approx(1 / 3)
    assert not tally.consistent


def test_planted_bad_decision_lowers_ok_ops():
    event = {
        "step": "cost-min", "lambda_rps": 100.0, "budget": 10.0,
        "realized_cost_rate": 5.0, "allocations": [["DC1", 100.0]],
    }
    assert check_decision(event, capacity_rps=1e9, premium_fraction=0.8) == []
    short = dict(event, allocations=[["DC1", 60.0]])
    assert check_decision(short, capacity_rps=1e9, premium_fraction=0.8) == [
        "premium-served"
    ]
    # Offered premium beyond what the region can serve is not a failure.
    assert check_decision(short, capacity_rps=60.0, premium_fraction=0.8) == []
    over = dict(event, realized_cost_rate=11.0)
    assert check_decision(over, capacity_rps=1e9, premium_fraction=0.8) == [
        "overspend-unflagged"
    ]
    assert check_decision(
        dict(over, step="premium-only"), capacity_rps=1e9,
        premium_fraction=0.8,
    ) == []
    tally = Tally()
    for e in (event, short, over, event):
        tally.record(
            check_decision(e, capacity_rps=1e9, premium_fraction=0.8)
        )
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.ok_frac == 0.5


# -- serve determinism --------------------------------------------------------


def test_two_worker_storm_log_equals_the_serial_reference(tmp_path):
    from repro.service import run_sharded_serial

    workload = ServeStorm(0, hours=3, out_dir=tmp_path)
    workload.setup()
    try:
        result = workload.run_pass()
        merged = (workload.out_dir / "decisions.jsonl").read_bytes()
    finally:
        workload.close()
    assert result.tally.consistent
    reference, _ = run_sharded_serial(workload.spec)
    assert merged == "".join(line + "\n" for line in reference).encode()
    assert result.decisions == len(reference) > 0
