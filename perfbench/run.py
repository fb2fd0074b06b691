"""The benchmark's one command.

    python3 perfbench/run.py --workload paper-month --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. A timed run (``--trace 0``) starts
three fresh interpreters one after another. Each sets up the workload
(``setup_s`` is the median, over the three, of the CPU time from
process start to the first hour ready, in reference seconds: see
``perfbench/speed.py``) and then replays it in whole passes for a
third of ``--seconds``, checking every pass's outputs. The command
pools the three interpreters' samples, prints a human-readable summary,
and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``,
measured with telemetry off. ``--trace 1`` is a separate run in one
interpreter that alternates untraced and traced passes and reports
every per-layer metric, including ``telemetry.overhead_frac``; its
trace is written in the repo's JSONL telemetry format under
``.perfbench/`` for ``repro telemetry summary``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: A run (all its interpreters) must finish inside this many seconds.
RUN_DEADLINE_S = 170.0
#: Simulated hours each interpreter measures at least: two passes of
#: the 24-hour workloads, so every hour of a median replay is a median
#: over six passes or more.
MIN_HOURS = 48
#: Fresh interpreters per timed run. Each gives one set-up time and
#: measures a share of the run: a process's memory layout moves its
#: speed by several percent for its whole life, so pooling three
#: processes narrows the run-to-run spread.
INTERPRETERS = 3


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--hours", type=int, default=None,
                   help="override the workload horizon (self-tests)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


# -- the measuring interpreter ------------------------------------------------


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _by_hour(lists) -> list[float]:
    """Per-index medians of equally long sample lists."""
    from perfbench.stats import median

    return [median(column) for column in zip(*lists)]


def _end_to_end(passes: list[dict], replay: bool) -> dict:
    """Timing metrics over the passes of every measuring interpreter.

    Batch passes replay the same hours, so each hour's time is the
    median over the passes (the *median replay*) and every metric is
    read from that. Serve passes do not line up; each metric is the
    median over passes of the per-pass figure.
    """
    from perfbench.stats import median, percentile

    passes = [p for p in passes if p["hour_s"]]
    if replay:
        hour_s, publish_s, dispatch_s = (
            _by_hour(p[key] for p in passes)
            for key in ("hour_s", "publish_s", "dispatch_s")
        )
        return {
            "hours_per_s": len(hour_s) / sum(hour_s),
            "hour_ms_p50": percentile(hour_s, 50) * 1e3,
            "hour_ms_p90": percentile(hour_s, 90) * 1e3,
            "decisions_per_s": len(dispatch_s) / sum(dispatch_s),
            "publish_ms_p50": percentile(publish_s, 50) * 1e3,
            "publish_ms_p99": percentile(publish_s, 99) * 1e3,
        }
    return {
        "hours_per_s": median(len(p["hour_s"]) / sum(p["hour_s"])
                              for p in passes),
        "hour_ms_p50": median(percentile(p["hour_s"], 50) for p in passes)
        * 1e3,
        "hour_ms_p90": median(percentile(p["hour_s"], 90) for p in passes)
        * 1e3,
        "decisions_per_s": median(p["decisions"] / p["decide_s"]
                                  for p in passes),
        "publish_ms_p50": median(percentile(p["publish_s"], 50)
                                 for p in passes) * 1e3,
        "publish_ms_p99": median(percentile(p["publish_s"], 99)
                                 for p in passes) * 1e3,
    }


def _outputs(first) -> dict:
    """The deterministic metrics, from one pass (every pass is equal)."""
    return {
        "bill_usd": first.bill,
        "ordinary_served_frac": (
            first.served_ordinary / first.demand_ordinary
            if first.demand_ordinary else 0.0
        ),
        "within_budget_frac": (
            first.within_budget / first.budget_periods
            if first.budget_periods else 0.0
        ),
    }


def _child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.speed import Sampler

    sampler = Sampler().start()
    from perfbench.checks import Tally
    from perfbench.stats import median
    from perfbench.workloads import WORKLOADS, Trace

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; available: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, hours=args.hours)
    workload.setup()
    print(f"READY {sampler.stop()!r}", flush=True)
    try:
        deadline = time.perf_counter() + args.seconds
        results, trace = [], None
        if args.trace:
            from repro.telemetry import Telemetry

            trace = Trace(tel=Telemetry())
        # Whole passes while one more, as long as the last, would end
        # by the deadline, and at least MIN_HOURS simulated hours.
        while True:
            start = time.perf_counter()
            results.append(workload.run_pass())
            if trace is not None:
                results.append(workload.run_pass(trace))
            now = time.perf_counter()
            enough = len(results) * workload.hours >= MIN_HOURS
            if enough and now + (now - start) > deadline:
                break
        tally = Tally()
        for r in results:
            tally.merge(r.tally)
        out = {
            "consistent": tally.consistent,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "checks": dict(tally.by_check),
            "fingerprints": sorted({r.fingerprint for r in results}),
            "peak_rss_mb": _peak_rss_mb(),
        }
        if trace is None:
            out["outputs"] = _outputs(results[0])
            out["replay"] = workload.replay
            out["passes"] = [
                {
                    "hour_s": r.hour_s,
                    "publish_s": r.publish_s,
                    "dispatch_s": r.dispatch_s,
                    "decisions": r.decisions,
                    "decide_s": r.decide_s,
                }
                for r in results
            ]
        else:
            from repro.telemetry import write_jsonl

            metrics = workload.layer_metrics(trace)
            # Passes alternate untraced, traced; compare their hour time.
            untraced, traced = (
                median(sum(r.hour_s) for r in results[i::2]) for i in (0, 1)
            )
            metrics["telemetry.overhead_frac"] = traced / untraced - 1.0
            out["metrics"] = metrics
            out["passes"] = len(results)
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            out["trace_file"] = str(write_jsonl(trace.tel, path))
        print(json.dumps(out), flush=True)
    finally:
        workload.close()
    return 0


# -- the orchestrating process ------------------------------------------------


def _spawn(args, seconds: float, deadline: float):
    """Run one child interpreter; return (its set-up time, its result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--child", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace),
    ]
    if args.hours is not None:
        cmd += ["--hours", str(args.hours)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(
        max(0.0, deadline - time.monotonic()), proc.kill
    )
    watchdog.start()
    setup_s, last = None, None
    try:
        for line in proc.stdout:
            if setup_s is None and line.startswith("READY "):
                setup_s = float(line[6:])
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or last is None:
        raise RuntimeError(f"measuring interpreter exited with code {code}")
    return setup_s, json.loads(last)


def _units(spec: dict, trace: int) -> dict[str, str]:
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def _pooled(args, children: list[dict], setups: list[float]) -> dict:
    """One result from the measuring interpreters' results."""
    first = children[0]
    fingerprints = {f for c in children for f in c["fingerprints"]}
    result = {
        # Every pass of every interpreter must reproduce the first.
        "correct": all(c["consistent"] for c in children)
        and len(fingerprints) == 1,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "checks": {},
    }
    for c in children:
        for check, count in c["checks"].items():
            result["checks"][check] = result["checks"].get(check, 0) + count
    if args.trace:
        result["metrics"] = first["metrics"]
        result["passes"] = first["passes"]
        result["trace_file"] = first["trace_file"]
        return result
    passes = [p for c in children for p in c["passes"]]
    metrics = _end_to_end(passes, first["replay"])
    metrics.update(first["outputs"])
    metrics["ok_ops_frac"] = (
        (result["attempted"] - result["failed"]) / result["attempted"]
        if result["attempted"] else 0.0
    )
    metrics["peak_rss_mb"] = statistics.median(
        c["peak_rss_mb"] for c in children
    )
    metrics["setup_s"] = statistics.median(setups)
    result["metrics"] = metrics
    result["passes"] = len(passes)
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT))
    if args.child:
        return _child(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("error: run from a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S
    count = 1 if args.trace else INTERPRETERS
    setups, children = [], []
    try:
        for _ in range(count):
            setup_s, child = _spawn(args, args.seconds / count, deadline)
            setups.append(setup_s)
            children.append(child)
    except (RuntimeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = _pooled(args, children, setups)
    metrics = result["metrics"]
    units = _units(spec, args.trace)
    # Per-layer metrics of layers a workload does not run read 0; a
    # metric the spec does not name is a harness defect.
    unknown = sorted(set(metrics) - set(units))
    missing = [] if args.trace else sorted(set(units) - set(metrics))
    if unknown or missing:
        print(f"error: metrics unknown {unknown}, missing {missing}",
              file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {result['passes']} passes in "
          f"{count} interpreters, {result['attempted']} operations checked, "
          f"{result['failed']} failed")
    for check, n in sorted(result["checks"].items()):
        print(f"  failed check {check}: {n}")
    if result.get("trace_file"):
        print(f"  trace: {result['trace_file']}")
    report = {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for name, m in report.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
