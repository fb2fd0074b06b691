"""A speed probe that puts timings on a steady scale.

Two things move timings on a shared host whatever the program does:
the hypervisor takes the CPU away for a while (steal), and the cores
switch between speeds about 1.7x apart for seconds at a time. Timings
are therefore taken next to readings of a fixed probe kernel and kept
in *reference seconds*: seconds times :data:`PROBE_REF_S` over the
probe time read at that moment. Single-process work is timed in
process CPU time, which also leaves out steal; the sharded plane is
timed in wall time. A change that makes the program slower still
reads slower, since the probe does not run program code.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.random((6, 6))
_V = _RNG.random(6)
#: Seconds one warm probe takes on an uncontended core of the reference
#: host (a 2-core x86-64 VM).
PROBE_REF_S = 80e-6


def _kernel() -> float:
    """A fixed mix of interpreter and small-array work, like an hour's."""
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i % 13] = counts.get(i % 13, 0) + i
    acc = 0.0
    for _ in range(20):
        acc += float((_A @ _V).sum())
    return acc


def probe_s() -> float:
    """CPU seconds a warm run of the probe kernel takes on this core now.

    The first run is untimed, so the reading reflects the core's speed
    rather than the cache state the program left behind. The reading is
    the calling thread's CPU time, so other threads do not inflate it.
    """
    _kernel()
    start = time.thread_time()
    _kernel()
    return time.thread_time() - start


class Sampler:
    """Probes every ``period_s`` from a side thread while work runs.

    For one-shot work (the workload's set-up) that no hook can bracket
    finely. :meth:`stop` returns the process's CPU seconds so far, less
    the sampler's own, in reference seconds.
    """

    def __init__(self, period_s: float = 0.01):
        self.period_s = period_s
        self.readings: list[float] = []
        self.own_cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            self.readings.append(probe_s())
        self.own_cpu_s = time.thread_time()

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        cpu_s = time.process_time() - self.own_cpu_s
        if not self.readings:
            return cpu_s
        return cpu_s * PROBE_REF_S / (sum(self.readings) / len(self.readings))


def _probe_core(cpu: int, period_s: float, stop, conn) -> None:
    """Child process: probe one core every ``period_s`` until ``stop``."""
    os.sched_setaffinity(0, {cpu})
    readings = []
    while not stop.wait(period_s):
        readings.append(probe_s())
    conn.send(readings)
    conn.close()


class CoreProbes:
    """One probing process pinned to each core while work runs.

    For work spread over processes the benchmark cannot hook (the shard
    workers): each prober wakes every ``period_s`` and reads the probe
    in its own CPU time, so the workers it preempts do not inflate the
    reading. On exit, :attr:`scale` is the factor from seconds to
    reference seconds over the block, averaged over every core.
    """

    def __init__(self, period_s: float = 0.05):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._stop = ctx.Event()
        self._procs = []
        for cpu in sorted(os.sched_getaffinity(0)):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_probe_core,
                args=(cpu, period_s, self._stop, send),
                daemon=True,
            )
            self._procs.append((proc, recv))

    def __enter__(self) -> "CoreProbes":
        for proc, _ in self._procs:
            proc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.scale = self._collect()

    def _collect(self) -> float:
        self._stop.set()
        readings = []
        for proc, recv in self._procs:
            if recv.poll(10.0):
                readings.extend(recv.recv())
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        if not readings:
            return 1.0
        return PROBE_REF_S / (sum(readings) / len(readings))
