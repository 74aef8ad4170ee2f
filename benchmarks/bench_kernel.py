"""Event-core benchmark: events/second of the engine's heap queue.

Two measurements, both deterministic workloads:

* raw queue throughput — push/pop a pre-generated schedule through the
  :class:`~repro.sim.HeapEventQueue` alone, asserting the total order;
* engine throughput — a contended mini-cluster (pipes + resources +
  same-instant collisions) driven end-to-end through :class:`Engine`.

The rendering lands in ``benchmarks/results/kernel.txt`` and the raw
numbers in ``BENCH_kernel.json`` at the repo root, which is what CI
archives to track the kernel's perf trajectory.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.obs import runtime as obs_runtime
from repro.sim import Engine, HeapEventQueue, Pipe, Resource

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: raw-queue schedule size and engine workload shape (events ≈ VMS × OPS)
N_SCHEDULE = 200_000
N_VMS = 2_000
N_OPS = 5


def _schedule(n: int) -> list[tuple]:
    rng = np.random.default_rng(7)
    times = rng.exponential(0.5, size=n).cumsum()
    # mix in same-instant runs: every 16th entry collides with its neighbour
    times[::16] = times[1::16][: times[::16].size]
    tiebreaks = rng.integers(0, 1 << 62, size=n)
    return [
        (float(t), int(tb), seq, None, None)
        for seq, (t, tb) in enumerate(zip(times, tiebreaks))
    ]


def _raw_queue_rate(entries: list[tuple]) -> float:
    queue = HeapEventQueue()
    started = time.perf_counter()
    for entry in entries:
        queue.push(entry)
    drained = []
    while len(queue):
        drained.append(queue.pop())
    elapsed = time.perf_counter() - started
    assert drained == sorted(entries), "heap queue broke the total order"
    return 2 * len(entries) / elapsed  # one push + one pop per entry


def _engine_run() -> tuple[float, int]:
    # the runtime profiler does the measuring: the engine reports its own
    # wall time and exact processed-event count through the observer hooks
    profiler = obs_runtime.RuntimeProfiler()
    with obs_runtime.profiled(profiler):
        engine = Engine(seed=3)
        obs_runtime.attach(engine)
        pipe = Pipe(engine, 1e6, name="link")
        cores = Resource(engine, capacity=4, name="cores")
        counted = 0

        def vm(i):
            nonlocal counted
            yield engine.timeout(float(i % 7))
            for _ in range(N_OPS):
                yield pipe.transfer(1000)
                yield cores.request()
                yield engine.timeout(0.01)
                cores.release()
                counted += 1

        for i in range(N_VMS):
            engine.process(vm(i), label=f"vm:{i}")
        engine.run()
    assert counted == N_VMS * N_OPS
    stats = profiler.engine_stats()
    return stats["wall_s"], int(stats["events"])


def test_kernel_events_per_second(benchmark, record_result):
    entries = _schedule(N_SCHEDULE)

    wall = {}

    def run():
        started = time.perf_counter()
        raw = _raw_queue_rate(entries)
        elapsed, events = _engine_run()
        wall["s"] = time.perf_counter() - started
        return {
            "raw_queue_ops_per_s": raw,
            "engine_events_per_s": events / elapsed,
            "engine_elapsed_s": elapsed,
            "engine_events": events,
        }

    row = benchmark.pedantic(run, rounds=1)

    lines = [
        "Simulation kernel: events/second of the heap event queue",
        "-" * 56,
        f"{'queue':>10s}  {'raw ops/s':>12s}  {'engine ev/s':>12s}",
        f"{'heap':>10s}  {row['raw_queue_ops_per_s']:>12.0f}  "
        f"{row['engine_events_per_s']:>12.0f}",
    ]
    lines.append(
        f"(workload: {N_SCHEDULE} scheduled entries raw; "
        f"{N_VMS} VMs x {N_OPS} contended ops through the engine)"
    )
    record_result("kernel", "\n".join(lines))

    payload = {
        "benchmark": "kernel",
        "workload": {
            "raw_entries": N_SCHEDULE,
            "engine_vms": N_VMS,
            "engine_ops_per_vm": N_OPS,
        },
        "queues": {"heap": row},
        # host-side runtime telemetry: machine-dependent, so the CI perf
        # gate diffs only the throughput metrics (--metric per_s)
        "runtime": {
            "bench_wall_s": wall["s"],
            "rss_high_water_bytes": obs_runtime.rss_high_water_bytes(),
        },
    }
    (REPO_ROOT / "BENCH_kernel.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
