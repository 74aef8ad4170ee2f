"""Run one benchmark job in a fresh process; print its figures as JSON.

    python3 perfbench/job.py --workload storm-64x8 --seed 0 [--traced]
        [--toy] [--span-log PATH]

The parent (``run.py``) starts one of these per job, so every job pays the
same cold start and no memo survives from one job to the next. The job
runs single-threaded in this process. Host time is split into the
``repro`` import, set-up, the simulation runs and reporting (see
``layers.PhaseClock``); with ``--traced`` every layer's entry points are
spanned too and the span log is written to ``--span-log`` at exit.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--span-log", type=Path)
    args = parser.parse_args(argv)

    import layers
    import workloads

    import_s = time.perf_counter() - T0
    job = workloads.WORKLOADS[args.workload][1 if args.toy else 0]
    inputs = job.inputs(args.seed)
    phases = layers.PhaseClock()
    log = layers.SpanLog() if args.traced else None
    with layers.instrumented(phases, log) as completed:
        phases.start()  # after the probes are in
        started = time.perf_counter()
        reports = job.run(inputs)
        report_digest = workloads.digest(reports)
        job_s = time.perf_counter() - started
        totals = phases.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, ops_completed, errors, sim = job.account(
        inputs, reports, completed
    )
    out = {
        "digest": report_digest,
        "pinned": (
            None if args.seed != 0 or args.toy
            else workloads.PINNED[args.workload]
        ),
        "wall_s": import_s + job_s,
        "import_s": import_s,
        "setup_s": import_s + totals["setup"],
        "run_s": totals["run"],
        "report_s": totals["report"],
        "peak_rss_mb": peak_rss_mb,
        "ops_attempted": attempted,
        "ops_completed": ops_completed,
        "errors": errors,
        "sim": sim,
    }
    if log is not None:
        out["layers"] = layers.layer_metrics(log, out["wall_s"])
        out["table"] = log.table()
        if args.span_log is not None:
            log.write(args.span_log, started)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
