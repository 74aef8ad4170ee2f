"""Host-time benchmark of the simulator.

    python3 perfbench/run.py --workload storm-64x8 [--seed 0] [--seconds S]
        [--trace 0|1] [--toy] [--out .perfbench]

Runs jobs of one workload back to back (a closed loop, one job at a time,
each in a fresh process) for ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``): another job starts only if one as long as the last
still fits. At least one job runs.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
  medians over the jobs.
* ``--trace 1`` alternates an untraced and a traced job and reports the
  per-layer metrics from the traced ones, with ``trace.overhead_s`` (traced
  minus untraced wall time). The per-layer table and the span log path are
  printed, and each traced job's span log is written under ``--out``.

Every job's canonical reports are hashed. At the default seed the digest
must equal the pinned one; at any seed every job of the run (traced or
not) must produce the same digest. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 170


def _metric_defs() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _job(workload: str, seed: int, *, traced: bool, toy: bool,
         span_log: Path | None) -> dict:
    command = [sys.executable, str(HERE / "job.py"), "--workload", workload,
               "--seed", str(seed)]
    if traced:
        command.append("--traced")
    if toy:
        command.append("--toy")
    if span_log is not None:
        command += ["--span-log", str(span_log)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _verdict(jobs: list[dict]):
    """(correct, attempted, failed). A job fails all its ops when a model
    check failed or its digest is off: not the pinned one, or where none is
    pinned, not the first job's. Otherwise the ops it did not complete
    fail."""
    reference = jobs[0]["pinned"] or jobs[0]["digest"]
    attempted = failed = 0
    for job in jobs:
        attempted += job["ops_attempted"]
        if job["digest"] != reference or job["errors"]:
            failed += job["ops_attempted"]
        else:
            failed += job["ops_attempted"] - job["ops_completed"]
    sims = {json.dumps(job["sim"], sort_keys=True) for job in jobs}
    if len(sims) > 1:
        failed = attempted
    return failed == 0, attempted, failed


def _median(jobs: list[dict], key: str) -> float:
    return statistics.median(job[key] for job in jobs)


def _end_to_end(jobs: list[dict]) -> dict[str, float]:
    return {
        "wall_s": _median(jobs, "wall_s"),
        "setup_s": _median(jobs, "setup_s"),
        "run_s": _median(jobs, "run_s"),
        "report_s": _median(jobs, "report_s"),
        "peak_rss_mb": _median(jobs, "peak_rss_mb"),
        "ops_per_s": statistics.median(
            job["ops_completed"] / job["wall_s"] for job in jobs
        ),
    }


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    values = {
        name: statistics.median(job["layers"][name] for job in traced)
        for name in traced[0]["layers"]
    }
    values.update(traced[0]["sim"])
    values["trace.wall_s"] = _median(traced, "wall_s")
    values["trace.overhead_s"] = values["trace.wall_s"] - _median(untraced, "wall_s")
    return values


def _print_job(kind: str, job: dict) -> None:
    print(f"{kind} job: " + " ".join(
        f"{key} {job[key]:.4f}"
        for key in ("wall_s", "import_s", "setup_s", "run_s", "report_s",
                    "peak_rss_mb")
    ))


def _print_table(table: dict, wall_s: float, import_s: float) -> None:
    """The traced job's per-layer table: self times + unattributed = wall."""
    print(f"{'span':<24} {'calls':>9} {'total s':>10} {'self s':>10}")
    for name, row in table.items():
        print(f"{name:<24} {row['calls']:>9} {row['s']:>10.4f} "
              f"{row['self_s']:>10.4f}")
    spanned = sum(row["self_s"] for row in table.values())
    print(f"{'unattributed_s':<24} {'':>9} {'':>10} {wall_s - spanned:>10.4f}"
          f"  (includes import_s {import_s:.4f})")
    print(f"{'wall_s':<24} {'':>9} {'':>10} {wall_s:>10.4f}")


def main(argv: list[str] | None = None) -> int:
    defs = _metric_defs()
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed the job's inputs are made from")
    parser.add_argument("--seconds", type=float, default=defs["run_seconds"],
                        help="time budget for the run's jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size jobs (the harness self-test)")
    parser.add_argument("--out", type=Path, default=Path(".perfbench"),
                        help="directory for traced runs' span logs")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    names = [workload["name"] for workload in defs["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(names)}")
    # byte-compile once so no job pays it
    compileall.compile_dir(str(SRC), quiet=1)

    deadline = time.perf_counter() + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        started = time.perf_counter()
        untraced.append(_job(args.workload, args.seed, traced=False,
                             toy=args.toy, span_log=None))
        _print_job("untraced", untraced[-1])
        if args.trace:
            span_log = args.out / (
                f"spans-{args.workload}-seed{args.seed}-{len(traced)}.json"
            )
            traced.append(_job(args.workload, args.seed, traced=True,
                               toy=args.toy, span_log=span_log))
            _print_job("traced", traced[-1])
            print(f"span log: {span_log}")
        # start another round only if one more fits in --seconds
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    correct, attempted, failed = _verdict(untraced + traced)
    for job in untraced + traced:
        for error in job["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced jobs, digest {untraced[0]['digest']}")
    if args.trace:
        last = traced[-1]
        _print_table(last["table"], last["wall_s"], last["import_s"])
        values, wanted = _per_layer(untraced, traced), defs["per_layer"]
    else:
        values, wanted = _end_to_end(untraced), defs["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<36} {value:>16.6f} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
