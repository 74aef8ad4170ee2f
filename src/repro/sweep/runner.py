"""Multiprocess sweep execution with a deterministic merge and resume.

Process model: the parent never builds a dataset. It expands the
:class:`~repro.sweep.spec.SweepSpec` into points, ships each worker only
picklable data — the experiment id and a validated params dict — and each
worker lazily builds its **own** :class:`~repro.experiments.context.
ExperimentContext` (memoised per process, so a worker that runs many
points synthesises its dataset once). ``--workers 1`` runs the identical
point function inline.

Determinism contract: every point's result is the JSON-able
``Report.to_dict()`` payload, results are merged **in point order**
regardless of completion order, and the merged report serialises via
:func:`~repro.common.report.dumps_canonical` — so the bytes a sweep emits
do not depend on the worker count or on scheduling.

Resume: when given a manifest path the runner appends one canonical-JSON
line per completed point (``experiment``, ``key``, ``index``, requested
``params``, derived ``seed``, ``result``). Re-running with ``resume=True``
replays completed points from the manifest and executes only the missing
ones; a line truncated by a mid-write kill is ignored. An optional
``header`` dict is written as a first line carrying ``manifest_version``
plus provenance (resolved spec/manifest/output paths from the CLI);
``load_manifest`` recognises and skips it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import json

import numpy as np

from ..common.errors import ConfigError
from ..common.report import ReportBase, dumps_canonical, to_jsonable
from ..experiments import ExperimentContext, registry
from ..experiments.context import _shared_context, scale_of
from ..obs import runtime as obs_runtime
from .spec import SweepPoint, SweepSpec

__all__ = ["SweepResult", "load_manifest", "run_sweep"]

#: per-process sweep state: the (scale denominator, quick) pair shipped by
#: the parent. Module-level because ProcessPoolExecutor initializers and
#: task functions must be picklable top-level callables. The context
#: itself is NOT stored here: it lives in the process-wide
#: ``_shared_context`` memo, keyed on the catalog config, so a worker (or
#: the inline ``--workers 1`` path) that runs several sweeps under one
#: configuration keeps its warm catalog — re-running ``_init_worker`` with
#: the same knobs no longer discards synthesized streams.
_WORKER_STATE: dict[str, Any] = {}


def _init_worker(scale_denominator: float, quick: int) -> None:
    """Pool initializer: record the context knobs, build nothing yet."""
    _WORKER_STATE["config"] = (scale_denominator, quick)


def _worker_context() -> ExperimentContext:
    """This process' context for the shipped knobs (memoised per config;
    datasets and streams build lazily on first use)."""
    scale_denominator, quick = _WORKER_STATE.get("config", (32.0, 1))
    return _shared_context(float(scale_denominator), max(1, int(quick)))


def _run_point(payload: tuple[int, str, dict]) -> tuple[int, dict]:
    """Execute one sweep point; returns (index, JSON-able result).

    ``Report.to_dict()`` already returns plain data, so the result is not
    converted a second time; :func:`_aggregate` relies on that when it
    reads metrics by dotted path."""
    index, experiment, params = payload
    exp = registry.get(experiment)
    result = exp.run(_worker_context(), **params)
    return index, result.to_dict()


def load_manifest(path: str, experiment: str) -> dict[str, dict]:
    """Completed point entries from a manifest, keyed by point key.

    Each entry is the full manifest record (``index``, ``params``,
    ``seed``, ``result``). Tolerates a truncated final line (an
    interrupted append); rejects a manifest written for a different
    experiment.
    """
    completed: dict[str, dict] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise ConfigError(f"no sweep manifest at {path!r} to resume from") from None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                continue  # torn final write from an interrupted sweep
            raise ConfigError(
                f"corrupt sweep manifest {path!r} at line {lineno}"
            ) from None
        if entry.get("experiment") != experiment:
            raise ConfigError(
                f"manifest {path!r} is for experiment "
                f"{entry.get('experiment')!r}, not {experiment!r}"
            )
        if "manifest_version" in entry:
            continue  # provenance header, not a completed point
        completed[entry["key"]] = entry
    return completed


def _append_manifest(handle, point: SweepPoint, result: dict) -> None:
    """Append one completed point as a canonical-JSON line and flush."""
    handle.write(
        dumps_canonical(
            {
                "experiment": point.experiment,
                "key": point.key,
                "index": point.index,
                "params": dict(point.requested),
                "seed": point.derived_seed,
                "result": result,
            }
        )
        + "\n"
    )
    handle.flush()


def _group_label(point_params: dict, axes: list[str]) -> str:
    """A point's aggregation group: its non-seed axis assignment."""
    parts = [f"{axis}={point_params[axis]}" for axis in axes if axis != "seed"]
    return " ".join(parts) if parts else "all"


def _lookup(payload: Any, path: str) -> Any:
    """Resolve a dotted metric path inside a result dict (None if absent)."""
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _aggregate(
    spec: SweepSpec, points: tuple[SweepPoint, ...], results: dict[int, dict]
) -> dict:
    """p50/p95 of each registered metric across seeds, per non-seed group."""
    exp = registry.get(spec.experiment)
    axes = [name for name in spec.grid]
    summary: dict[str, dict] = {}
    for metric in exp.metrics:
        groups: dict[str, list[float]] = {}
        for point in points:
            value = _lookup(results[point.index], metric)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            label = _group_label(dict(point.requested), axes)
            groups.setdefault(label, []).append(float(value))
        if groups:
            summary[metric] = {
                label: {
                    "n": len(values),
                    "p50": float(np.percentile(values, 50)),
                    "p95": float(np.percentile(values, 95)),
                }
                for label, values in groups.items()
            }
    return summary


@dataclass(frozen=True)
class SweepResult(ReportBase):
    """The merged sweep report: every point plus cross-seed aggregates.

    ``points`` is ordered by point index — the cartesian-product
    enumeration order — never by completion order, which is what makes the
    serialised report independent of the worker count.
    """

    experiment: str
    grid: dict  #: axis -> requested values, in expansion order
    fixed: dict  #: non-gridded overrides
    points: tuple  #: per point: {"params", "seed", "result"}
    summary: dict  #: metric -> group -> {n, p50, p95}

    def to_dict(self) -> dict:
        """Plain data that shares each point's result rather than copying
        it: a result is already plain (a ``Report.to_dict()`` payload or a
        manifest replay), and it is the bulk of a merged report."""
        return {
            "experiment": self.experiment,
            "grid": to_jsonable(self.grid),
            "fixed": to_jsonable(self.fixed),
            "points": [
                {
                    "params": to_jsonable(point["params"]),
                    "seed": to_jsonable(point["seed"]),
                    "result": point["result"],
                }
                for point in self.points
            ],
            "summary": to_jsonable(self.summary),
        }


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    manifest_path: str | None = None,
    resume: bool = False,
    scale: float = 32.0,
    quick: int = 1,
    progress: Callable[[SweepPoint, str, float], None] | None = None,
    header: dict | None = None,
    trace_dir: str | Path | None = None,
) -> SweepResult:
    """Run every point of ``spec`` and merge the results deterministically.

    ``workers`` > 1 fans pending points across a ``ProcessPoolExecutor``;
    ``manifest_path`` appends each completion to a JSONL manifest; with
    ``resume=True`` points already in the manifest are not re-run.
    ``scale``/``quick`` configure each worker's private context exactly
    like the CLI's ``--scale``/``--quick`` configure a single run.
    ``header`` (optional, CLI-provided provenance: resolved spec/manifest/
    output paths) is written as the manifest's first line, tagged with
    ``manifest_version`` so :func:`load_manifest` can skip it; without a
    header the manifest holds exactly one line per completed point.

    When a runtime profiler is active (:mod:`repro.obs.runtime`, CLI
    invocations) every completed point's wall time is recorded and the
    manifest gains a final ``manifest_version``-tagged trailer line with
    the ``runtime`` block — skipped by :func:`load_manifest`, so resumes
    and byte-identity comparisons of the point lines are unaffected.

    ``trace_dir`` persists each executed point's Chrome trace as
    ``<trace_dir>/point-NNNN.json`` (``python -m repro trace`` accepts the
    directory). The path is injected into the *execution-time* params only
    — never into ``point.requested``, the manifest key, or the merged
    report — so stored sweep bytes are unchanged by tracing. Points
    replayed from a resume manifest are not re-run and write no trace.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if resume and manifest_path is None:
        raise ConfigError("resume needs a manifest path")
    scale_of(scale)  # a bad denominator fails here, not in a worker
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)

    def point_payload(point: SweepPoint) -> tuple[int, str, dict]:
        params = dict(point.params)
        if trace_dir is not None:
            params["trace"] = str(trace_dir / f"point-{point.index:04d}.json")
        return (point.index, point.experiment, params)

    profiler = obs_runtime.current()

    def record(point: SweepPoint, status: str, elapsed: float) -> None:
        # runtime telemetry (per-point wall time) and the caller's
        # progress callback see every completion, whichever path ran it
        if profiler is not None:
            label = " ".join(
                f"{axis}={point.requested[axis]}" for axis in spec.grid
            )
            profiler.point(label or "point", elapsed, status=status)
        if progress is not None:
            progress(point, status, elapsed)

    points = spec.expand()
    results: dict[int, dict] = {}
    replay: list[SweepPoint] = []
    if resume:
        completed = load_manifest(manifest_path, spec.experiment)
        for point in points:
            if point.key in completed:
                results[point.index] = completed[point.key]["result"]
                replay.append(point)
                record(point, "cached", 0.0)
    pending = [point for point in points if point.index not in results]

    manifest = None
    if manifest_path is not None:
        # rewrite rather than append on resume: this heals a line torn by
        # a mid-write kill and drops entries for points no longer in the
        # spec, so the manifest always holds exactly the completed points
        manifest = open(manifest_path, "w", encoding="utf-8")
        if header is not None:
            manifest.write(
                dumps_canonical(
                    {
                        "manifest_version": 1,
                        "experiment": spec.experiment,
                        **header,
                    }
                )
                + "\n"
            )
            manifest.flush()
        for point in replay:
            _append_manifest(manifest, point, results[point.index])
    try:
        if workers == 1 or len(pending) <= 1:
            _init_worker(scale, quick)
            for point in pending:
                started = time.perf_counter()
                index, result = _run_point(point_payload(point))
                results[index] = result
                if manifest is not None:
                    _append_manifest(manifest, point, result)
                record(point, "run", time.perf_counter() - started)
        else:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(scale, quick),
            ) as pool:
                started_at = {}
                futures = {}
                for point in pending:
                    futures[
                        pool.submit(_run_point, point_payload(point))
                    ] = point
                    started_at[point.index] = time.perf_counter()
                for future in as_completed(futures):
                    point = futures[future]
                    index, result = future.result()
                    results[index] = result
                    if manifest is not None:
                        _append_manifest(manifest, point, result)
                    record(
                        point, "run",
                        time.perf_counter() - started_at[point.index],
                    )
    finally:
        if manifest is not None:
            if profiler is not None:
                # runtime trailer: tagged like the provenance header so
                # load_manifest skips it — resume never replays telemetry,
                # and the per-point lines stay byte-comparable
                manifest.write(
                    dumps_canonical(
                        {
                            "manifest_version": 1,
                            "experiment": spec.experiment,
                            "runtime": profiler.block(),
                        }
                    )
                    + "\n"
                )
            manifest.close()

    return SweepResult(
        experiment=spec.experiment,
        grid={axis: list(values) for axis, values in spec.grid.items()},
        fixed=dict(spec.fixed),
        points=tuple(
            {
                "params": dict(point.requested),
                "seed": point.derived_seed,
                "result": results[point.index],
            }
            for point in points
        ),
        summary=_aggregate(spec, points, results),
    )
