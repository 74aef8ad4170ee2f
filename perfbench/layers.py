"""Outside-in instrumentation of the simulator's layers.

Nothing under ``src/`` is edited: every probe here rebinds a public entry
point (a class attribute, or a module-level function under every name
``repro`` modules import it as) with a wrapper, and puts the original back
on exit. Two kinds of probe exist:

* **phase markers** (always on, a handful of calls per simulation) split
  a job's host time into ``setup`` / ``run`` / ``report``: entering a
  scenario or building a cluster starts set-up, :meth:`Engine.run` is the
  run, and everything after a run until the next set-up is reporting.
  The calls in :data:`COMPLETED` that return are counted too, so a job's
  completed operations come from what it did;
* **spans** (traced runs only) record ``(name, start, end, parent)`` for
  every call of the entry points in :data:`SPANS`, kept in memory and
  written once when the job ends, plus call counts for :data:`COUNTED`.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans plus the unspanned remainder
(``unattributed_s``) add up to the traced job's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter

#: (span name, module, attribute path) of every wrapped entry point
SPANS = (
    ("vmi.block_view", "repro.vmi.catalog", "LazyImageCatalog.block_view"),
    ("vmi.block_fold", "repro.vmi.streams", "block_view"),
    ("vmi.grain_stream", "repro.vmi.catalog", "LazyImageCatalog.grain_stream"),
    ("codecs.calibrate", "repro.codecs.estimator", "SizeEstimator.calibrate"),
    ("common.derive_seed", "repro.common.hashing", "derive_seed"),
    ("common.to_dict", "repro.common.report", "ReportBase.to_dict"),
    ("common.dumps_canonical", "repro.common.report", "dumps_canonical"),
    ("zfs.write", "repro.zfs.dataset", "Dataset.write_file_virtual"),
    ("zfs.snapshot", "repro.zfs.dataset", "Dataset.snapshot"),
    ("zfs.send", "repro.zfs.send", "generate_send"),
    ("zfs.receive", "repro.zfs.send", "receive"),
    ("core.cluster_build", "repro.core.cluster", "IaaSCluster.build"),
    ("core.register", "repro.core.squirrel", "Squirrel.register"),
    ("core.resync", "repro.core.squirrel", "Squirrel.resync_node"),
    ("core.gc", "repro.core.squirrel", "Squirrel.collect_garbage"),
    ("core.replica_apply", "repro.core.replica", "apply_to_nodes"),
    ("net.multicast", "repro.net.multicast", "multicast"),
    ("sim.engine", "repro.sim.engine", "Engine.run"),
    ("sim.pipe.transfer", "repro.sim.resources", "Pipe.transfer"),
    ("sim.resource.request", "repro.sim.resources", "Resource.request"),
    ("metrics.scrape", "repro.metrics.sampler", "Sampler.scrape"),
    ("metrics.block", "repro.metrics.export", "metrics_block"),
    ("obs.critical_path", "repro.obs.analyze", "critical_path_block"),
    ("obs.attribution", "repro.obs.attribution", "attribution_block"),
    ("obs.tracer_summary", "repro.obs.spans", "SpanTracer.summary"),
    ("workload.storm", "repro.workload.scenarios", "boot_storm"),
    ("workload.churn", "repro.workload.scenarios", "register_churn"),
    ("sweep.run", "repro.sweep.runner", "run_sweep"),
    # the sweep runner has no public per-point or merge seam
    ("sweep.point", "repro.sweep.runner", "_run_point"),
    ("sweep.merge", "repro.sweep.runner", "_aggregate"),
)

#: entry points too hot for a span each: counted only
COUNTED = (
    ("metrics.store.appends", "repro.metrics.store", "TimeSeriesStore.append"),
)

#: entry points that move the phase clock, and the phase they start
MARKERS = {
    "workload.storm": "setup",
    "workload.churn": "setup",
    "core.cluster_build": "setup",
    "sim.engine": "run",
}

#: entry points whose returns every job counts, traced or not
COMPLETED = ("core.register",)

PHASES = ("setup", "run", "report")


class PhaseClock:
    """Splits host time into set-up / run / report by phase switches."""

    def __init__(self) -> None:
        self.start()

    def start(self) -> None:
        """(Re)start in set-up with every total at zero."""
        self.totals = dict.fromkeys(PHASES, 0.0)
        self.mode = "setup"
        self._since = clock()

    def switch(self, mode: str) -> None:
        now = clock()
        self.totals[self.mode] += now - self._since
        self.mode, self._since = mode, now

    def close(self) -> dict[str, float]:
        self.switch(self.mode)
        return dict(self.totals)


class SpanLog:
    """In-memory span log: parallel columns, one row per wrapped call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        #: ``events_processed`` of each open ``Engine.run``, at its start
        self._events_before: list[int] = []
        self._cluster = None
        self._replica_applied = False
        self.nodes_per_distinct: list[float] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        self._stack.pop()

    # -- layer counters read at span boundaries ------------------------------------

    def before(self, name: str, args: tuple) -> None:
        """Counters read off a wrapped call's arguments as it starts."""
        if name == "sim.engine":
            self._events_before.append(args[0].events_processed)

    def after(self, name: str, args: tuple, result) -> None:
        """Counters read off the objects a wrapped call returned or took."""
        if name == "core.cluster_build":
            self._cluster, self._replica_applied = result, False
        elif name == "core.replica_apply":
            self._replica_applied = True
        elif name == "sim.engine":
            self.counts["sim.engine.events"] += (
                args[0].events_processed - self._events_before.pop()
            )
            store = getattr(self._cluster, "replicas", None)
            if self._replica_applied and store is not None:
                self.nodes_per_distinct.append(
                    len(self._cluster.compute) / store.distinct_replicas
                )
            self._cluster = None

    # -- the per-layer table -------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        Inclusive time counts only the outermost call of a name, so a
        recursive entry point is not counted twice."""
        n = len(self.names)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        self_s = list(durations)
        rows: dict[str, dict[str, float]] = {}
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                self_s[parent] -= durations[i]
        for i in range(n):
            name = self.names[i]
            row = rows.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s[i]
            ancestor = self.parent[i]
            while ancestor >= 0 and self.names[ancestor] != name:
                ancestor = self.parent[ancestor]
            if ancestor < 0:
                row["s"] += durations[i]
        return dict(sorted(rows.items()))

    def write(self, path: Path, origin: float) -> None:
        """Write the span log once: names interned, times relative to
        ``origin`` in seconds, ``parent`` -1 for a root span."""
        names = sorted(set(self.names))
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [index[self.names[i]], self.start[i] - origin,
             self.end[i] - origin, self.parent[i]]
            for i in range(len(self.names))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"columns": ["name", "start_s", "end_s", "parent"],
                 "names": names, "spans": rows, "counts": dict(self.counts)},
                handle,
            )


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _wrapper(name: str, fn, phases: PhaseClock, log: SpanLog | None,
             completed: Counter):
    mode = MARKERS.get(name)
    counted = name in COMPLETED

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if mode is not None:
            phases.switch(mode)
        if log is not None:
            log.before(name, args)
            index = log.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            if log is not None:
                log.close(index)
            if mode == "run":
                phases.switch("report")
        if counted:
            completed[name] += 1
        if log is not None:
            log.after(name, args, result)
        return result

    return wrapped


def _counter(name: str, fn, log: SpanLog):
    counts = log.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _install(owner, attr: str, make, undo: list) -> None:
    """Rebind ``owner.attr`` through ``make``; for a module-level function,
    also rebind every ``repro`` module global bound to it."""
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
        undo.append((owner, attr, raw))
        return
    wrapped = make(raw)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))
        return
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is raw:
                setattr(module, name, wrapped)
                undo.append((module, name, raw))


@contextmanager
def instrumented(phases: PhaseClock, log: SpanLog | None = None):
    """Install the phase markers and completion counts (and, with a
    ``log``, every span and counter) for the dynamic extent; yields the
    :data:`COMPLETED` counts. Originals are restored on exit."""
    undo: list = []
    completed: Counter[str] = Counter()
    try:
        for name, module, path in SPANS:
            if log is None and name not in MARKERS and name not in COMPLETED:
                continue
            owner, attr = _resolve(module, path)
            _install(
                owner, attr,
                lambda fn, name=name: _wrapper(name, fn, phases, log, completed),
                undo,
            )
        if log is not None:
            for name, module, path in COUNTED:
                owner, attr = _resolve(module, path)
                _install(
                    owner, attr, lambda fn, name=name: _counter(name, fn, log),
                    undo,
                )
        yield completed
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def layer_metrics(log: SpanLog, wall_s: float) -> dict[str, float]:
    """The per-layer figures of one traced job (see NOTES.md)."""
    table = log.table()

    def row(name: str) -> dict[str, float]:
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    views, folds = row("vmi.block_view"), row("vmi.block_fold")
    folded_in_view = sum(
        1 for i, name in enumerate(log.names)
        if name == "vmi.block_fold" and log.parent[i] >= 0
        and log.names[log.parent[i]] == "vmi.block_view"
    )
    engine = row("sim.engine")
    events = log.counts["sim.engine.events"]
    out = {
        "vmi.block_view.calls": views["calls"],
        "vmi.block_view.s": views["s"],
        "vmi.block_view.memo_hit_ratio": (
            1.0 - folded_in_view / views["calls"] if views["calls"] else 0.0
        ),
        "vmi.block_fold.calls": folds["calls"],
        "vmi.grain_stream.s": row("vmi.grain_stream")["s"],
        "codecs.calibrate.s": row("codecs.calibrate")["s"],
    }
    for name in (
        "common.derive_seed", "zfs.write", "zfs.snapshot", "zfs.send",
        "zfs.receive", "core.resync", "core.gc", "core.register",
        "net.multicast", "core.replica_apply", "metrics.scrape",
    ):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.s"] = row(name)["s"]
    out["core.register.self_s"] = row("core.register")["self_s"]
    out["sweep.point.self_s"] = row("sweep.point")["self_s"]
    out["sim.engine.self_s"] = engine["self_s"]
    out["core.replica.nodes_per_distinct"] = (
        statistics.median(log.nodes_per_distinct)
        if log.nodes_per_distinct else 0.0
    )
    out["sim.engine.events"] = events
    out["sim.engine.run_s"] = engine["s"]
    out["sim.engine.events_per_s"] = events / engine["s"] if engine["s"] else 0.0
    out["sim.pipe.transfer.calls"] = row("sim.pipe.transfer")["calls"]
    out["sim.resource.request.calls"] = row("sim.resource.request")["calls"]
    out["metrics.store.appends"] = log.counts["metrics.store.appends"]
    for name in (
        "metrics.block", "obs.critical_path", "obs.attribution",
        "obs.tracer_summary", "sweep.point", "sweep.merge",
    ):
        out[f"{name}.s"] = row(name)["s"]
    out["trace.unattributed_s"] = wall_s - sum(r["self_s"] for r in table.values())
    return out
