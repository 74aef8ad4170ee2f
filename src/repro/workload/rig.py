"""The shared rig: one scenario's cluster, engine and telemetry, wired.

Every timed scenario (both storm sides, the shards global side, the day
and the churn) runs one lifecycle:

1. :func:`_build_rig` reads the cluster shape, scale, link, trace flag,
   metrics cadence and fault plan from the scenario config, installs the
   optional attachment (a :class:`~repro.placement.PlacementCoordinator`
   or :class:`~repro.shard.ShardRouter`) before
   :class:`~repro.workload.timed.TimedSquirrel` instruments the rig, starts
   the sampler and then the config's :class:`~repro.faults.FaultInjector`.
2. The scenario registers its set-up images (untimed, no process) and
   schedules its workload processes.
3. :meth:`_Rig.run` drains the engine under a named phase, checks the
   glusterfs served-bytes accounting, closes the tracer's open spans and
   returns the horizon: the one place a timed run ends.

The rig reads its images from the process-wide catalog at its scale
(:func:`~repro.vmi.catalog_at`, ``rig.catalog.specs``), so every run in a
process shares one stream/view memo; ``dataset=`` hands in a private one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import IaaSCluster, Squirrel
from ..faults import FaultInjector
from ..metrics import MetricsRegistry, Sampler, TimeSeriesStore, metrics_block
from ..obs import runtime as obs_runtime
from ..sim import Engine, Timeline
from ..vmi import LazyImageCatalog, catalog_at, make_estimator
from .timed import TimedSquirrel

#: ring capacity of the per-run time-series store (samples per series)
METRICS_RING = 4096


@dataclass
class _Rig:
    """One scenario's fully-wired simulation: cluster, engine, telemetry."""

    catalog: LazyImageCatalog
    squirrel: Squirrel
    engine: Engine
    timeline: Timeline
    timed: TimedSquirrel
    metrics: MetricsRegistry
    store: TimeSeriesStore
    sampler: Sampler

    def run(self, phase: str, fraction) -> float:
        """Drain the engine under ``phase`` (``fraction`` is the progress
        heartbeat's horizon callable), check the served-bytes accounting,
        close the tracer's open spans; return the horizon."""
        with obs_runtime.phase(phase):
            obs_runtime.set_fraction(fraction)
            horizon = self.engine.run()
        self.squirrel.cluster.storage.gluster.verify_served_accounting()
        self.timed.tracer.close_open_spans()
        return horizon

    def metrics_block(self) -> dict:
        """The canonical metrics block for this run (embed in the report)."""
        return metrics_block(
            self.metrics,
            self.store,
            interval_s=self.sampler.interval_s,
            scrapes=self.sampler.scrapes,
        )


def _build_rig(
    config,
    *,
    seed,
    dataset: LazyImageCatalog | None = None,
    attach=None,
) -> _Rig:
    """Wire ``config``'s cluster, engine and telemetry at engine ``seed``.

    ``attach`` (anything with ``install(squirrel)``) is installed before
    :class:`TimedSquirrel`, so the instruments and the per-node ARC layout
    see it.
    """
    catalog = dataset or catalog_at(config.scale)
    cluster = IaaSCluster.build(
        n_compute=config.n_nodes,
        n_storage=config.n_storage,
        block_size=config.block_size,
        link=config.link,
    )
    # calibrated once per process (make_estimator is cached)
    estimator = make_estimator("gzip6", (config.block_size,), samples_per_point=2)
    squirrel = Squirrel(cluster=cluster, estimator=estimator, catalog=catalog)
    if attach is not None:
        attach.install(squirrel)
    engine = Engine(seed=seed, trace=config.trace)
    # runtime telemetry (read-only observer; no-op without an active
    # profiler): phase timers + events/s + the --progress heartbeat
    obs_runtime.attach(engine)
    timeline = Timeline(engine)
    metrics = MetricsRegistry()
    timed = TimedSquirrel(squirrel, catalog, engine, timeline, metrics=metrics)
    store = TimeSeriesStore(capacity=METRICS_RING)
    sampler = Sampler(engine, metrics, store, interval_s=config.metrics_interval_s)
    sampler.start()
    if config.faults is not None:
        FaultInjector(timed, config.faults).start()
    return _Rig(catalog, squirrel, engine, timeline, timed, metrics, store, sampler)
