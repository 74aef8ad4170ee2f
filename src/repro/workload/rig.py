"""The shared rig: one scenario's cluster, engine and telemetry, wired.

The rig reads its images from the process-wide catalog at its scale
(:func:`~repro.vmi.catalog_at`, ``rig.catalog.specs``), so every run in a
process shares one stream/view memo; ``dataset=`` hands in a private one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import IaaSCluster, Squirrel
from ..metrics import MetricsRegistry, Sampler, TimeSeriesStore, metrics_block
from ..net import LinkProfile
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

    def metrics_block(self) -> dict:
        """The canonical metrics block for this run (embed in the report)."""
        return metrics_block(
            self.metrics,
            self.store,
            interval_s=self.sampler.interval_s,
            scrapes=self.sampler.scrapes,
        )


def _build_rig(
    *,
    n_compute: int,
    n_storage: int,
    block_size: int,
    scale: float,
    link: LinkProfile,
    seed,
    trace: bool,
    metrics_interval_s: float = 5.0,
    dataset: LazyImageCatalog | None = None,
    placement_factory=None,
    sharding_factory=None,
) -> _Rig:
    catalog = dataset or catalog_at(scale)
    cluster = IaaSCluster.build(
        n_compute=n_compute, n_storage=n_storage, block_size=block_size, link=link
    )
    # calibrated once per process (make_estimator is cached)
    estimator = make_estimator("gzip6", (block_size,), samples_per_point=2)
    squirrel = Squirrel(cluster=cluster, estimator=estimator, catalog=catalog)
    if placement_factory is not None:
        # attach before TimedSquirrel so _instrument sees the coordinator
        squirrel.placement = placement_factory(squirrel)
    if sharding_factory is not None:
        # attach + install before TimedSquirrel: _instrument and the
        # per-node ARC layout read the re-planned cVolume
        router = sharding_factory(squirrel)
        squirrel.sharding = router
        router.install(squirrel)
    engine = Engine(seed=seed, trace=trace)
    # runtime telemetry (read-only observer; no-op without an active
    # profiler): phase timers + events/s + the --progress heartbeat
    obs_runtime.attach(engine)
    timeline = Timeline(engine)
    metrics = MetricsRegistry()
    timed = TimedSquirrel(squirrel, catalog, engine, timeline, metrics=metrics)
    store = TimeSeriesStore(capacity=METRICS_RING)
    sampler = Sampler(engine, metrics, store, interval_s=metrics_interval_s)
    sampler.start()
    return _Rig(catalog, squirrel, engine, timeline, timed, metrics, store, sampler)
