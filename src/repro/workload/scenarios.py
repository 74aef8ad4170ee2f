"""Scenario drivers: boot storms, diurnal days and registration churn.

Each scenario builds a :mod:`~repro.workload.rig` (cluster, engine,
:class:`~repro.workload.timed.TimedSquirrel`, metrics) and drives it with a
workload: :func:`boot_storm` (flash crowd, the timed generalisation of
Figure 18), :func:`steady_state_day` (diurnal multi-tenant load), and
:func:`register_churn` (registration pressure + node downtime + GC, which
exercises offline-propagation catch-up under time).

Fault tolerance: a :class:`~repro.faults.FaultPlan` on :class:`StormConfig`
runs the storm under injected node crashes, link flaps and brick failures.
Preempted boots cancel their half-done transfers, wait for the crashed host
to rejoin (offline catch-up included), retry, and **always complete**; the
report carries recovery-time percentiles next to the boot-time ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import ConfigError
from ..common.hashing import derive_seed
from ..common.report import ReportBase
from ..common.rng import stream as rng_stream
from ..core.cluster import ComputeNode, compute_name
from ..core.squirrel import vmi_file_name
from ..faults import FaultPlan
from ..net import GBE_1, LinkProfile
from ..obs import (
    SpanTracer,
    attribution_block,
    critical_path_block,
    write_chrome_trace,
)
from ..obs import runtime as obs_runtime
from ..sim import HistogramStats
from ..vmi import LazyImageCatalog, catalog_at
from ..placement import PlacementContext
from .arrivals import DAY_S, diurnal_arrivals, flash_crowd_arrivals, poisson_arrivals
from .rig import _build_rig
from .tenants import TenantPopulation

__all__ = [
    "StormArrivals",
    "StormConfig",
    "StormSide",
    "StormReport",
    "DayConfig",
    "DayReport",
    "ChurnConfig",
    "ChurnReport",
    "boot_storm",
    "steady_state_day",
    "register_churn",
    "placement_context",
    "storm_arrivals",
    "storm_image_count",
]


# -- boot storm -----------------------------------------------------------------------


@dataclass(frozen=True)
class StormConfig:
    """A flash-crowd boot storm (the timed Figure 18)."""

    n_nodes: int = 64
    vms_per_node: int = 8
    n_storage: int = 4
    block_size: int = 65536
    scale: float = 1.0 / 512.0
    #: window the flash crowd's arrivals are compressed into
    ramp_s: float = 30.0
    n_tenants: int = 32
    zipf_exponent: float = 0.9
    link: LinkProfile = GBE_1
    seed: int = 0
    trace: bool = False
    #: injected faults (node crashes, link flaps, brick failures); both
    #: sides of the storm run the identical plan
    faults: FaultPlan | None = None
    #: gauge-scrape cadence of the metrics sampler (simulated seconds)
    metrics_interval_s: float = 5.0

    @classmethod
    def from_params(
        cls,
        *,
        nodes: int = 64,
        vms_per_node: int = 8,
        seed: int = 0,
        zipf: float = 0.9,
        faults: str | None = None,
    ) -> "StormConfig":
        """Build a config from the validated experiment params the CLI and
        sweep runner hand to the storm-shaped scenarios (``faults`` is the
        comma-separated plan DSL, parsed here)."""
        return cls(
            n_nodes=nodes,
            vms_per_node=vms_per_node,
            seed=seed,
            zipf_exponent=zipf,
            faults=FaultPlan.parse(faults) if faults else None,
        )


@dataclass(frozen=True)
class StormSide:
    """One storm run (Squirrel or the no-cache baseline)."""

    boots: int
    cache_hits: int
    interrupted_boots: int  #: boot attempts preempted by a fault
    delayed_boots: int  #: boots that queued on a crashed host
    compute_ingress_bytes: int
    #: when the engine settled: boots + fault recovery + the sampler's
    #: final snapshot (so it rounds up to the metrics cadence)
    horizon_s: float
    latency: HistogramStats
    recovery: HistogramStats  #: per-boot: first fault impact -> completion
    node_recovery: HistogramStats  #: per-crash: crash -> rebooted + resynced
    #: latency attribution: per-boot cache/net/disk/wait stats + ARC tiers
    attribution: dict = field(repr=False)
    #: per-span-name aggregates from the run's tracer
    spans: dict = field(repr=False)
    #: critical-path rollup: per-boot longest dependency chain, folded into
    #: a blame table + tier shares (``trace analyze`` reproduces it exactly)
    critical_path: dict = field(repr=False)
    summary: dict = field(repr=False)
    #: canonical metrics block: instrument snapshot + sampled series
    metrics: dict = field(repr=False)


@dataclass(frozen=True)
class StormReport(ReportBase):
    """Both sides of one storm, driven by the identical arrival trace."""

    n_nodes: int
    vms_per_node: int
    seed: int
    squirrel: StormSide
    baseline: StormSide


@dataclass(frozen=True)
class StormArrivals:
    """The flash crowd both storm sides replay, and who drew it."""

    population: TenantPopulation
    #: (arrival, node, image, tenant) per VM, in arrival order; the tenant
    #: id rides along so sharded runs can attribute per-tenant hit rates
    plan: list
    #: images the storm registers: the highest booted image id + 1
    n_registered: int


def storm_arrivals(config: StormConfig, catalog: LazyImageCatalog) -> StormArrivals:
    """The storm's tenants over the first ``n_vms`` catalog images and
    the arrival trace they draw (only the catalog's length is read, so no
    streams materialise)."""
    n_vms = config.n_nodes * config.vms_per_node
    rng = rng_stream("workload-storm", config.seed)
    times = flash_crowd_arrivals(rng, n_vms=n_vms, ramp_s=config.ramp_s)
    population = TenantPopulation(
        config.n_tenants,
        min(n_vms, len(catalog)),
        seed=derive_seed("workload-storm-tenants", config.seed),
        zipf_exponent=config.zipf_exponent,
    )
    plan = []
    for index, t in enumerate(times):
        tenant, image_id = population.sample(rng)
        node_name = compute_name(index % config.n_nodes)
        plan.append((float(t), node_name, image_id, int(tenant.tenant_id)))
    n_registered = max(image_id for _, _, image_id, _ in plan) + 1
    return StormArrivals(population, plan, n_registered)


def storm_image_count(config: StormConfig, catalog: LazyImageCatalog) -> int:
    """Images the storm registers (both sides register the same specs)."""
    return storm_arrivals(config, catalog).n_registered


def placement_context(
    arrivals: StormArrivals, nodes: tuple[str, ...]
) -> PlacementContext:
    """What a placement policy places the storm's registered images by:
    the popularity and owners of the population that drew the trace."""
    population, n_images = arrivals.population, arrivals.n_registered
    return PlacementContext(
        nodes=nodes,
        popularity=tuple(
            float(p) for p in population.expected_popularity()[:n_images]
        ),
        owners=tuple(int(t) for t in population.image_owners()[:n_images]),
        tenant_weights=tuple(float(w) for w in population.tenant_weights),
    )


def _run_storm_side(
    config: StormConfig,
    *,
    with_caches: bool,
    catalog: LazyImageCatalog,
    arrivals: StormArrivals,
    attach=None,
) -> tuple[StormSide, SpanTracer]:
    plan, n_images = arrivals.plan, arrivals.n_registered
    side_name = "squirrel" if with_caches else "baseline"
    with obs_runtime.phase(f"storm.setup.{side_name}"):
        rig = _build_rig(
            config,
            seed=derive_seed("storm", config.seed, side_name),
            dataset=catalog,
            attach=attach if with_caches else None,
        )
        squirrel, engine, timeline, timed = (
            rig.squirrel, rig.engine, rig.timeline, rig.timed,
        )
        if with_caches:
            for spec in catalog.specs[:n_images]:
                squirrel.register(spec)  # setup: instant, before the storm
        else:
            # the baseline never registers: only the base VMIs exist on the FS
            gluster = squirrel.cluster.storage.gluster
            for spec in catalog.specs[:n_images]:
                gluster.create_file(vmi_file_name(spec.image_id), spec.nonzero_bytes)
        ingress_before = squirrel.cluster.compute_ingress_bytes(purpose="boot-read")

        def vm(at, node_name, image_id, tenant):
            yield engine.timeout(at)
            yield timed.boot(
                image_id, node_name, force_cold=not with_caches,
                tenant=tenant,
            )

        for at, node_name, image_id, tenant in plan:
            engine.process(
                vm(at, node_name, image_id, tenant),
                label=f"vm:{node_name}:{image_id}",
            )
    # the heartbeat's horizon: boots completed over boots planned
    horizon = rig.run(
        f"storm.run.{side_name}",
        lambda: timeline.counter("boots") / len(plan) if plan else None,
    )
    side = StormSide(
        boots=int(timeline.counter("boots")),
        cache_hits=int(timeline.counter("cache_hits")),
        interrupted_boots=int(timeline.counter("boot_interrupts")),
        delayed_boots=int(timeline.counter("boots_delayed")),
        compute_ingress_bytes=squirrel.cluster.compute_ingress_bytes(
            purpose="boot-read"
        ) - ingress_before,
        horizon_s=horizon,
        latency=timeline.stats("boot_latency_s"),
        recovery=timeline.stats("recovery_s"),
        node_recovery=timeline.stats("node_recovery_s"),
        attribution=attribution_block(timeline),
        spans=timed.tracer.summary(),
        critical_path=critical_path_block(timed.tracer),
        summary=timeline.summary(),
        metrics=rig.metrics_block(),
    )
    return side, timed.tracer


def boot_storm(
    config: StormConfig = StormConfig(),
    *,
    dataset: LazyImageCatalog | None = None,
    trace_path=None,
    attach=None,
) -> StormReport:
    """Run the same flash crowd with Squirrel and without caches.

    Both sides read the process-wide catalog at ``config.scale``
    (:func:`~repro.vmi.catalog_at`); ``dataset`` hands in a private
    catalog instead, which must match ``config.scale``.
    With a ``trace_path``, both sides' spans are exported there as one
    Chrome trace-event JSON file (processes ``squirrel``/``baseline``).

    ``attach`` is installed on the Squirrel side's rig only (the no-cache
    baseline is unaffected): a :class:`~repro.placement.PlacementCoordinator`
    hoards caches partially, a :class:`~repro.shard.ShardRouter` shards the
    cVolume. The caller keeps the object and reads its tallies after the
    run. Without one the run is the paper baseline.
    """
    if config.n_nodes < 1 or config.vms_per_node < 1:
        raise ConfigError("storm needs at least one node and one VM")
    catalog = dataset or catalog_at(config.scale)
    arrivals = storm_arrivals(config, catalog)
    sides = {}
    tracers = {}
    for with_caches in (True, False):
        side, tracer = _run_storm_side(
            config, with_caches=with_caches, catalog=catalog, arrivals=arrivals,
            attach=attach,
        )
        sides[with_caches] = side
        tracers["squirrel" if with_caches else "baseline"] = tracer
    if trace_path is not None:
        write_chrome_trace(trace_path, tracers)
    return StormReport(
        n_nodes=config.n_nodes,
        vms_per_node=config.vms_per_node,
        seed=config.seed,
        squirrel=sides[True],
        baseline=sides[False],
    )


# -- steady-state day -----------------------------------------------------------------


@dataclass(frozen=True)
class DayConfig:
    """A diurnal multi-tenant day: boots all day, a trickle of new images."""

    n_nodes: int = 16
    n_storage: int = 4
    block_size: int = 65536
    scale: float = 1.0 / 512.0
    n_boots: int = 400  #: expected boots over the day
    n_initial_images: int = 64
    n_new_registrations: int = 8
    n_tenants: int = 16
    zipf_exponent: float = 0.9
    link: LinkProfile = GBE_1
    seed: int = 0
    trace: bool = False
    #: injected faults running alongside the diurnal load
    faults: FaultPlan | None = None
    #: gauge-scrape cadence (5 simulated minutes over a 24 h horizon)
    metrics_interval_s: float = 300.0

    @classmethod
    def from_params(
        cls,
        *,
        nodes: int = 16,
        boots: int = 400,
        tenants: int = 16,
        registrations: int = 8,
        seed: int = 0,
        faults: str | None = None,
    ) -> "DayConfig":
        """Build a config from the validated experiment params (the ``day``
        experiment's CLI/sweep surface; ``faults`` is the plan DSL)."""
        return cls(
            n_nodes=nodes,
            n_boots=boots,
            n_tenants=tenants,
            n_new_registrations=registrations,
            seed=seed,
            faults=FaultPlan.parse(faults) if faults else None,
        )


@dataclass(frozen=True)
class DayReport(ReportBase):
    boots: int
    cache_hits: int
    registrations: int
    compute_ingress_bytes: int
    boot_latency: HistogramStats
    register_latency: HistogramStats
    summary: dict = field(repr=False)
    #: canonical metrics block: instrument snapshot + sampled series
    metrics: dict = field(repr=False)


def steady_state_day(
    config: DayConfig = DayConfig(), *, trace_path=None
) -> DayReport:
    """24 simulated hours of diurnal load against one cluster.

    With a ``trace_path``, the run's spans are exported there as a Chrome
    trace-event JSON file; ``config.faults`` runs the day under injected
    node crashes / link flaps / brick failures.
    """
    rig = _build_rig(config, seed=derive_seed("day", config.seed))
    catalog, squirrel, engine, timeline, timed = (
        rig.catalog, rig.squirrel, rig.engine, rig.timeline, rig.timed,
    )
    catalogue = config.n_initial_images + config.n_new_registrations
    if catalogue > len(catalog):
        raise ConfigError("catalogue larger than the dataset")
    for spec in catalog.specs[: config.n_initial_images]:
        squirrel.register(spec)  # overnight backlog: instant setup
    ingress_before = squirrel.cluster.compute_ingress_bytes(purpose="boot-read")

    rng = rng_stream("workload-day", config.seed)
    boot_times = diurnal_arrivals(
        rng, mean_rate_per_s=config.n_boots / DAY_S, horizon_s=DAY_S
    )
    tenants = TenantPopulation(
        config.n_tenants, catalogue,
        seed=derive_seed("workload-day-tenants", config.seed),
        zipf_exponent=config.zipf_exponent,
    )
    node_names = [node.name for node in squirrel.cluster.compute]

    def vm(at, node_name, image_id):
        yield engine.timeout(at)
        if not squirrel.is_registered(image_id):
            # image not registered yet today: fall back to a warm one
            registered = squirrel.registered_ids()
            image_id = registered[image_id % len(registered)]
            timed.record("fallback_boots")
        yield timed.boot(image_id, node_name)

    for at in boot_times:
        _tenant, image_id = tenants.sample(rng)
        node_name = node_names[int(rng.integers(len(node_names)))]
        engine.process(vm(float(at), node_name, image_id))

    register_times = poisson_arrivals(
        rng, rate_per_s=config.n_new_registrations / DAY_S, horizon_s=DAY_S
    )
    new_specs = catalog.specs[config.n_initial_images : catalogue]

    def registration(at, spec):
        yield engine.timeout(at)
        yield timed.register(spec)

    for at, spec in zip(register_times, new_specs):
        engine.process(registration(float(at), spec))

    def nightly_gc():
        yield engine.timeout(DAY_S - 1.0)
        timed.collect_garbage()

    engine.process(nightly_gc())
    # heartbeat horizon: the day ends at DAY_S on the sim clock
    rig.run("day.run", lambda: min(1.0, engine.now / DAY_S))
    if trace_path is not None:
        write_chrome_trace(trace_path, {"day": timed.tracer})
    return DayReport(
        boots=int(timeline.counter("boots")),
        cache_hits=int(timeline.counter("cache_hits")),
        registrations=int(timeline.counter("registrations")),
        compute_ingress_bytes=squirrel.cluster.compute_ingress_bytes(
            purpose="boot-read"
        ) - ingress_before,
        boot_latency=timeline.stats("boot_latency_s"),
        register_latency=timeline.stats("register_latency_s"),
        summary=timeline.summary(),
        metrics=rig.metrics_block(),
    )


# -- registration churn ---------------------------------------------------------------


@dataclass(frozen=True)
class ChurnConfig:
    """Registration pressure with node downtime: offline propagation under
    time, including GC-forced full re-replications."""

    n_nodes: int = 8
    n_storage: int = 4
    block_size: int = 65536
    scale: float = 1.0 / 512.0
    horizon_days: float = 7.0
    registrations_per_day: float = 6.0
    #: per-node expected downtimes over the horizon
    downtimes_per_node: float = 2.0
    mean_downtime_days: float = 0.8
    gc_window_days: float = 2.0
    link: LinkProfile = GBE_1
    seed: int = 0
    trace: bool = False
    #: injected faults running alongside the churn (on top of the planned
    #: downtime windows the scenario itself schedules)
    faults: FaultPlan | None = None
    #: gauge-scrape cadence (30 simulated minutes over a week-long horizon)
    metrics_interval_s: float = 1800.0

    @classmethod
    def from_params(
        cls,
        *,
        nodes: int = 8,
        days: float = 7.0,
        registrations_per_day: float = 6.0,
        downtimes_per_node: float = 2.0,
        seed: int = 0,
        faults: str | None = None,
    ) -> "ChurnConfig":
        """Build a config from the validated experiment params (the ``churn``
        experiment's CLI/sweep surface; ``faults`` is the plan DSL)."""
        return cls(
            n_nodes=nodes,
            horizon_days=days,
            registrations_per_day=registrations_per_day,
            downtimes_per_node=downtimes_per_node,
            seed=seed,
            faults=FaultPlan.parse(faults) if faults else None,
        )


@dataclass(frozen=True)
class ChurnReport(ReportBase):
    registrations: int
    resyncs: int
    incremental_resyncs: int
    full_replications: int
    resync_bytes: int
    register_latency: HistogramStats
    resync_latency: HistogramStats
    summary: dict = field(repr=False)
    #: canonical metrics block: instrument snapshot + sampled series
    metrics: dict = field(repr=False)


def register_churn(
    config: ChurnConfig = ChurnConfig(), *, trace_path=None
) -> ChurnReport:
    """A week of registrations while nodes come and go.

    With a ``trace_path``, the run's spans are exported there as a Chrome
    trace-event JSON file; ``config.faults`` adds injected faults on top of
    the scenario's own planned downtime windows.
    """
    rig = _build_rig(config, seed=derive_seed("churn", config.seed))
    catalog, squirrel, engine, timeline, timed = (
        rig.catalog, rig.squirrel, rig.engine, rig.timeline, rig.timed,
    )
    squirrel.gc_window_days = config.gc_window_days
    horizon_s = config.horizon_days * DAY_S
    rng = rng_stream("workload-churn", config.seed)

    register_times = poisson_arrivals(
        rng, rate_per_s=config.registrations_per_day / DAY_S, horizon_s=horizon_s
    )
    if len(register_times) > len(catalog):
        # each arrival registers a new image: never drop arrivals silently
        raise ConfigError(
            f"churn draws {len(register_times)} registrations but the "
            f"catalog holds only {len(catalog)} images"
        )

    def registration(at, spec):
        yield engine.timeout(at)
        yield timed.register(spec)

    for at, spec in zip(register_times, catalog.specs):
        engine.process(registration(float(at), spec))

    def downtime(node: ComputeNode, start, duration):
        yield engine.timeout(start)
        node.online = False
        timed.record("downtimes")
        yield engine.timeout(duration)
        yield timed.resync(node.name)

    for node in squirrel.cluster.compute:
        n_windows = int(
            rng.poisson(config.downtimes_per_node)
        )
        starts = sorted(rng.uniform(0.0, horizon_s, size=n_windows))
        last_end = 0.0
        for start in starts:
            start = max(float(start), last_end + 60.0)
            duration = float(
                rng.exponential(config.mean_downtime_days * DAY_S)
            )
            if start + duration >= horizon_s:
                break
            engine.process(downtime(node, start, duration))
            last_end = start + duration

    def daily_gc():
        for day in range(1, int(config.horizon_days) + 1):
            yield engine.timeout(day * DAY_S - engine.now)
            timed.collect_garbage()

    engine.process(daily_gc())
    # heartbeat horizon: registrations + downtime all land inside it
    rig.run("churn.run", lambda: min(1.0, engine.now / horizon_s))
    if trace_path is not None:
        write_chrome_trace(trace_path, {"churn": timed.tracer})
    return ChurnReport(
        registrations=int(timeline.counter("registrations")),
        resyncs=int(
            timeline.counter("incremental_resyncs")
            + timeline.counter("full_replications")
        ),
        incremental_resyncs=int(timeline.counter("incremental_resyncs")),
        full_replications=int(timeline.counter("full_replications")),
        resync_bytes=int(timeline.counter("resync_bytes")),
        register_latency=timeline.stats("register_latency_s"),
        resync_latency=timeline.stats("resync_latency_s"),
        summary=timeline.summary(),
        metrics=rig.metrics_block(),
    )
