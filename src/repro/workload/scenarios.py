"""Scenario drivers: Squirrel operations as timed processes.

The accounting layer answers *how many bytes* a boot storm moves; this
module answers *how long it takes* when those bytes contend for NIC links,
glusterfs brick uplinks, local disks, and decompression CPU. It wires a
:class:`repro.sim.Engine` onto an :class:`~repro.core.cluster.IaaSCluster`:

* every compute node gets an ingress NIC :class:`~repro.sim.Pipe`, a
  :class:`~repro.disk.TimedDisk` (DAS-4 RAID-0 profile) and a decompression
  CPU :class:`~repro.sim.Resource`,
* every storage node's uplink is a shared brick Pipe,
* Squirrel ``register`` / ``boot`` / ``resync`` / GC run as generator
  processes: the accounting call executes at its scheduled instant (so all
  byte counts stay identical to the untimed system) and the bytes it moved
  are then driven through the contended resources.

Because the dataset is size-scaled to fit in memory, all *timed* byte
counts are scaled back up by ``1/scale`` before hitting a pipe or disk —
latencies come out in real-cluster seconds while ledger accounting keeps
the scaled units every other experiment uses.

Scenarios: :func:`boot_storm` (flash crowd, the timed generalisation of
Figure 18), :func:`steady_state_day` (diurnal multi-tenant load), and
:func:`register_churn` (registration pressure + node downtime + GC, which
exercises offline-propagation catch-up under time).

Fault tolerance: a :class:`~repro.faults.FaultPlan` on :class:`StormConfig`
runs the storm under injected node crashes, link flaps and brick failures.
Preempted boots cancel their half-done transfers, wait for the crashed host
to rejoin (offline catch-up included), retry, and **always complete**; the
report carries recovery-time percentiles next to the boot-time ones.

Observability: every boot opens a root span on a :class:`~repro.obs.
SpanTracer` with children for the ARC lookup, DDT/zio work, glusterfs
transfers (tagged with the chosen replica and degraded state), NIC transfer
and disk reads/writes; faults annotate the spans they kill. Each node runs
an in-memory :class:`~repro.zfs.AdaptiveReplacementCache` over its cVolume
blocks (a node crash wipes it), and every elapsed second of every boot is
charged to exactly one of ``cache_s`` / ``net_s`` / ``disk_s`` / ``wait_s``
(see :mod:`repro.obs.attribution`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..boot.backends import ZfsCostModel
from ..common.errors import ConfigError
from ..common.hashing import derive_seed
from ..common.report import ReportBase
from ..common.rng import stream as rng_stream
from ..core import IaaSCluster, Squirrel
from ..core.cluster import ComputeNode
from ..core.squirrel import (
    REGISTRATION_BOOT_SECONDS,
    SNAPSHOT_CREATE_SECONDS,
    cold_read_bytes,
)
from ..disk import DAS4_RAID0, DiskModel, TimedDisk
from ..faults import FaultInjector, FaultPlan
from ..metrics import MetricsRegistry, Sampler, TimeSeriesStore, metrics_block
from ..net import GBE_1, LinkProfile
from ..obs import (
    BootAttribution,
    SpanTracer,
    attribution_block,
    critical_path_block,
    write_chrome_trace,
)
from ..obs import runtime as obs_runtime
from ..sim import Engine, Event, HistogramStats, Interrupted, Pipe, Resource, Timeline
from ..vmi import (
    AzureCommunityDataset,
    DatasetConfig,
    ImageCatalog,
    LazyImageCatalog,
    as_catalog,
    make_estimator,
)
from ..zfs import AdaptiveReplacementCache, ArcStats
from ..placement import (
    TRANSPORT_NAMES,
    PlacementContext,
    PlacementSpec,
    build_coordinator,
)
from .arrivals import DAY_S, diurnal_arrivals, flash_crowd_arrivals, poisson_arrivals
from .tenants import TenantPopulation

__all__ = [
    "StormConfig",
    "StormSide",
    "StormReport",
    "DayConfig",
    "DayReport",
    "ChurnConfig",
    "ChurnReport",
    "TimedSquirrel",
    "boot_storm",
    "steady_state_day",
    "register_churn",
    "storm_image_count",
]

#: decompression throughput of one node core (gzip-6; matches repro.boot)
DECOMPRESS_BYTES_PER_S = 250e6
#: disk span the scattered cache/working-set offsets are drawn over
DISK_SPAN_BYTES = 1 << 40
#: in-memory ARC budget per compute node (matches the cVolume boot backend)
ARC_BYTES_PER_NODE = 256 << 20
#: fixed bucket layout (seconds) shared by every latency histogram family —
#: declared, never data-derived, so expositions diff cleanly across runs
LATENCY_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    120.0, 300.0, 600.0, 1800.0, 3600.0,
)
#: ring capacity of the per-run time-series store (samples per series)
METRICS_RING = 4096
#: per-node metric series are exported for at most this many compute nodes
#: (the paper's 64-node cluster): beyond it, counters fold into a "_other"
#: series (fleet sums stay exact) and per-node gauges are replaced by one
#: "_fleet" aggregate. Without the cap a 10k-node storm is quadratic in the
#: sampler — O(nodes) series per scrape times an O(nodes) horizon.
METRICS_NODE_DETAIL = 64


def _disk_offset(size: int, *key) -> int:
    """Deterministic platter position of one piece of data."""
    span = max(1, DISK_SPAN_BYTES - size)
    return derive_seed("disk-offset", *key) % span


class _InflightBoot:
    """Book-keeping handle for one boot in flight: what the fault injector
    needs to preempt it (the process) and to target it (which bricks or
    peer holders its current fetch is streaming from)."""

    __slots__ = ("node_name", "process", "bricks", "peers")

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self.process = None  #: set right after engine.process() creates it
        self.bricks: set[str] = set()
        self.peers: set[str] = set()  #: placement peer(s) serving this fetch


class _BootTrace:
    """One boot's tracing context: the root span, the attribution ledger,
    and the child spans a fault interrupt must annotate and close."""

    __slots__ = ("tracer", "att", "root", "open_spans")

    def __init__(self, tracer: SpanTracer, att: BootAttribution, root) -> None:
        self.tracer = tracer
        self.att = att
        self.root = root
        self.open_spans: list = []

    def child(self, name: str, *, parent=None, **attrs):
        """Open a child span on the boot's track, tracked for fault kills."""
        span = self.tracer.span(
            name, parent=parent or self.root, track=self.root.track, **attrs
        )
        self.open_spans.append(span)
        return span

    def kill(self, cause) -> None:
        """A fault preempted this boot: close every span it left open,
        recording what killed it."""
        for span in self.open_spans:
            if span.open:
                span.end(interrupted=str(cause))
        self.open_spans.clear()


class _ShardedNodeArc:
    """A node's boot ARC partitioned by shard: one independent
    :class:`~repro.zfs.AdaptiveReplacementCache` per shard, keyed through the
    shard plan. This is the RAM half of noisy-neighbor isolation — a tenant
    whose images all land in one shard can only thrash that shard's slice.

    The aggregate surface (``stats``/``p``/``resident_bytes``/``clear``)
    matches the plain ARC, so timeline gauges, the ``_fleet`` sweep, and the
    fault injector's crash-wipe work unchanged."""

    __slots__ = ("plan", "shards")

    def __init__(self, plan, shards: dict[str, AdaptiveReplacementCache]):
        self.plan = plan
        self.shards = shards

    def _arc(self, key) -> AdaptiveReplacementCache:
        # boot ARC keys are (image_id, block_index); route by image
        return self.shards[self.plan.shard_of(key[0])]

    def get(self, key):
        return self._arc(key).get(key)

    def put(self, key, value, size: int) -> None:
        self._arc(key).put(key, value, size)

    def clear(self) -> None:
        for arc in self.shards.values():
            arc.clear()

    @property
    def p(self) -> int:
        return sum(arc.p for arc in self.shards.values())

    @property
    def resident_bytes(self) -> int:
        return sum(arc.resident_bytes for arc in self.shards.values())

    @property
    def stats(self) -> ArcStats:
        total: dict[str, int] = {}
        for arc in self.shards.values():
            for key, value in arc.stats.as_dict().items():
                total[key] = total.get(key, 0) + value
        return ArcStats(**total)


def _node_shard_ddt_core(pool, domain: str | None) -> float:
    """Resident DDT bytes of one shard's dedup domain on a node pool
    (``None``: the global DDT), without creating the domain (scrapes must
    never mutate)."""
    ddt = pool.ddt if domain is None else pool.peek_domain_ddt(domain)
    return float(ddt.in_core_bytes) if ddt is not None else 0.0


class TimedSquirrel:
    """Drives Squirrel operations through the event engine's resources."""

    def __init__(
        self,
        squirrel: Squirrel,
        dataset: AzureCommunityDataset | ImageCatalog,
        engine: Engine,
        timeline: Timeline,
        *,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
        cpu_cores_per_node: int = 2,
        arc_bytes_per_node: int = ARC_BYTES_PER_NODE,
    ) -> None:
        self.squirrel = squirrel
        #: eager datasets are adapted (specs shared, nothing recomputed)
        self.catalog = as_catalog(dataset)
        self.engine = engine
        self.timeline = timeline
        self.tracer = tracer or SpanTracer(engine)
        self.metrics = metrics or MetricsRegistry()
        #: timed transfers replay the paper-scale byte counts
        self.scale_up = self.catalog.scaled_up
        cluster = squirrel.cluster
        self.nic: dict[str, Pipe] = {
            node.name: node.node.link.make_pipe(
                engine, name=f"nic:{node.name}", timeline=timeline
            )
            for node in cluster.compute
        }
        self.brick: dict[str, Pipe] = {
            node.name: node.link.make_pipe(
                engine, name=f"brick:{node.name}", timeline=timeline
            )
            for node in cluster.storage.nodes
        }
        self.disk: dict[str, TimedDisk] = {
            node.name: TimedDisk(
                engine, DiskModel(DAS4_RAID0), name=f"disk:{node.name}",
                timeline=timeline,
            )
            for node in cluster.compute
        }
        self.cpu: dict[str, Resource] = {
            node.name: Resource(
                engine, cpu_cores_per_node, name=f"cpu:{node.name}",
                timeline=timeline,
            )
            for node in cluster.compute
        }
        #: per-node in-memory ARC over cVolume blocks (decompressed records,
        #: charged at paper-scale bytes); a node crash wipes it. Each node's
        #: ARC is partitioned per shard (the router's slice when a quota is
        #: set, else an even split of the node budget) so one tenant's churn
        #: cannot evict another shard's residents. One shard is the plain
        #: ARC: the hot path routes no block.
        plan = squirrel.cvolume.plan
        per_shard = getattr(squirrel.sharding, "arc_bytes_per_shard", None)
        per_shard = per_shard or max(1, arc_bytes_per_node // plan.n_shards)
        #: node name -> shard -> that shard's ARC slice
        self.shard_arcs: dict[str, dict[str, AdaptiveReplacementCache]] = {
            node.name: {
                shard: AdaptiveReplacementCache(per_shard)
                for shard in plan.names
            }
            for node in cluster.compute
        }
        self.arc: dict[str, AdaptiveReplacementCache | _ShardedNodeArc] = {
            name: (
                _ShardedNodeArc(plan, arcs)
                if plan.n_shards > 1
                else arcs[plan.names[0]]
            )
            for name, arcs in self.shard_arcs.items()
        }
        #: per-block ZFS pipeline costs (shared with the Figure 11 backend)
        self.zfs_costs = ZfsCostModel()
        #: fault-injection hooks: the injector attaches itself here and
        #: consults the in-flight boot registry to preempt work
        self.faults: FaultInjector | None = None
        #: insertion-ordered (dict-as-set): preemption must walk boots in a
        #: deterministic order or same-seed runs diverge
        self._inflight: dict[str, dict[_InflightBoot, None]] = {
            node.name: {} for node in cluster.compute
        }
        self._instrument()

    def _instrument(self) -> None:
        """Declare every metric family this rig exports.

        Per-node children are pre-created so the exposition covers the whole
        fleet (at zero) from the first scrape; callback gauges read live
        simulation state — ARC geometry, DDT footprint, pipe utilisation —
        at scrape time without the hot paths pushing updates. Scraping never
        mutates anything, so metrics cannot perturb byte accounting.

        Fleets larger than :data:`METRICS_NODE_DETAIL` export per-node
        series for the first ``METRICS_NODE_DETAIL`` nodes only; the rest
        share a "_other" counter child and a "_fleet" aggregate gauge, so
        the scrape cost is bounded while fleet-wide sums stay exact.
        """
        m = self.metrics
        cluster = self.squirrel.cluster
        all_names = [node.name for node in cluster.compute]
        names = all_names[:METRICS_NODE_DETAIL]
        self._node_detail = frozenset(names)
        self._capped = len(all_names) > len(names)
        self._m_boots = m.counter(
            "squirrel_boots_total", "Completed VM boots", labels=("node",)
        )
        self._m_cache_hits = m.counter(
            "squirrel_boot_cache_hits_total",
            "Boots served from the node's cVolume cache",
            labels=("node",),
        )
        self._m_cold = m.counter(
            "squirrel_boot_cold_total",
            "Boots that streamed their boot set from storage",
            labels=("node",),
        )
        self._m_cold_bytes = m.counter(
            "squirrel_cold_read_bytes_total",
            "Paper-scale bytes cold boots pulled over the network",
            labels=("node",),
        )
        self._m_interrupts = m.counter(
            "squirrel_boot_interrupts_total",
            "Boot attempts preempted by a fault",
            labels=("node",),
        )
        self._m_registrations = m.counter(
            "squirrel_registrations_total", "Image registrations completed"
        )
        self._m_resyncs = m.counter(
            "squirrel_resyncs_total",
            "Offline-propagation catch-ups that moved data",
            labels=("kind",),
        )
        self._m_resync_bytes = m.counter(
            "squirrel_resync_bytes_total", "Bytes moved by resyncs (scaled units)"
        )
        self._m_gc_runs = m.counter(
            "squirrel_gc_runs_total", "Garbage-collection sweeps"
        )
        self._m_gc_victims = m.counter(
            "squirrel_gc_victims_total", "Snapshots reclaimed by GC"
        )
        self._m_arc_hits = m.counter(
            "zfs_arc_hits_total", "ARC hits by tier", labels=("node", "tier")
        )
        self._m_arc_ghosts = m.counter(
            "zfs_arc_ghost_hits_total",
            "ARC ghost-list hits by tier",
            labels=("node", "tier"),
        )
        self._m_arc_misses = m.counter(
            "zfs_arc_misses_total", "ARC misses", labels=("node",)
        )
        self._m_arc_evictions = m.counter(
            "zfs_arc_evictions_total",
            "ARC evictions by tier",
            labels=("node", "tier"),
        )
        self._m_boot_latency = m.histogram(
            "squirrel_boot_latency_seconds",
            "End-to-end boot latency",
            buckets=LATENCY_BUCKETS,
        )
        self._m_recovery = m.histogram(
            "squirrel_recovery_seconds",
            "First fault impact to boot completion",
            buckets=LATENCY_BUCKETS,
        )
        self._m_register_latency = m.histogram(
            "squirrel_register_latency_seconds",
            "Registration latency (boot-once + snapshot + multicast)",
            buckets=LATENCY_BUCKETS,
        )
        self._m_resync_latency = m.histogram(
            "squirrel_resync_latency_seconds",
            "Offline-propagation catch-up latency",
            buckets=LATENCY_BUCKETS,
        )
        for name in names + (["_other"] if self._capped else []):
            for family in (
                self._m_boots, self._m_cache_hits, self._m_cold,
                self._m_cold_bytes, self._m_interrupts, self._m_arc_misses,
            ):
                family.labels(node=name)
            for tier in ("t1", "t2"):
                self._m_arc_hits.labels(node=name, tier=tier)
                self._m_arc_evictions.labels(node=name, tier=tier)
            for tier in ("b1", "b2"):
                self._m_arc_ghosts.labels(node=name, tier=tier)
        arc_p = m.gauge(
            "zfs_arc_p_bytes",
            "ARC adaptive target for T1 (paper-scale bytes)",
            labels=("node",),
        )
        arc_resident = m.gauge(
            "zfs_arc_resident_bytes",
            "Bytes resident in the node's boot ARC (paper-scale)",
            labels=("node",),
        )
        arc_rate = m.gauge(
            "zfs_arc_hit_rate", "Lifetime ARC hit rate", labels=("node",)
        )
        for name in names:
            arc = self.arc[name]
            arc_p.labels(node=name).set_function(lambda a=arc: float(a.p))
            arc_resident.labels(node=name).set_function(
                lambda a=arc: float(a.resident_bytes)
            )
            arc_rate.labels(node=name).set_function(
                lambda a=arc: float(a.stats.hit_rate)
            )
        ddt_entries = m.gauge(
            "zfs_ddt_entries", "Dedup-table entries", labels=("node", "tier")
        )
        ddt_core = m.gauge(
            "zfs_ddt_core_bytes", "DDT resident RAM", labels=("node", "tier")
        )
        pool_data = m.gauge(
            "zfs_pool_allocated_bytes",
            "Pool data bytes allocated after dedup",
            labels=("node", "tier"),
        )
        # compute gauges read through the node: replica sharing repoints
        # ``node.pool`` to a different ZPool object on copy-on-write splits,
        # so binding the pool at instrument time would scrape stale state
        for node in cluster.compute[:METRICS_NODE_DETAIL]:
            ddt_entries.labels(node=node.name, tier="compute").set_function(
                lambda n=node: float(n.pool.ddt.entry_count)
            )
            ddt_core.labels(node=node.name, tier="compute").set_function(
                lambda n=node: float(n.pool.ddt.in_core_bytes)
            )
            pool_data.labels(node=node.name, tier="compute").set_function(
                lambda n=node: float(n.pool.data_bytes)
            )
        spool = cluster.storage.pool
        ddt_entries.labels(node=spool.name, tier="storage").set_function(
            lambda p=spool: float(p.ddt.entry_count)
        )
        ddt_core.labels(node=spool.name, tier="storage").set_function(
            lambda p=spool: float(p.ddt.in_core_bytes)
        )
        pool_data.labels(node=spool.name, tier="storage").set_function(
            lambda p=spool: float(p.data_bytes)
        )
        if self._capped:
            # one whole-fleet aggregate replaces the dropped per-node gauge
            # series; the four sums share a single per-timestamp sweep so a
            # scrape walks the fleet once, not once per gauge
            sweep_cache: dict = {"now": None, "vals": (0.0, 0.0, 0.0, 0.0)}

            def _fleet(idx, cache=sweep_cache, nodes=cluster.compute,
                       arcs=self.arc, engine=self.engine):
                if cache["now"] != engine.now:
                    entries = core = data = 0.0
                    for node in nodes:
                        pool = node.pool
                        entries += pool.ddt.entry_count
                        core += pool.ddt.in_core_bytes
                        data += pool.data_bytes
                    resident = float(
                        sum(a.resident_bytes for a in arcs.values())
                    )
                    cache["now"] = engine.now
                    cache["vals"] = (entries, core, data, resident)
                return cache["vals"][idx]

            ddt_entries.labels(node="_fleet", tier="compute").set_function(
                lambda: _fleet(0)
            )
            ddt_core.labels(node="_fleet", tier="compute").set_function(
                lambda: _fleet(1)
            )
            pool_data.labels(node="_fleet", tier="compute").set_function(
                lambda: _fleet(2)
            )
            arc_resident.labels(node="_fleet").set_function(
                lambda: _fleet(3)
            )
        utilization = m.gauge(
            "net_pipe_utilization",
            "Lifetime busy fraction of a link",
            labels=("link", "tier"),
        )
        queue_depth = m.gauge(
            "net_pipe_queue_depth",
            "Concurrent flows sharing a link",
            labels=("link", "tier"),
        )
        moved_bytes = m.gauge(
            "net_pipe_moved_bytes",
            "Lifetime bytes admitted to a link (paper-scale)",
            labels=("link", "tier"),
        )
        nic_detail = {
            name: self.nic[name] for name in names if name in self.nic
        }
        for tier, pipes in (("nic", nic_detail), ("brick", self.brick)):
            for name, pipe in pipes.items():
                utilization.labels(link=name, tier=tier).set_function(
                    lambda p=pipe: p.busy_fraction()
                )
                queue_depth.labels(link=name, tier=tier).set_function(
                    lambda p=pipe: float(p.active_flows)
                )
                moved_bytes.labels(link=name, tier=tier).set_function(
                    lambda p=pipe: float(p.total_bytes)
                )
        gluster = cluster.storage.gluster
        m.gauge(
            "net_gluster_degraded",
            "1 while any brick is out of the read rotation",
        ).set_function(lambda g=gluster: float(g.degraded))
        served = m.gauge(
            "net_brick_served_bytes",
            "Bytes served by a brick (scaled units)",
            labels=("node",),
        )
        for node in cluster.storage.nodes:
            served.labels(node=node.name).set_function(
                lambda g=gluster, n=node.name: float(g.served_bytes(n))
            )
        cpu_queue = m.gauge(
            "sim_cpu_queue_depth",
            "Boots queued for a decompression core",
            labels=("node",),
        )
        inflight = m.gauge(
            "squirrel_boots_in_flight",
            "Boots currently in flight",
            labels=("node",),
        )
        for name in names:
            cpu_queue.labels(node=name).set_function(
                lambda r=self.cpu[name]: float(r.queue_length)
            )
            inflight.labels(node=name).set_function(
                lambda b=self._inflight[name]: float(len(b))
            )
        # placement instruments exist only when a coordinator is attached —
        # a placement-free rig's metrics block stays byte-identical to
        # pre-placement builds.
        placement = self.squirrel.placement
        if placement is not None:
            self._m_redirects = m.counter(
                "placement_peer_redirects_total",
                "Boot misses served by a peer holder instead of the origin",
                labels=("node",),
            )
            self._m_redirect_bytes = m.counter(
                "placement_redirect_bytes_total",
                "Paper-scale bytes moved by peer redirects",
            )
            self._m_fallbacks = m.counter(
                "placement_origin_fallbacks_total",
                "Misses that fell back to glusterfs (no live holder)",
            )
            self._m_adoptions = m.counter(
                "placement_adoptions_total",
                "Promote-on-miss adoptions",
                labels=("node",),
            )
            self._m_adopted_bytes = m.counter(
                "placement_adopted_bytes_total",
                "Paper-scale bytes installed by adoptions",
            )
            self._m_seed_bytes = m.counter(
                "placement_seed_bytes_total",
                "Paper-scale receiver-ingress bytes moved by seeding",
                labels=("transport",),
            )
            for name in names + (["_other"] if self._capped else []):
                self._m_redirects.labels(node=name)
                self._m_adoptions.labels(node=name)
            for transport in TRANSPORT_NAMES:
                self._m_seed_bytes.labels(transport=transport)
            directory = placement.directory
            hoarded = m.gauge(
                "placement_hoarded_bytes",
                "Logical cache bytes hoarded on a node (scaled units)",
                labels=("node",),
            )
            images_hoarded = m.gauge(
                "placement_images_hoarded",
                "Images whose cache a node holds",
                labels=("node",),
            )
            for name in names:
                hoarded.labels(node=name).set_function(
                    lambda d=directory, n=name: float(d.hoarded_bytes(n))
                )
                images_hoarded.labels(node=name).set_function(
                    lambda d=directory, n=name: float(len(d.images_of(n)))
                )
            m.gauge(
                "placement_images_tracked",
                "Images tracked by the placement directory",
            ).set_function(lambda d=directory: float(len(d.images())))
        # sharding instruments exist only when a ShardRouter is attached —
        # an unsharded rig's metrics block stays byte-identical to
        # pre-sharding builds.
        sharding = self.squirrel.sharding
        if sharding is not None:
            shards = list(sharding.plan.names)
            domains = {
                shard: chain.domain
                for shard, chain in self.squirrel.cvolume.chains.items()
            }
            # per-tenant families: the tenant axis is capped the same way
            # the node axis is — detail children for the first
            # METRICS_NODE_DETAIL tenants, a shared "_other" child beyond
            # (fleet sums stay exact), and no gauge series past the cap.
            tenant_ids = [int(t) for t in getattr(sharding, "tenants", ())]
            detail_ids = tenant_ids[:METRICS_NODE_DETAIL]
            self._tenant_detail = frozenset(
                f"t{t:02d}" for t in detail_ids
            )
            self._tenant_capped = len(tenant_ids) > len(detail_ids)
            self._m_tenant_boots = m.counter(
                "squirrel_tenant_boots_total",
                "Completed VM boots per tenant",
                labels=("tenant",),
            )
            self._m_tenant_cache_hits = m.counter(
                "squirrel_tenant_cache_hits_total",
                "Per-tenant boots served from the node's cVolume cache",
                labels=("tenant",),
            )
            self._m_tenant_arc_hits = m.counter(
                "squirrel_tenant_arc_hits_total",
                "Per-tenant ARC record hits during warm boots",
                labels=("tenant",),
            )
            self._m_tenant_arc_misses = m.counter(
                "squirrel_tenant_arc_misses_total",
                "Per-tenant ARC record misses during warm boots",
                labels=("tenant",),
            )
            tenant_labels = [f"t{t:02d}" for t in detail_ids]
            for label in tenant_labels + (
                ["_other"] if self._tenant_capped else []
            ):
                for family in (
                    self._m_tenant_boots, self._m_tenant_cache_hits,
                    self._m_tenant_arc_hits, self._m_tenant_arc_misses,
                ):
                    family.labels(tenant=label)
            tenant_rate = m.gauge(
                "squirrel_tenant_hit_rate",
                "Lifetime per-tenant ARC hit rate (the noisy-neighbor SLO)",
                labels=("tenant",),
            )
            for t in detail_ids:
                tenant_rate.labels(tenant=f"t{t:02d}").set_function(
                    lambda s=sharding, t=t: float(s.tenant_hit_rate(t))
                )
            # per-(node, shard) ARC counters, folded past the node cap
            self._m_shard_arc_hits = m.counter(
                "zfs_shard_arc_hits_total",
                "ARC hits within one shard's slice of a node ARC",
                labels=("node", "shard"),
            )
            self._m_shard_arc_misses = m.counter(
                "zfs_shard_arc_misses_total",
                "ARC misses within one shard's slice of a node ARC",
                labels=("node", "shard"),
            )
            for name in names + (["_other"] if self._capped else []):
                for shard in shards:
                    self._m_shard_arc_hits.labels(node=name, shard=shard)
                    self._m_shard_arc_misses.labels(node=name, shard=shard)
            shard_resident = m.gauge(
                "zfs_shard_arc_resident_bytes",
                "Bytes resident in one shard's ARC slice (paper-scale)",
                labels=("node", "shard"),
            )
            shard_rate = m.gauge(
                "zfs_shard_arc_hit_rate",
                "Lifetime hit rate of one shard's ARC slice",
                labels=("node", "shard"),
            )
            shard_node_core = m.gauge(
                "zfs_shard_node_ddt_core_bytes",
                "Resident DDT bytes of a shard's dedup domain on a node",
                labels=("node", "shard"),
            )
            for node in cluster.compute[:METRICS_NODE_DETAIL]:
                arcs = self.shard_arcs[node.name]
                for shard in shards:
                    arc = arcs[shard]
                    shard_resident.labels(
                        node=node.name, shard=shard
                    ).set_function(lambda a=arc: float(a.resident_bytes))
                    shard_rate.labels(
                        node=node.name, shard=shard
                    ).set_function(lambda a=arc: float(a.stats.hit_rate))
                    shard_node_core.labels(
                        node=node.name, shard=shard
                    ).set_function(
                        lambda n=node, d=domains[shard]:
                        _node_shard_ddt_core(n.pool, d)
                    )
            if self._capped:
                # one per-shard fleet aggregate replaces the dropped
                # per-node series; both sums share one per-timestamp sweep
                shard_sweep: dict = {"now": None, "vals": {}}

                def _shard_fleet(idx, shard, cache=shard_sweep,
                                 nodes=cluster.compute, arcs=self.shard_arcs,
                                 engine=self.engine, domains=domains):
                    if cache["now"] != engine.now:
                        vals = {}
                        for s, domain in domains.items():
                            resident = float(sum(
                                arcs[n.name][s].resident_bytes
                                for n in nodes
                            ))
                            core = float(sum(
                                _node_shard_ddt_core(n.pool, domain)
                                for n in nodes
                            ))
                            vals[s] = (resident, core)
                        cache["now"] = engine.now
                        cache["vals"] = vals
                    return cache["vals"][shard][idx]

                for shard in shards:
                    shard_resident.labels(
                        node="_fleet", shard=shard
                    ).set_function(lambda s=shard: _shard_fleet(0, s))
                    shard_node_core.labels(
                        node="_fleet", shard=shard
                    ).set_function(lambda s=shard: _shard_fleet(1, s))
            # storage-side per-shard families over the scVolume's domains
            sp = self.squirrel.cvolume.scvol
            shard_entries = m.gauge(
                "zfs_shard_ddt_entries",
                "scVolume DDT entries in one shard's dedup domain",
                labels=("shard",),
            )
            shard_core = m.gauge(
                "zfs_shard_ddt_core_bytes",
                "scVolume DDT resident RAM per shard",
                labels=("shard",),
            )
            shard_core_high = m.gauge(
                "zfs_shard_ddt_core_high_bytes",
                "High-water mark of a shard DDT's resident RAM",
                labels=("shard",),
            )
            shard_pressure = m.gauge(
                "zfs_shard_quota_pressure",
                "Shard referenced bytes over its byte quota",
                labels=("shard",),
            )
            # lifetime totals read off the router (callback gauges, like
            # net_pipe_moved_bytes): evictions happen inside untimed setup
            # registrations too, which manual counters would miss
            shard_evictions = m.gauge(
                "zfs_shard_quota_evictions_total",
                "Lifetime hoards evicted to honour a shard quota",
                labels=("shard",),
            )
            shard_evicted_bytes = m.gauge(
                "zfs_shard_quota_evicted_bytes_total",
                "Lifetime bytes reclaimed by shard-quota evictions "
                "(scaled units)",
                labels=("shard",),
            )
            for shard in shards:
                shard_entries.labels(shard=shard).set_function(
                    lambda sp=sp, s=shard: float(sp.ddt(s).entry_count)
                )
                shard_core.labels(shard=shard).set_function(
                    lambda sp=sp, s=shard: float(sp.ddt(s).in_core_bytes)
                )
                # the stored high-water only advances on refresh(); fold in
                # the live value so scrapes between refreshes stay monotone
                # without mutating router state
                shard_core_high.labels(shard=shard).set_function(
                    lambda sp=sp, s=shard: float(max(
                        sp.ddt_core_high_bytes(s), sp.ddt(s).in_core_bytes
                    ))
                )
                shard_pressure.labels(shard=shard).set_function(
                    lambda sp=sp, s=shard: float(sp.quota_pressure(s))
                )
                shard_evictions.labels(shard=shard).set_function(
                    lambda sp=sp, s=shard: float(sp.evictions(s))
                )
                shard_evicted_bytes.labels(shard=shard).set_function(
                    lambda sp=sp, s=shard: float(sp.evicted_bytes(s))
                )
            m.gauge(
                "zfs_shard_dedup_loss_bytes",
                "Bytes stored once per shard that a global DDT would share",
            ).set_function(lambda sp=sp: float(sp.dedup_loss_bytes()))

    def _tenant_label(self, tenant_id: int) -> str:
        """Metric label for a tenant, folded past the detail cap the same
        way node labels are."""
        label = f"t{tenant_id:02d}"
        return label if label in self._tenant_detail else "_other"

    def _node_label(self, node_name: str) -> str:
        """Metric label for a compute node: its own name inside the
        per-node detail set, the shared "_other" child beyond it (fleet
        totals across children stay exact either way)."""
        return node_name if node_name in self._node_detail else "_other"

    # -- fault-injector queries ----------------------------------------------------

    def inflight(self, node_name: str) -> list[_InflightBoot]:
        """Boots currently in flight on one compute node (snapshot)."""
        return list(self._inflight.get(node_name, ()))

    def inflight_on_brick(self, brick_name: str) -> list[_InflightBoot]:
        """Boots with a fetch currently streaming from one brick (snapshot)."""
        return [
            boot
            for boots in self._inflight.values()
            for boot in boots
            if brick_name in boot.bricks
        ]

    def inflight_from_peer(self, peer_name: str) -> list[_InflightBoot]:
        """Boots currently streaming a redirect from one peer holder
        (snapshot) — what a crash of that holder must preempt."""
        return [
            boot
            for boots in self._inflight.values()
            for boot in boots
            if peer_name in boot.peers
        ]

    # -- timed operations (each returns a yieldable Process) ----------------------

    def boot(self, image_id: int, node_name: str, *, force_cold: bool = False,
             tenant: int | None = None):
        """One timed VM boot; observes ``boot_latency_s`` (and, when a fault
        got in the way, ``recovery_s``). Registered with the in-flight
        registry so the fault injector can preempt it. ``tenant`` feeds the
        per-tenant accounting of a sharded rig and is ignored otherwise."""
        handle = _InflightBoot(node_name)
        process = self.engine.process(
            self._boot(image_id, node_name, force_cold, handle, tenant),
            label=f"boot:{node_name}:{image_id}",
        )
        handle.process = process
        self._inflight[node_name][handle] = None
        return process

    def _boot(self, image_id: int, node_name: str, force_cold: bool, handle,
              tenant: int | None = None):
        engine = self.engine
        t0 = engine.now
        self.timeline.count("boots")
        bt = _BootTrace(
            self.tracer,
            BootAttribution(engine),
            self.tracer.span(
                "boot", track=node_name, node=node_name, image_id=image_id
            ),
        )
        first_fail: float | None = None
        interrupts = 0
        try:
            while True:
                try:
                    if self.faults is not None and self.faults.is_down(node_name):
                        # the host is dark: nothing can boot until it rejoins
                        # (reboot + offline catch-up), so queue on that
                        if first_fail is None:
                            first_fail = engine.now
                            self.timeline.count("boots_delayed")
                        wait_span = bt.child("fault.wait", cause="node-down")
                        yield self.faults.rejoin_event(node_name)
                        bt.att.charge("wait_s")
                        wait_span.end()
                    cache_hit = yield from self._attempt(
                        image_id, node_name, force_cold, handle, bt, tenant
                    )
                    break
                except Interrupted as fault:
                    # preempted (node crash / brick failure): loop — either
                    # wait for the rejoin or re-plan around the dead brick.
                    # Time sunk into the killed attempt is recovery wait.
                    bt.att.charge("wait_s")
                    bt.kill(fault.cause)
                    interrupts += 1
                    if first_fail is None:
                        first_fail = engine.now
                    self.timeline.count("boot_interrupts")
                    self._m_interrupts.labels(node=self._node_label(node_name)).inc()
        finally:
            self._inflight[node_name].pop(handle, None)
        self.timeline.count("cache_hits" if cache_hit else "cold_boots")
        self.timeline.observe("boot_latency_s", engine.now - t0)
        self._m_boots.labels(node=self._node_label(node_name)).inc()
        (self._m_cache_hits if cache_hit else self._m_cold).labels(
            node=self._node_label(node_name)
        ).inc()
        sharding = self.squirrel.sharding
        if sharding is not None and tenant is not None:
            sharding.note_tenant_boot(tenant, cache_hit)
            label = self._tenant_label(tenant)
            self._m_tenant_boots.labels(tenant=label).inc()
            if cache_hit:
                self._m_tenant_cache_hits.labels(tenant=label).inc()
        self._m_boot_latency.observe(engine.now - t0)
        bt.att.observe(self.timeline)
        bt.root.end(
            cache_hit=cache_hit, interrupts=interrupts, **bt.att.buckets
        )
        if first_fail is not None:
            self.timeline.observe("recovery_s", engine.now - first_fail)
            self._m_recovery.observe(engine.now - first_fail)
        return engine.now - t0

    def _attempt(self, image_id, node_name, force_cold: bool, handle, bt,
                 tenant: int | None = None):
        """One boot attempt (the pre-fault boot path, verbatim)."""
        outcome = None
        if force_cold:
            # the "w/o caches" baseline: the boot set crosses the network
            # even when a cache exists (Figure 18's comparison series)
            spec = self.catalog.spec(image_id)
            moved, plan = self.squirrel.cluster.storage.gluster.read_with_plan(
                f"vmi-{image_id:05d}", 0, cold_read_bytes(spec),
                reader=node_name, purpose="boot-read",
            )
            cache_hit = False
        else:
            outcome, plan = self.squirrel.boot_with_plan(image_id, node_name)
            moved = outcome.network_bytes
            cache_hit = outcome.cache_hit
        if cache_hit:
            yield from self._warm_read(image_id, node_name, bt, tenant)
        elif outcome is not None and outcome.source == "peer":
            yield from self._peer_fetch(outcome, node_name, handle, bt)
        else:
            if outcome is not None and self.squirrel.placement is not None:
                # placement active but no live holder: glusterfs fallback
                self.timeline.count("origin_fallbacks")
                self._m_fallbacks.inc()
            yield from self._cold_fetch(node_name, moved, plan, handle, bt)
        return cache_hit

    def _paper_blocks(self, logical_bytes: int) -> int:
        """Paper-scale record count behind ``logical_bytes`` of scaled data
        (the unit the per-block ZFS pipeline costs are charged against)."""
        if logical_bytes <= 0:
            return 0
        record = self.squirrel.cluster.storage.scvolume.record_size
        return max(1, int(self.scale_up(logical_bytes)) // record)

    def _warm_read(self, image_id: int, node_name: str, bt,
                   tenant: int | None = None):
        """Cache hit: resolve each cVolume block through the node's ARC;
        misses read the compressed record off the local pool and decompress
        it — zero network involvement either way."""
        node = self.squirrel.cluster.node(node_name)
        chain = self.squirrel.cvolume.chain_of(image_id)
        cache = node.pool.dataset(chain.cc_name).file(
            self.squirrel.cache_file_of(image_id)
        )
        arc = self.arc[node_name]
        before = arc.stats.as_dict()
        lookup = bt.child("arc.lookup", image_id=image_id)
        total_logical = 0
        missed_physical = missed_logical = 0
        blocks = misses = 0
        for index, bp in enumerate(cache.blocks):
            if bp.is_hole:
                continue
            blocks += 1
            total_logical += bp.lsize
            if arc.get((image_id, index)) is not None:
                continue  # decompressed record resident in T1/T2: free
            misses += 1
            missed_physical += bp.psize
            missed_logical += bp.lsize
            arc.put(
                (image_id, index), True, max(1, int(self.scale_up(bp.lsize)))
            )
        after = arc.stats.as_dict()
        delta = {key: after[key] - before[key] for key in after}
        self.timeline.count("arc_t1_hits", delta["t1_hits"])
        self.timeline.count("arc_t2_hits", delta["t2_hits"])
        self.timeline.count("arc_b1_ghost_hits", delta["b1_ghost_hits"])
        self.timeline.count("arc_b2_ghost_hits", delta["b2_ghost_hits"])
        self.timeline.count("arc_misses", delta["misses"])
        self.timeline.count(
            "arc_evictions", delta["t1_evictions"] + delta["t2_evictions"]
        )
        node_label = self._node_label(node_name)
        self._m_arc_hits.labels(node=node_label, tier="t1").inc(delta["t1_hits"])
        self._m_arc_hits.labels(node=node_label, tier="t2").inc(delta["t2_hits"])
        self._m_arc_ghosts.labels(node=node_label, tier="b1").inc(
            delta["b1_ghost_hits"]
        )
        self._m_arc_ghosts.labels(node=node_label, tier="b2").inc(
            delta["b2_ghost_hits"]
        )
        self._m_arc_misses.labels(node=node_label).inc(delta["misses"])
        self._m_arc_evictions.labels(node=node_label, tier="t1").inc(
            delta["t1_evictions"]
        )
        self._m_arc_evictions.labels(node=node_label, tier="t2").inc(
            delta["t2_evictions"]
        )
        sharding = self.squirrel.sharding
        if sharding is not None:
            shard_hits = delta["t1_hits"] + delta["t2_hits"]
            self._m_shard_arc_hits.labels(
                node=node_label, shard=chain.name
            ).inc(shard_hits)
            self._m_shard_arc_misses.labels(
                node=node_label, shard=chain.name
            ).inc(delta["misses"])
            if tenant is not None:
                sharding.note_tenant_arc(tenant, shard_hits, delta["misses"])
                tenant_label = self._tenant_label(tenant)
                self._m_tenant_arc_hits.labels(tenant=tenant_label).inc(
                    shard_hits
                )
                self._m_tenant_arc_misses.labels(tenant=tenant_label).inc(
                    delta["misses"]
                )
        self.timeline.gauge(f"arc_p:{node_name}", arc.p)
        self.timeline.gauge(f"arc_resident:{node_name}", arc.resident_bytes)
        # the block-pointer walk + DDT/ZAP lookup for every record of the
        # paper-scale cache file
        yield self.engine.timeout(
            self._paper_blocks(total_logical) * self.zfs_costs.ddt_lookup_s
        )
        bt.att.charge("cache_s")
        lookup.end(
            t1_hits=delta["t1_hits"], t2_hits=delta["t2_hits"], misses=misses,
            ghost_hits=delta["b1_ghost_hits"] + delta["b2_ghost_hits"],
        )
        if misses == 0:
            return  # pure memory boot: every record was ARC-resident
        physical = int(self.scale_up(missed_physical))
        logical = int(self.scale_up(missed_logical))
        disk_span = bt.child("disk.read", n_bytes=physical)
        service = yield self.disk[node_name].read(
            _disk_offset(physical, image_id), physical
        )
        bt.att.charge_split(service, "disk_s")
        disk_span.end(
            service_s=service,
            queue_s=max(0.0, self.engine.now - disk_span.start_s - service),
        )
        zio = bt.child("zio.decompress", n_bytes=logical)
        grant = self.cpu[node_name].request()
        try:
            yield grant
        except Interrupted:
            # preempted while queued for (or holding) a core: give it back
            self.cpu[node_name].cancel(grant)
            raise
        queue_s = bt.att.charge("wait_s")
        try:
            yield self.engine.timeout(
                self._paper_blocks(missed_logical) * self.zfs_costs.per_block_cpu_s
                + logical / DECOMPRESS_BYTES_PER_S
            )
            bt.att.charge("cache_s")
        finally:
            self.cpu[node_name].release()
        zio.end(queue_s=queue_s)

    def _cold_fetch(self, node_name: str, moved: int, plan, handle, bt):
        """Cache miss: the boot set streams from the bricks through the
        node's NIC, then lands on the local disk (copy-on-read)."""
        gluster = self.squirrel.cluster.storage.gluster
        total = int(self.scale_up(moved))
        self._m_cold_bytes.labels(node=self._node_label(node_name)).inc(total)
        fetch = bt.child(
            "gluster.fetch", n_bytes=total, degraded=gluster.degraded
        )
        flows: list[tuple[Pipe, Event]] = []
        try:
            for node, n_bytes in plan:
                pipe = self.brick[node.name]
                n_scaled = int(self.scale_up(n_bytes))
                span = bt.child(
                    "gluster.transfer", parent=fetch, replica=node.name,
                    n_bytes=n_scaled, degraded=gluster.degraded,
                )
                event = pipe.transfer(n_scaled)
                event._wait(lambda _e, s=span: s.end())
                flows.append((pipe, event))
                handle.bricks.add(node.name)
            nic = self.nic[node_name]
            nic_span = bt.child("nic.transfer", parent=fetch, n_bytes=total)
            nic_event = nic.transfer(total)
            nic_event._wait(lambda _e, s=nic_span: s.end())
            flows.append((nic, nic_event))
            yield self.engine.all_of([event for _pipe, event in flows])
            bt.att.charge("net_s")
            fetch.end()
            disk_span = bt.child("disk.write", n_bytes=total)
            service = yield self.disk[node_name].write(
                _disk_offset(total, node_name), total
            )
            bt.att.charge_split(service, "disk_s")
            disk_span.end(
                service_s=service,
                queue_s=max(
                    0.0, self.engine.now - disk_span.start_s - service
                ),
            )
        except Interrupted:
            # the fetch died with the node/brick: withdraw the half-done
            # flows so surviving transfers get their bandwidth share back
            for pipe, event in flows:
                pipe.cancel(event)
            raise
        finally:
            handle.bricks.clear()

    def _peer_fetch(self, outcome, node_name: str, handle, bt):
        """Placement redirect: the cache slice streams from the holder's NIC
        into the reader's NIC, then lands on the local disk — the glusterfs
        bricks never see the read. A crash of the holder preempts the flow
        (via :meth:`inflight_from_peer`); the retry re-picks a survivor."""
        peer_name = outcome.peer
        total = int(self.scale_up(outcome.network_bytes))
        self.timeline.count("peer_redirects")
        self.timeline.count("redirect_bytes", outcome.network_bytes)
        self._m_redirects.labels(node=self._node_label(node_name)).inc()
        self._m_redirect_bytes.inc(total)
        redirect = bt.child(
            "placement.redirect", peer=peer_name, n_bytes=total
        )
        flows: list[tuple[Pipe, Event]] = []
        try:
            peer_pipe = self.nic[peer_name]
            peer_span = bt.child(
                "nic.transfer", parent=redirect, n_bytes=total, role="peer"
            )
            peer_event = peer_pipe.transfer(total)
            peer_event._wait(lambda _e, s=peer_span: s.end())
            flows.append((peer_pipe, peer_event))
            handle.peers.add(peer_name)
            nic = self.nic[node_name]
            nic_span = bt.child(
                "nic.transfer", parent=redirect, n_bytes=total, role="reader"
            )
            nic_event = nic.transfer(total)
            nic_event._wait(lambda _e, s=nic_span: s.end())
            flows.append((nic, nic_event))
            yield self.engine.all_of([event for _pipe, event in flows])
            bt.att.charge("net_s")
            redirect.end()
            disk_span = bt.child("disk.write", n_bytes=total)
            service = yield self.disk[node_name].write(
                _disk_offset(total, node_name), total
            )
            bt.att.charge_split(service, "disk_s")
            disk_span.end(
                service_s=service,
                queue_s=max(
                    0.0, self.engine.now - disk_span.start_s - service
                ),
            )
            if outcome.adopted:
                adopt = bt.child(
                    "placement.adopt", image_id=outcome.image_id,
                    n_bytes=total,
                )
                self.timeline.count("adoptions")
                self._m_adoptions.labels(node=self._node_label(node_name)).inc()
                self._m_adopted_bytes.inc(total)
                adopt.end()
        except Interrupted:
            # the redirect died with the reader or its peer: withdraw the
            # half-done flows; the retry consults the directory again
            for pipe, event in flows:
                pipe.cancel(event)
            raise
        finally:
            handle.peers.clear()

    def register(self, spec):
        """One timed registration; observes ``register_latency_s``."""
        return self.engine.process(
            self._register(spec), label=f"register:{spec.image_id}"
        )

    def _register(self, spec):
        engine = self.engine
        t0 = engine.now
        span = self.tracer.span(
            "register", track="control", image_id=spec.image_id
        )
        # boot-once on a storage node + snapshot, then the accounting call
        yield engine.timeout(REGISTRATION_BOOT_SECONDS + SNAPSHOT_CREATE_SECONDS)
        self._sync_clock()
        cvolume = self.squirrel.cvolume
        shard = cvolume.chain_of(spec.image_id).name
        ev0 = cvolume.scvol.evictions(shard)
        record = self.squirrel.register(spec)
        evicted = cvolume.scvol.evictions(shard) - ev0
        if evicted:
            self.timeline.count("shard_quota_evictions", evicted)
        placement = self.squirrel.placement
        if placement is not None and placement.last_seed is not None:
            yield from self._seed_flows(spec, placement, span)
        else:
            # multicast: the diff crosses the primary's uplink once and
            # lands on every online node's NIC concurrently
            diff = int(self.scale_up(record.diff_bytes))
            primary = self.squirrel.cluster.storage.primary.name
            transfers = [self.brick[primary].transfer(diff)]
            transfers += [
                self.nic[node.name].transfer(diff)
                for node in self.squirrel.cluster.online_nodes()
            ]
            yield engine.all_of(transfers)
        span.end(diff_bytes=int(self.scale_up(record.diff_bytes)))
        self.timeline.count("registrations")
        self.timeline.observe("register_latency_s", engine.now - t0)
        self._m_registrations.inc()
        self._m_register_latency.observe(engine.now - t0)
        return record

    def _seed_flows(self, spec, placement, parent_span):
        """Drive one seeding round through the contended links.

        The accounting call (:meth:`PlacementCoordinator.seed_image`) already
        ran inside ``Squirrel.register``; this charges its bytes to the
        pipes, shaped like the transport: the origin's brick uplink carries
        the transport's origin bytes (n copies for unicast, ~1 for
        multicast, ~log n for swarm), every online holder's NIC ingests one
        payload, and swarm holders additionally upload their peer share.
        """
        seed = placement.last_seed
        cluster = self.squirrel.cluster
        holders = [
            name
            for name in placement.directory.holders(spec.image_id)
            if cluster.node(name).online
        ]
        payload = int(self.scale_up(seed.n_bytes))
        span = self.tracer.span(
            f"seed.{seed.transport}", parent=parent_span, track="control",
            image_id=spec.image_id, n_receivers=len(holders),
            n_bytes=payload,
        )
        if holders:
            primary = cluster.storage.primary.name
            origin_bytes = int(self.scale_up(seed.origin_bytes))
            transfers = []
            if origin_bytes > 0:
                transfers.append(self.brick[primary].transfer(origin_bytes))
            upload_share = (
                int(self.scale_up(seed.peer_upload_bytes)) // len(holders)
                if seed.peer_upload_bytes > 0
                else 0
            )
            for name in holders:
                transfers.append(self.nic[name].transfer(payload))
                if upload_share > 0:
                    transfers.append(self.nic[name].transfer(upload_share))
            yield self.engine.all_of(transfers)
            self._m_seed_bytes.labels(transport=seed.transport).inc(
                payload * len(holders)
            )
            self.timeline.count("seed_receiver_bytes", seed.receiver_bytes)
        span.end()

    def resync(self, node_name: str):
        """One timed offline-propagation catch-up; observes
        ``resync_latency_s`` and counts full re-replications."""
        return self.engine.process(
            self._resync(node_name), label=f"resync:{node_name}"
        )

    def _resync(self, node_name: str):
        engine = self.engine
        t0 = engine.now
        span = self.tracer.span("resync", track=node_name, node=node_name)
        self._sync_clock()
        incremental = self.squirrel.replays_incrementally(node_name)
        moved = self.squirrel.resync_node(node_name)
        if moved:
            self.timeline.count("resync_bytes", moved)
            if self.squirrel.placement is not None:
                # placement reseed: the directory's assigned slices, not a
                # snapshot-chain replay
                self.timeline.count("placement_reseeds")
                self._m_resyncs.labels(kind="reseed").inc()
            else:
                self.timeline.count(
                    "incremental_resyncs" if incremental else "full_replications"
                )
                self._m_resyncs.labels(
                    kind="incremental" if incremental else "full"
                ).inc()
            self._m_resync_bytes.inc(moved)
            scaled = int(self.scale_up(moved))
            primary = self.squirrel.cluster.storage.primary.name
            yield engine.all_of([
                self.brick[primary].transfer(scaled),
                self.nic[node_name].transfer(scaled),
            ])
        span.end(n_bytes=moved, incremental=incremental if moved else None)
        self.timeline.observe("resync_latency_s", engine.now - t0)
        self._m_resync_latency.observe(engine.now - t0)
        return moved

    def collect_garbage(self):
        """GC is metadata-only: instantaneous, but clock-synced."""
        self._sync_clock()
        span = self.tracer.span("gc", track="control")
        victims = self.squirrel.collect_garbage()
        span.end(victims=len(victims))
        self.timeline.count("gc_runs")
        self.timeline.count("gc_victims", len(victims))
        self._m_gc_runs.inc()
        self._m_gc_victims.inc(len(victims))
        return victims

    def _sync_clock(self) -> None:
        """Propagate the engine clock into Squirrel's day-granular clock."""
        days = self.engine.now / DAY_S
        if days > self.squirrel.clock_days:
            self.squirrel.advance_time(days - self.squirrel.clock_days)


# -- shared rig construction ----------------------------------------------------------


@dataclass
class _Rig:
    """One scenario's fully-wired simulation: cluster, engine, telemetry."""

    catalog: ImageCatalog
    squirrel: Squirrel
    engine: Engine
    timeline: Timeline
    timed: TimedSquirrel
    metrics: MetricsRegistry
    store: TimeSeriesStore
    sampler: Sampler

    @property
    def dataset(self) -> AzureCommunityDataset:
        """Eager-dataset facade over the catalog's (shared) spec list."""
        return self.catalog.dataset

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
    dataset: AzureCommunityDataset | ImageCatalog | None = None,
    estimator=None,
    placement_factory=None,
    sharding_factory=None,
) -> _Rig:
    catalog = as_catalog(dataset) or LazyImageCatalog(DatasetConfig(scale=scale))
    cluster = IaaSCluster.build(
        n_compute=n_compute, n_storage=n_storage, block_size=block_size, link=link
    )
    estimator = estimator or make_estimator(
        "gzip6", (block_size,), samples_per_point=2
    )
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
        faults: str | None = None,
    ) -> "StormConfig":
        """Build a config from the validated experiment params the CLI and
        sweep runner hand to the storm/recovery scenarios (``faults`` is
        the comma-separated plan DSL, parsed here)."""
        return cls(
            n_nodes=nodes,
            vms_per_node=vms_per_node,
            seed=seed,
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


def _storm_trace(config: StormConfig, n_images: int):
    """The (arrival, node, image, tenant) trace — shared by both sides.

    The tenant id rides along so sharded runs can attribute per-tenant
    hit rates; unsharded consumers ignore it (the sampling sequence is
    unchanged, so existing reports stay byte-identical)."""
    n_vms = config.n_nodes * config.vms_per_node
    rng = rng_stream("workload-storm", config.seed)
    times = flash_crowd_arrivals(rng, n_vms=n_vms, ramp_s=config.ramp_s)
    tenants = TenantPopulation(
        config.n_tenants,
        n_images,
        seed=derive_seed("workload-storm-tenants", config.seed),
        zipf_exponent=config.zipf_exponent,
    )
    plan = []
    for index, t in enumerate(times):
        tenant, image_id = tenants.sample(rng)
        node_name = f"compute{index % config.n_nodes}"
        plan.append((float(t), node_name, image_id, int(tenant.tenant_id)))
    return plan


def _placement_factory(config: StormConfig, spec: PlacementSpec, n_images: int):
    """Coordinator factory for a storm: the placement context is derived
    from the same tenant population (same seed) that generates the arrival
    trace, so the hoard map is a pure function of (config, spec)."""

    def factory(squirrel):
        population = TenantPopulation(
            config.n_tenants,
            n_images,
            seed=derive_seed("workload-storm-tenants", config.seed),
            zipf_exponent=config.zipf_exponent,
        )
        context = PlacementContext(
            nodes=tuple(node.name for node in squirrel.cluster.compute),
            popularity=tuple(
                float(p) for p in population.expected_popularity()
            ),
            owners=tuple(int(t) for t in population.image_owners()),
            tenant_weights=tuple(
                float(w) for w in population.tenant_weights
            ),
        )
        return build_coordinator(spec, squirrel.cluster, context)

    return factory


def storm_image_count(
    config: StormConfig, dataset: AzureCommunityDataset | ImageCatalog
) -> int:
    """Images the storm registers: the arrival trace's highest image id + 1.

    Both storm sides register the first ``storm_image_count(...)`` specs,
    so analytic per-image accounting (e.g. the placement experiment's
    full-replication reference) must use this count, not the VM count.
    ``dataset`` may be an eager dataset or a catalog (only its length is
    needed, so no streams materialise)."""
    plan = _storm_trace(
        config, min(config.n_nodes * config.vms_per_node, len(dataset))
    )
    return max(image_id for _, _, image_id, _ in plan) + 1


def _run_storm_side(
    config: StormConfig,
    *,
    with_caches: bool,
    catalog: ImageCatalog,
    estimator,
    plan,
    placement: PlacementSpec | None = None,
    placement_sink=None,
    sharding_factory=None,
    sharding_sink=None,
) -> tuple[StormSide, SpanTracer]:
    n_images = max(image_id for _, _, image_id, _ in plan) + 1
    side_name = "squirrel" if with_caches else "baseline"
    with obs_runtime.phase(f"storm.setup.{side_name}"):
        rig = _build_rig(
            n_compute=config.n_nodes,
            n_storage=config.n_storage,
            block_size=config.block_size,
            scale=config.scale,
            link=config.link,
            seed=derive_seed("storm", config.seed, side_name),
            trace=config.trace,
            metrics_interval_s=config.metrics_interval_s,
            dataset=catalog,
            estimator=estimator,
            placement_factory=(
                _placement_factory(config, placement, n_images)
                if with_caches and placement is not None
                else None
            ),
            sharding_factory=(
                sharding_factory if with_caches else None
            ),
        )
        squirrel, engine, timeline, timed = (
            rig.squirrel, rig.engine, rig.timeline, rig.timed,
        )
        gluster = squirrel.cluster.storage.gluster
        if with_caches:
            for spec in catalog.specs[:n_images]:
                squirrel.register(spec)  # setup: instant, before the storm
        else:
            # the baseline never registers: only the base VMIs exist on the FS
            for spec in catalog.specs[:n_images]:
                gluster.create_file(f"vmi-{spec.image_id:05d}", spec.nonzero_bytes)
        squirrel.cluster.ledger.clear()
        if config.faults is not None:
            FaultInjector(timed, config.faults).start()

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
    with obs_runtime.phase(f"storm.run.{side_name}"):
        # the heartbeat's horizon: boots completed over boots planned
        obs_runtime.set_fraction(
            lambda: timeline.counter("boots") / len(plan) if plan else None
        )
        horizon = engine.run()
    timed.tracer.close_open_spans()
    side = StormSide(
        boots=int(timeline.counter("boots")),
        cache_hits=int(timeline.counter("cache_hits")),
        interrupted_boots=int(timeline.counter("boot_interrupts")),
        delayed_boots=int(timeline.counter("boots_delayed")),
        compute_ingress_bytes=squirrel.cluster.compute_ingress_bytes(
            purpose="boot-read"
        ),
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
    if placement_sink is not None and squirrel.placement is not None:
        placement_sink(squirrel.placement)
    if sharding_sink is not None and squirrel.sharding is not None:
        sharding_sink(squirrel.sharding)
    return side, timed.tracer


def boot_storm(
    config: StormConfig = StormConfig(),
    *,
    dataset: AzureCommunityDataset | ImageCatalog | None = None,
    estimator=None,
    trace_path=None,
    placement: PlacementSpec | None = None,
    placement_sink=None,
    sharding_factory=None,
    sharding_sink=None,
) -> StormReport:
    """Run the same flash crowd with Squirrel and without caches.

    ``dataset``/``estimator`` let a caller that already owns them (the
    experiment registry's shared context) avoid rebuilding the full image
    dataset per run; they must match ``config.scale``/``config.block_size``.
    With a ``trace_path``, both sides' spans are exported there as one
    Chrome trace-event JSON file (processes ``squirrel``/``baseline``).

    ``placement`` attaches a partial-hoarding coordinator to the Squirrel
    side (the no-cache baseline is unaffected); ``placement_sink``, if
    given, receives that side's coordinator after the run so callers can
    read its tallies. ``placement=None`` is the paper baseline and is
    byte-identical to pre-placement behaviour.

    ``sharding_factory`` (``squirrel -> ShardRouter``) shards the Squirrel
    side's cVolume; ``sharding_sink`` receives the router after that side
    runs. ``sharding_factory=None`` keeps the run byte-identical to the
    unsharded storm.
    """
    if config.n_nodes < 1 or config.vms_per_node < 1:
        raise ConfigError("storm needs at least one node and one VM")
    # one catalog for both sides: they register the same specs, so the
    # Squirrel side's cache views come out of the shared memo for free
    catalog = as_catalog(dataset) or LazyImageCatalog(
        DatasetConfig(scale=config.scale)
    )
    estimator = estimator or make_estimator(
        "gzip6", (config.block_size,), samples_per_point=2
    )
    n_images = len(catalog)
    plan = _storm_trace(config, min(config.n_nodes * config.vms_per_node, n_images))
    sides = {}
    tracers = {}
    for with_caches in (True, False):
        side, tracer = _run_storm_side(
            config, with_caches=with_caches, catalog=catalog,
            estimator=estimator, plan=plan, placement=placement,
            placement_sink=placement_sink,
            sharding_factory=sharding_factory, sharding_sink=sharding_sink,
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
    rig = _build_rig(
        n_compute=config.n_nodes,
        n_storage=config.n_storage,
        block_size=config.block_size,
        scale=config.scale,
        link=config.link,
        seed=derive_seed("day", config.seed),
        trace=config.trace,
        metrics_interval_s=config.metrics_interval_s,
    )
    dataset, squirrel, engine, timeline, timed = (
        rig.dataset, rig.squirrel, rig.engine, rig.timeline, rig.timed,
    )
    catalogue = config.n_initial_images + config.n_new_registrations
    if catalogue > len(dataset.images):
        raise ConfigError("catalogue larger than the dataset")
    for spec in dataset.images[: config.n_initial_images]:
        squirrel.register(spec)  # overnight backlog: instant setup
    squirrel.cluster.ledger.clear()
    if config.faults is not None:
        FaultInjector(timed, config.faults).start()

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
            timeline.count("fallback_boots")
        yield timed.boot(image_id, node_name)

    for at in boot_times:
        _tenant, image_id = tenants.sample(rng)
        node_name = node_names[int(rng.integers(len(node_names)))]
        engine.process(vm(float(at), node_name, image_id))

    register_times = poisson_arrivals(
        rng, rate_per_s=config.n_new_registrations / DAY_S, horizon_s=DAY_S
    )
    new_specs = dataset.images[config.n_initial_images : catalogue]

    def registration(at, spec):
        yield engine.timeout(at)
        yield timed.register(spec)

    for at, spec in zip(register_times, new_specs):
        engine.process(registration(float(at), spec))

    def nightly_gc():
        yield engine.timeout(DAY_S - 1.0)
        timed.collect_garbage()

    engine.process(nightly_gc())
    with obs_runtime.phase("day.run"):
        # heartbeat horizon: the day ends at DAY_S on the sim clock
        obs_runtime.set_fraction(lambda: min(1.0, engine.now / DAY_S))
        engine.run()
    timed.tracer.close_open_spans()
    if trace_path is not None:
        write_chrome_trace(trace_path, {"day": timed.tracer})
    return DayReport(
        boots=int(timeline.counter("boots")),
        cache_hits=int(timeline.counter("cache_hits")),
        registrations=int(timeline.counter("registrations")),
        compute_ingress_bytes=squirrel.cluster.compute_ingress_bytes(
            purpose="boot-read"
        ),
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
    rig = _build_rig(
        n_compute=config.n_nodes,
        n_storage=config.n_storage,
        block_size=config.block_size,
        scale=config.scale,
        link=config.link,
        seed=derive_seed("churn", config.seed),
        trace=config.trace,
        metrics_interval_s=config.metrics_interval_s,
    )
    dataset, squirrel, engine, timeline, timed = (
        rig.dataset, rig.squirrel, rig.engine, rig.timeline, rig.timed,
    )
    squirrel.gc_window_days = config.gc_window_days
    horizon_s = config.horizon_days * DAY_S
    if config.faults is not None:
        FaultInjector(timed, config.faults).start()
    rng = rng_stream("workload-churn", config.seed)

    register_times = poisson_arrivals(
        rng, rate_per_s=config.registrations_per_day / DAY_S, horizon_s=horizon_s
    )
    specs = dataset.images[: len(register_times)]

    def registration(at, spec):
        yield engine.timeout(at)
        yield timed.register(spec)

    for at, spec in zip(register_times, specs):
        engine.process(registration(float(at), spec))

    def downtime(node: ComputeNode, start, duration):
        yield engine.timeout(start)
        node.online = False
        timeline.count("downtimes")
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
    with obs_runtime.phase("churn.run"):
        # heartbeat horizon: registrations + downtime all land inside it
        obs_runtime.set_fraction(lambda: min(1.0, engine.now / horizon_s))
        engine.run()
    timed.tracer.close_open_spans()
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
