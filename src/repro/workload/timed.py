"""TimedSquirrel: Squirrel operations as timed processes.

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

Fault tolerance: with a :class:`~repro.faults.FaultInjector` attached,
preempted boots cancel their half-done transfers, wait for the crashed host
to rejoin (offline catch-up included), retry, and **always complete**.

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

import weakref
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import attrgetter, itemgetter, methodcaller
from typing import Callable

from ..boot.backends import ZfsCostModel
from ..common.hashing import derive_seed
from ..core import Squirrel
from ..core.squirrel import (
    REGISTRATION_BOOT_SECONDS,
    SNAPSHOT_CREATE_SECONDS,
    cache_file_name,
    cold_read,
)
from ..disk import DAS4_RAID0, DiskModel, TimedDisk
from ..faults import FaultInjector
from ..metrics import MetricsRegistry
from ..obs import BootAttribution, SpanTracer
from ..placement import TRANSPORT_NAMES
from ..sim import Engine, Event, Interrupted, Pipe, Resource, Timeline
from ..vmi import LazyImageCatalog
from ..zfs import AdaptiveReplacementCache, ArcStats
from .arrivals import DAY_S

__all__ = ["INSTRUMENTS", "Instrument", "TimedSquirrel"]

#: decompression throughput of one node core (gzip-6; matches repro.boot)
DECOMPRESS_BYTES_PER_S = 250e6
#: disk span the scattered cache/working-set offsets are drawn over
DISK_SPAN_BYTES = 1 << 40
#: in-memory ARC budget per compute node (matches the cVolume boot backend)
ARC_BYTES_PER_NODE = 256 << 20
#: decompression cores per compute node
CPU_CORES_PER_NODE = 2
#: fixed bucket layout (seconds) shared by every latency histogram family —
#: declared, never data-derived, so expositions diff cleanly across runs
LATENCY_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    120.0, 300.0, 600.0, 1800.0, 3600.0,
)
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
    needs to preempt it (the process) and to target it (the bricks or the
    peer holder its current fetch is streaming from)."""

    __slots__ = ("node_name", "process", "sources")

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self.process = None  #: set right after engine.process() creates it
        self.sources: set[str] = set()


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


def _node_shard_ddt_core(node, domain: str | None) -> float:
    """Resident DDT bytes of one shard's dedup domain on a node's pool
    (``None``: the global DDT), without creating the domain (scrapes must
    never mutate)."""
    pool = node.pool
    ddt = pool.ddt if domain is None else pool.peek_domain_ddt(domain)
    return float(ddt.in_core_bytes) if ddt is not None else 0.0


# -- the instrument table -------------------------------------------------------------

#: gates: a row is declared only when its part of the rig is attached
ALWAYS, PLACEMENT, SHARDING, FAULTS = "always", "placement", "sharding", "faults"
NODE, TENANT, SHARD = ("node",), ("tenant",), ("shard",)
NODE_TIER, NODE_SHARD = ("node", "tier"), ("node", "shard")
#: the labels a record() call can give, in its keyword order
_RECORD_LABELS = ("node", "tenant", "shard", "transport")


def _no_labels(given: tuple) -> tuple:
    return ()


@dataclass(frozen=True)
class Instrument:
    """One row of the timed rig's instrument table.

    A counter or histogram row is one sink of a recorded fact:
    :meth:`TimedSquirrel.record` / :meth:`TimedSquirrel.observe` of
    ``fact`` writes the row's Timeline key (if any) and its metric family's
    child (if any) in one call. A fact fans out to every row naming it (a
    boot counts per node and, on a sharded rig, per tenant). A gauge row
    declares a callback family: ``source(timed, **labels)`` picks each
    child's object once, and every scrape reads ``value(object)`` (or calls
    the object, when ``value`` is None); ``fleet(timed, **labels_but_node)``
    is its "_fleet" aggregate past the node-detail cap.

    Children are pre-created along every label the row does not fix — the
    axis named by the label, or by ``each`` — so the exposition covers the
    fleet at zero from the first scrape. Counter axes end in the "_other"
    fold child past the detail cap; ``lazy`` counters grow children on first
    record instead. Label-less counters and histograms grow their one child
    on first record.
    """

    kind: str  #: "counter", "histogram" or "gauge"
    fact: str | None  #: the record()/observe() key (None for gauges)
    family: str | None  #: metric family (None: a Timeline-only fact)
    help: str = ""
    labels: tuple[str, ...] = ()  #: the family's label schema
    timeline: str | None = None  #: Timeline counter/observation key
    fixed: tuple[tuple[str, str], ...] = ()  #: label values the row pins
    each: tuple[tuple[str, str], ...] = ()  #: label -> axis, if renamed
    gate: str = ALWAYS
    scaled: bool = False  #: the family counts the fact's paper-scale bytes
    lazy: bool = False
    source: Callable | None = None
    value: Callable | None = None
    fleet: Callable | None = None


def _count(fact, family=None, labels=(), help="", *, timeline=True, **kw):
    """A counter row; the Timeline key defaults to the fact's name."""
    timeline = fact if timeline is True else timeline
    return Instrument("counter", fact, family, help, labels, timeline, **kw)


def _observe(fact, family=None, help="", **kw):
    """A latency row: Timeline observations and a LATENCY_BUCKETS family."""
    return Instrument("histogram", fact, family, help, (), fact, **kw)


def _gauge(family, labels, help, **kw):
    return Instrument("gauge", None, family, help, labels, **kw)


def _pool_gauges(family, help, path, fleet_index):
    """Per compute node (read through the node: replica sharing repoints
    ``node.pool`` on copy-on-write splits) plus the storage pool."""
    return (
        _gauge(family, NODE_TIER, help, fixed=(("tier", "compute"),),
               source=lambda t, node, tier: t.squirrel.cluster.node(node),
               value=attrgetter(path),
               fleet=lambda t, tier: t._fleet_totals()[fleet_index]),
        _gauge(family, NODE_TIER, help, fixed=(("tier", "storage"),),
               each=(("node", "pool"),),
               source=lambda t, node, tier: t.squirrel.cluster.storage,
               value=attrgetter(path)),
    )


def _pipe_gauges(family, help, value):
    """Per compute NIC (detail nodes) and per storage brick uplink."""
    return (
        _gauge(family, ("link", "tier"), help, fixed=(("tier", "nic"),),
               each=(("link", "node"),), value=value,
               source=lambda t, link, tier: t.nic[link]),
        _gauge(family, ("link", "tier"), help, fixed=(("tier", "brick"),),
               each=(("link", "storage"),), value=value,
               source=lambda t, link, tier: t.brick[link]),
    )


def _shard_gauge(family, help, read):
    """A storage-side per-shard family: ``read(scvol, shard)``."""
    return _gauge(
        family, SHARD, help, gate=SHARDING,
        source=lambda t, shard: partial(read, t.squirrel.cvolume.scvol, shard),
    )



#: every fact and gauge family the timed rig records — the single
#: declaration point of its Timeline counters and metric families
INSTRUMENTS: tuple[Instrument, ...] = (
    # -- boots ------------------------------------------------------------------------
    _count("boots", "squirrel_boots_total", NODE, "Completed VM boots"),
    _count("boots", "squirrel_tenant_boots_total", TENANT,
           "Completed VM boots per tenant", timeline=None, gate=SHARDING),
    _count("cache_hits", "squirrel_boot_cache_hits_total", NODE,
           "Boots served from the node's cVolume cache"),
    _count("cache_hits", "squirrel_tenant_cache_hits_total", TENANT,
           "Per-tenant boots served from the node's cVolume cache",
           timeline=None, gate=SHARDING),
    _count("cold_boots", "squirrel_boot_cold_total", NODE,
           "Boots that streamed their boot set from storage"),
    _count("cold_read_bytes", "squirrel_cold_read_bytes_total", NODE,
           "Paper-scale bytes cold boots pulled over the network",
           timeline=None, scaled=True),
    _count("boot_interrupts", "squirrel_boot_interrupts_total", NODE,
           "Boot attempts preempted by a fault"),
    _observe("boot_latency_s", "squirrel_boot_latency_seconds",
             "End-to-end boot latency"),
    _observe("recovery_s", "squirrel_recovery_seconds",
             "First fault impact to boot completion"),
    # -- the warm-read ARC lookup: one fact per ArcStats field -------------------------
    _count("arc_hits", "zfs_shard_arc_hits_total", NODE_SHARD,
           "ARC hits within one shard's slice of a node ARC",
           timeline=None, gate=SHARDING),
    _count("arc_hits", "squirrel_tenant_arc_hits_total", TENANT,
           "Per-tenant ARC record hits during warm boots",
           timeline=None, gate=SHARDING),
    _count("arc_misses", "zfs_arc_misses_total", NODE, "ARC misses"),
    _count("arc_misses", "zfs_shard_arc_misses_total", NODE_SHARD,
           "ARC misses within one shard's slice of a node ARC",
           timeline=None, gate=SHARDING),
    _count("arc_misses", "squirrel_tenant_arc_misses_total", TENANT,
           "Per-tenant ARC record misses during warm boots",
           timeline=None, gate=SHARDING),
    *(
        # the Timeline keeps one eviction total; the family splits it by tier
        _count(f"arc_{tier}_{what}", family, NODE_TIER, help,
               timeline="arc_evictions" if what == "evictions" else True,
               fixed=(("tier", tier),))
        for what, family, help, tiers in (
            ("hits", "zfs_arc_hits_total", "ARC hits by tier", ("t1", "t2")),
            ("ghost_hits", "zfs_arc_ghost_hits_total",
             "ARC ghost-list hits by tier", ("b1", "b2")),
            ("evictions", "zfs_arc_evictions_total", "ARC evictions by tier",
             ("t1", "t2")),
        )
        for tier in tiers
    ),
    # -- registration, offline propagation, GC -----------------------------------------
    _count("registrations", "squirrel_registrations_total", (),
           "Image registrations completed"),
    _observe("register_latency_s", "squirrel_register_latency_seconds",
             "Registration latency (boot-once + snapshot + multicast)"),
    _count("resync_bytes", "squirrel_resync_bytes_total", (),
           "Bytes moved by resyncs (scaled units)"),
    *(
        _count(fact, "squirrel_resyncs_total", ("kind",),
               "Offline-propagation catch-ups that moved data",
               fixed=(("kind", kind),), lazy=True, gate=gate)
        for fact, kind, gate in (
            ("incremental_resyncs", "incremental", ALWAYS),
            ("full_replications", "full", ALWAYS),
            # placement reseeds the directory's slices, not a chain replay
            ("placement_reseeds", "reseed", PLACEMENT),
        )
    ),
    _observe("resync_latency_s", "squirrel_resync_latency_seconds",
             "Offline-propagation catch-up latency"),
    _count("gc_runs", "squirrel_gc_runs_total", (), "Garbage-collection sweeps"),
    _count("gc_victims", "squirrel_gc_victims_total", (),
           "Snapshots reclaimed by GC"),
    # Timeline-only facts (the scenarios record the last two)
    *(
        _count(fact)
        for fact in (
            "boots_delayed", "shard_quota_evictions", "fallback_boots", "downtimes",
        )
    ),
    # -- placement ---------------------------------------------------------------------
    _count("peer_redirects", "placement_peer_redirects_total", NODE,
           "Boot misses served by a peer holder instead of the origin",
           gate=PLACEMENT),
    # the Timeline counts scaled bytes; the family paper-scale ones
    _count("redirect_bytes", "placement_redirect_bytes_total", (),
           "Paper-scale bytes moved by peer redirects",
           gate=PLACEMENT, scaled=True),
    _count("origin_fallbacks", "placement_origin_fallbacks_total", (),
           "Misses that fell back to glusterfs (no live holder)", gate=PLACEMENT),
    _count("adoptions", "placement_adoptions_total", NODE,
           "Promote-on-miss adoptions", gate=PLACEMENT),
    _count("adopted_bytes", "placement_adopted_bytes_total", (),
           "Paper-scale bytes installed by adoptions",
           timeline=None, gate=PLACEMENT, scaled=True),
    # paper-scale payload x online holders; the Timeline's receiver bytes
    # count every receiver of the round, in scaled units
    _count("seed_bytes", "placement_seed_bytes_total", ("transport",),
           "Paper-scale receiver-ingress bytes moved by seeding",
           timeline=None, gate=PLACEMENT),
    _count("seed_receiver_bytes", gate=PLACEMENT),
    # -- faults ------------------------------------------------------------------------
    *(
        _count(fact, "faults_injected_total", ("kind",), "Faults fired by kind",
               fixed=(("kind", kind),), gate=FAULTS)
        for fact, kind in (
            ("node_crashes", "crash"), ("link_flaps", "flap"),
            ("brick_failures", "brick"),
        )
    ),
    *(
        _count(fact, gate=FAULTS)
        for fact in (
            "node_rejoins", "link_restores", "brick_restores", "faults_skipped",
        )
    ),
    _observe("node_recovery_s", gate=FAULTS),
    # -- gauges: live simulation state read at scrape time -----------------------------
    _gauge("zfs_arc_p_bytes", NODE, "ARC adaptive target for T1 (paper-scale bytes)",
           source=lambda t, node: t.arc[node], value=attrgetter("p")),
    _gauge("zfs_arc_resident_bytes", NODE,
           "Bytes resident in the node's boot ARC (paper-scale)",
           source=lambda t, node: t.arc[node], value=attrgetter("resident_bytes"),
           fleet=lambda t: t._fleet_totals()[3]),
    _gauge("zfs_arc_hit_rate", NODE, "Lifetime ARC hit rate",
           source=lambda t, node: t.arc[node], value=attrgetter("stats.hit_rate")),
    *_pool_gauges("zfs_ddt_entries", "Dedup-table entries",
                  "pool.ddt.entry_count", 0),
    *_pool_gauges("zfs_ddt_core_bytes", "DDT resident RAM",
                  "pool.ddt.in_core_bytes", 1),
    *_pool_gauges("zfs_pool_allocated_bytes", "Pool data bytes allocated after dedup",
                  "pool.data_bytes", 2),
    *_pipe_gauges("net_pipe_utilization", "Lifetime busy fraction of a link",
                  methodcaller("busy_fraction")),
    *_pipe_gauges("net_pipe_queue_depth", "Concurrent flows sharing a link",
                  attrgetter("active_flows")),
    *_pipe_gauges("net_pipe_moved_bytes",
                  "Lifetime bytes admitted to a link (paper-scale)",
                  attrgetter("total_bytes")),
    _gauge("net_gluster_degraded", (),
           "1 while any brick is out of the read rotation",
           source=lambda t: t.squirrel.cluster.storage.gluster,
           value=attrgetter("degraded")),
    _gauge("net_brick_served_bytes", NODE, "Bytes served by a brick (scaled units)",
           each=(("node", "storage"),),
           source=lambda t, node: partial(
               t.squirrel.cluster.storage.gluster.served_bytes, node)),
    _gauge("sim_cpu_queue_depth", NODE, "Boots queued for a decompression core",
           source=lambda t, node: t.cpu[node], value=attrgetter("queue_length")),
    _gauge("squirrel_boots_in_flight", NODE, "Boots currently in flight",
           source=lambda t, node: t._inflight[node], value=len),
    _gauge("faults_nodes_down", (), "Compute nodes currently crashed", gate=FAULTS,
           source=lambda t: t.faults, value=attrgetter("nodes_down")),
    _gauge("placement_hoarded_bytes", NODE,
           "Logical cache bytes hoarded on a node (scaled units)", gate=PLACEMENT,
           source=lambda t, node: partial(
               t.squirrel.placement.directory.hoarded_bytes, node)),
    _gauge("placement_images_hoarded", NODE, "Images whose cache a node holds",
           gate=PLACEMENT, value=lambda images_of: len(images_of()),
           source=lambda t, node: partial(
               t.squirrel.placement.directory.images_of, node)),
    _gauge("placement_images_tracked", (), "Images tracked by the placement directory",
           gate=PLACEMENT, value=lambda images: len(images()),
           source=lambda t: t.squirrel.placement.directory.images),
    _gauge("squirrel_tenant_hit_rate", TENANT,
           "Lifetime per-tenant ARC hit rate (the noisy-neighbor SLO)",
           gate=SHARDING,
           source=lambda t, tenant: partial(
               t.squirrel.sharding.tenant_hit_rate, t._tenant_ids[tenant])),
    _gauge("zfs_shard_arc_resident_bytes", NODE_SHARD,
           "Bytes resident in one shard's ARC slice (paper-scale)", gate=SHARDING,
           source=lambda t, node, shard: t.shard_arcs[node][shard],
           value=attrgetter("resident_bytes"),
           fleet=lambda t, shard: t._shard_fleet_totals()[shard][0]),
    _gauge("zfs_shard_arc_hit_rate", NODE_SHARD,
           "Lifetime hit rate of one shard's ARC slice", gate=SHARDING,
           source=lambda t, node, shard: t.shard_arcs[node][shard],
           value=attrgetter("stats.hit_rate")),
    _gauge("zfs_shard_node_ddt_core_bytes", NODE_SHARD,
           "Resident DDT bytes of a shard's dedup domain on a node", gate=SHARDING,
           source=lambda t, node, shard: partial(
               _node_shard_ddt_core, t.squirrel.cluster.node(node),
               t.squirrel.cvolume.chains[shard].domain),
           fleet=lambda t, shard: t._shard_fleet_totals()[shard][1]),
    # storage-side per-shard families over the scVolume's domains
    _shard_gauge("zfs_shard_ddt_entries",
                 "scVolume DDT entries in one shard's dedup domain",
                 lambda sp, shard: sp.ddt(shard).entry_count),
    _shard_gauge("zfs_shard_ddt_core_bytes", "scVolume DDT resident RAM per shard",
                 lambda sp, shard: sp.ddt(shard).in_core_bytes),
    # the stored high-water only advances on refresh(); fold in the live
    # value so scrapes between refreshes stay monotone without mutating
    # router state
    _shard_gauge("zfs_shard_ddt_core_high_bytes",
                 "High-water mark of a shard DDT's resident RAM",
                 lambda sp, shard: max(sp.ddt_core_high_bytes(shard),
                                       sp.ddt(shard).in_core_bytes)),
    _shard_gauge("zfs_shard_quota_pressure",
                 "Shard referenced bytes over its byte quota",
                 lambda sp, shard: sp.quota_pressure(shard)),
    # lifetime totals read off the pool (callback gauges, like
    # net_pipe_moved_bytes): evictions happen inside untimed setup
    # registrations too, which recorded counters would miss
    _shard_gauge("zfs_shard_quota_evictions_total",
                 "Lifetime hoards evicted to honour a shard quota",
                 lambda sp, shard: sp.evictions(shard)),
    _shard_gauge("zfs_shard_quota_evicted_bytes_total",
                 "Lifetime bytes reclaimed by shard-quota evictions (scaled units)",
                 lambda sp, shard: sp.evicted_bytes(shard)),
    _gauge("zfs_shard_dedup_loss_bytes", (),
           "Bytes stored once per shard that a global DDT would share",
           gate=SHARDING,
           source=lambda t: t.squirrel.cvolume.scvol.dedup_loss_bytes),
)


class TimedSquirrel:
    """Drives Squirrel operations through the event engine's resources."""

    def __init__(
        self,
        squirrel: Squirrel,
        catalog: LazyImageCatalog,
        engine: Engine,
        timeline: Timeline,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.squirrel = squirrel
        self.catalog = catalog
        self.engine = engine
        self.timeline = timeline
        self.tracer = SpanTracer(engine)
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
                engine, CPU_CORES_PER_NODE, name=f"cpu:{node.name}",
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
        per_shard = per_shard or max(1, ARC_BYTES_PER_NODE // plan.n_shards)
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
        """Set up the instrument table's axes and declare its rows.

        Fleets larger than :data:`METRICS_NODE_DETAIL` export per-node
        series for the first ``METRICS_NODE_DETAIL`` nodes only; the rest
        share a "_other" counter child and a "_fleet" aggregate gauge, so
        the scrape cost is bounded while fleet-wide sums stay exact. The
        tenant axis of a sharded rig is capped the same way (with no gauge
        series past the cap). Placement and sharding rows exist only when
        a coordinator or router is attached, so a rig without them exports
        what it did before either existed; the fault injector declares its
        own gate when it attaches.
        """
        cluster = self.squirrel.cluster
        names = [node.name for node in cluster.compute]
        tenant_ids = [int(t) for t in getattr(self.squirrel.sharding, "tenants", ())]
        #: detail tenant label -> tenant id
        self._tenant_ids = {
            f"t{t:02d}": t for t in tenant_ids[:METRICS_NODE_DETAIL]
        }
        #: axis -> the label values children are pre-created along
        self._axes: dict[str, list[str]] = {
            "node": names[:METRICS_NODE_DETAIL],
            "tenant": list(self._tenant_ids),
            "shard": list(self.squirrel.cvolume.plan.names),
            "transport": list(TRANSPORT_NAMES),
            "pool": [cluster.storage.pool.name],
            "storage": list(self.brick),
        }
        self._node_detail = frozenset(self._axes["node"])
        #: axes past the detail cap: counters fold into an "_other" child
        self._folded = {
            axis
            for axis, n in (("node", len(names)), ("tenant", len(tenant_ids)))
            if n > len(self._axes[axis])
        }
        #: fact -> bound (Timeline key, family, fixed labels, free labels,
        #: scaled, label picker, picked labels -> child) sinks; a fact of a
        #: closed gate has none
        self._sinks: dict[str, list] = {
            row.fact: [] for row in INSTRUMENTS if row.fact is not None
        }
        self._fleet_memo: tuple = (None, None)
        self._shard_fleet_memo: tuple = (None, None)
        self.declare(ALWAYS)
        if self.squirrel.placement is not None:
            self.declare(PLACEMENT)
        if self.squirrel.sharding is not None:
            self.declare(SHARDING)

    def declare(self, gate: str) -> None:
        """Declare every :data:`INSTRUMENTS` row of one gate on the rig's
        registry and bind its sinks (once per gate).

        Callback gauges read live simulation state at scrape time without
        the hot paths pushing updates; scraping never mutates anything, so
        metrics cannot perturb byte accounting.
        """
        m = self.metrics
        # "_fleet" callbacks hold a weak proxy: a strong one would close a
        # cycle (rig -> registry -> callback -> rig) that only the cyclic GC
        # frees, so every rig of a sweep would linger past its point
        rig = weakref.proxy(self)
        for row in INSTRUMENTS:
            if row.gate != gate:
                continue
            family = None
            if row.kind == "histogram" and row.family is not None:
                family = m.histogram(row.family, row.help, buckets=LATENCY_BUCKETS)
            elif row.family is not None:
                family = getattr(m, row.kind)(row.family, row.help, labels=row.labels)
            fixed = dict(row.fixed)
            free = tuple(label for label in row.labels if label not in fixed)
            if row.kind == "gauge":
                for labels in self._children(row, free, fixed):
                    source = row.source(self, **labels)
                    family.labels(**labels).set_function(
                        source if row.value is None
                        else partial(row.value, source)
                    )
                if row.fleet is not None and "node" in self._folded:
                    rest = tuple(label for label in free if label != "node")
                    for labels in self._children(row, rest, fixed):
                        family.labels(node="_fleet", **labels).set_function(
                            partial(row.fleet, rig, **labels)
                        )
                continue
            if row.labels and not row.lazy:
                for labels in self._children(row, free, fixed, fold=True):
                    family.labels(**labels)
            # a sink's children are cached by the record() labels it uses
            index = [_RECORD_LABELS.index(label) for label in free]
            pick = itemgetter(*index) if index else _no_labels
            self._sinks[row.fact].append(
                (row.timeline, family, fixed, free, row.scaled, pick, {})
            )

    def _children(self, row: Instrument, free, fixed, *, fold: bool = False):
        """Label assignments along a row's free labels (plus the "_other"
        fold child of capped axes when ``fold``)."""
        axes = dict(row.each)
        values = []
        for label in free:
            axis = axes.get(label, label)
            fold_child = ["_other"] if fold and axis in self._folded else []
            values.append(self._axes[axis] + fold_child)
        for combo in product(*values):
            yield {**fixed, **dict(zip(free, combo))}

    def record(self, fact: str, n: float = 1, *, node: str | None = None,
               tenant: int | None = None, shard: str | None = None,
               transport: str | None = None) -> None:
        """Record ``n`` of one fact on every sink its table rows bind: the
        Timeline counter and the labelled metric child, with node and
        tenant labels folded past the detail cap. A row needing a label the
        call leaves unset (a boot with no tenant) is skipped; a fact of a
        gate that is not attached records nothing."""
        given = (node, tenant, shard, transport)
        for key, family, fixed, free, scaled, pick, children in self._sinks[fact]:
            if key is not None:
                self.timeline.count(key, n)
            if family is None:
                continue
            labels = pick(given)
            child = children.get(labels)
            if child is None:
                child = children[labels] = self._child(family, fixed, free, given)
            if child is not False:
                child.inc(int(self.scale_up(n)) if scaled else n)

    def _child(self, family, fixed: dict, free: tuple, given: tuple):
        """The metric child a record() call's labels land on, or False when
        the call leaves a label the family needs unset."""
        values = dict(zip(_RECORD_LABELS, given))
        if any(values[label] is None for label in free):
            return False
        return family.labels(
            **fixed, **{label: self._fold(label, values[label]) for label in free}
        )

    def observe(self, fact: str, seconds: float) -> None:
        """Observe one latency fact on its Timeline series and histogram."""
        for key, family, *_ in self._sinks[fact]:
            if key is not None:
                self.timeline.observe(key, seconds)
            if family is not None:
                family.observe(seconds)

    def _fold(self, label: str, value):
        """Metric label value: a node's own name (a tenant's ``tNN``) inside
        the detail set, the shared "_other" child beyond it."""
        if label == "node":
            return value if value in self._node_detail else "_other"
        if label == "tenant":
            value = f"t{value:02d}"
            return value if value in self._tenant_ids else "_other"
        return value

    def _fleet_totals(self) -> tuple[float, float, float, float]:
        """Whole-fleet DDT entries, DDT core bytes, pool data bytes and ARC
        resident bytes: one walk over the fleet per scrape instant serves
        every "_fleet" gauge."""
        at, totals = self._fleet_memo
        if at != self.engine.now:
            entries = core = data = 0.0
            for node in self.squirrel.cluster.compute:
                pool = node.pool
                entries += pool.ddt.entry_count
                core += pool.ddt.in_core_bytes
                data += pool.data_bytes
            resident = float(sum(a.resident_bytes for a in self.arc.values()))
            totals = (entries, core, data, resident)
            self._fleet_memo = (self.engine.now, totals)
        return totals

    def _shard_fleet_totals(self) -> dict[str, tuple[float, float]]:
        """Per shard, the fleet's ARC-slice resident bytes and node DDT core
        bytes: one sweep per scrape instant."""
        at, totals = self._shard_fleet_memo
        if at != self.engine.now:
            nodes = self.squirrel.cluster.compute
            totals = {
                shard: (
                    float(sum(
                        self.shard_arcs[n.name][shard].resident_bytes
                        for n in nodes
                    )),
                    float(sum(
                        _node_shard_ddt_core(n, chain.domain)
                        for n in nodes
                    )),
                )
                for shard, chain in self.squirrel.cvolume.chains.items()
            }
            self._shard_fleet_memo = (self.engine.now, totals)
        return totals

    # -- fault-injector queries ----------------------------------------------------

    def inflight(self, node_name: str) -> list[_InflightBoot]:
        """Boots currently in flight on one compute node (snapshot)."""
        return list(self._inflight.get(node_name, ()))

    def inflight_from(self, source: str) -> list[_InflightBoot]:
        """Boots with a fetch currently streaming from one brick or peer
        holder (snapshot) — what a failure of that source must preempt.
        Brick and compute-node names never overlap."""
        return [
            boot
            for boots in self._inflight.values()
            for boot in boots
            if source in boot.sources
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
                            self.record("boots_delayed")
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
                    self.record("boot_interrupts", node=node_name)
        finally:
            self._inflight[node_name].pop(handle, None)
        self.record("boots", node=node_name, tenant=tenant)
        self.record(
            "cache_hits" if cache_hit else "cold_boots",
            node=node_name, tenant=tenant,
        )
        self.observe("boot_latency_s", engine.now - t0)
        sharding = self.squirrel.sharding
        if sharding is not None and tenant is not None:
            sharding.note_tenant_boot(tenant, cache_hit)
        bt.att.observe(self.timeline)
        bt.root.end(
            cache_hit=cache_hit, interrupts=interrupts, **bt.att.buckets
        )
        if first_fail is not None:
            self.observe("recovery_s", engine.now - first_fail)
        return engine.now - t0

    def _attempt(self, image_id, node_name, force_cold: bool, handle, bt,
                 tenant: int | None = None):
        """One boot attempt (the pre-fault boot path, verbatim)."""
        outcome = None
        if force_cold:
            # the "w/o caches" baseline: the boot set crosses the network
            # even when a cache exists (Figure 18's comparison series)
            moved, plan = cold_read(
                self.squirrel.cluster.storage.gluster,
                self.catalog.spec(image_id), node_name,
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
                self.record("origin_fallbacks")
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
        cache = node.pool.dataset(chain.cc_name).file(cache_file_name(image_id))
        arc = self.arc[node_name]
        before = arc.stats.as_dict()
        lookup = bt.child("arc.lookup", image_id=image_id)
        total_logical = 0
        missed_physical = missed_logical = 0
        misses = 0
        for index, bp in enumerate(cache.blocks):
            if bp.is_hole:
                continue
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
        for key, n in delta.items():
            self.record(
                f"arc_{key}", n, node=node_name, shard=chain.name, tenant=tenant
            )
        sharding = self.squirrel.sharding
        if sharding is not None and tenant is not None:
            sharding.note_tenant_arc(tenant, delta["hits"], delta["misses"])
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
        yield from self._disk_io(
            bt, node_name, "read", _disk_offset(physical, image_id), physical
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

    def _disk_io(self, bt, node_name: str, op: str, offset: int, n_bytes: int):
        """One local-disk ``read`` or ``write``, spanned and charged to
        ``disk_s`` (its queueing share to ``wait_s``)."""
        span = bt.child(f"disk.{op}", n_bytes=n_bytes)
        service = yield getattr(self.disk[node_name], op)(offset, n_bytes)
        bt.att.charge_split(service, "disk_s")
        span.end(
            service_s=service,
            queue_s=max(0.0, self.engine.now - span.start_s - service),
        )

    def _cold_fetch(self, node_name: str, moved: int, plan, handle, bt):
        """Cache miss: the boot set streams from the bricks through the
        node's NIC, then lands on the local disk (copy-on-read)."""
        degraded = self.squirrel.cluster.storage.gluster.degraded
        total = int(self.scale_up(moved))
        self.record("cold_read_bytes", moved, node=node_name)
        fetch = bt.child("gluster.fetch", n_bytes=total, degraded=degraded)
        sources = []
        for node, n_bytes in plan:
            n_scaled = int(self.scale_up(n_bytes))
            span = bt.child(
                "gluster.transfer", parent=fetch, replica=node.name,
                n_bytes=n_scaled, degraded=degraded,
            )
            sources.append((node.name, self.brick[node.name], n_scaled, span))
        yield from self._fetch(node_name, total, fetch, sources, handle, bt)

    def _peer_fetch(self, outcome, node_name: str, handle, bt):
        """Placement redirect: the cache slice streams from the holder's NIC
        into the reader's NIC, then lands on the local disk — the glusterfs
        bricks never see the read. A crash of the holder preempts the flow
        (via :meth:`inflight_from`); the retry re-picks a survivor."""
        peer_name = outcome.peer
        total = int(self.scale_up(outcome.network_bytes))
        self.record("peer_redirects", node=node_name)
        self.record("redirect_bytes", outcome.network_bytes)
        redirect = bt.child("placement.redirect", peer=peer_name, n_bytes=total)
        span = bt.child(
            "nic.transfer", parent=redirect, n_bytes=total, role="peer"
        )
        yield from self._fetch(
            node_name, total, redirect,
            [(peer_name, self.nic[peer_name], total, span)], handle, bt,
            role="reader",
        )
        if outcome.adopted:
            adopt = bt.child(
                "placement.adopt", image_id=outcome.image_id, n_bytes=total
            )
            self.record("adoptions", node=node_name)
            self.record("adopted_bytes", outcome.network_bytes)
            adopt.end()

    def _fetch(self, node_name: str, total: int, parent, sources, handle, bt,
               **reader):
        """Copy-on-read over the network: every source pipe streams its
        share while the reader's NIC ingests ``total`` bytes; once all flows
        drain, ``parent`` ends and the bytes land on the local disk.
        ``sources`` holds ``(name, pipe, scaled bytes, span)`` per source;
        ``reader`` tags the reader's NIC span. A fault that kills the reader
        or a source (found via :meth:`inflight_from`) withdraws the half-done
        flows so surviving transfers get their bandwidth share back."""
        flows: list[tuple[Pipe, Event]] = []
        try:
            for name, pipe, n_bytes, span in sources:
                flows.append((pipe, self._flow(pipe, n_bytes, span)))
                handle.sources.add(name)
            nic = self.nic[node_name]
            span = bt.child("nic.transfer", parent=parent, n_bytes=total, **reader)
            flows.append((nic, self._flow(nic, total, span)))
            yield self.engine.all_of([event for _pipe, event in flows])
            bt.att.charge("net_s")
            parent.end()
            yield from self._disk_io(
                bt, node_name, "write", _disk_offset(total, node_name), total
            )
        except Interrupted:
            for pipe, event in flows:
                pipe.cancel(event)
            raise
        finally:
            handle.sources.clear()

    @staticmethod
    def _flow(pipe: Pipe, n_bytes: int, span):
        """Start one transfer on ``pipe``; ``span`` ends when it drains."""
        event = pipe.transfer(n_bytes)
        event._wait(lambda _e: span.end())
        return event

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
            self.record("shard_quota_evictions", evicted)
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
        self.record("registrations")
        self.observe("register_latency_s", engine.now - t0)
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
            self.record(
                "seed_bytes", payload * len(holders), transport=seed.transport
            )
            self.record("seed_receiver_bytes", seed.receiver_bytes)
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
            self.record("resync_bytes", moved)
            if self.squirrel.placement is not None:
                # placement reseed: the directory's assigned slices, not a
                # snapshot-chain replay
                self.record("placement_reseeds")
            else:
                self.record(
                    "incremental_resyncs" if incremental else "full_replications"
                )
            scaled = int(self.scale_up(moved))
            primary = self.squirrel.cluster.storage.primary.name
            yield engine.all_of([
                self.brick[primary].transfer(scaled),
                self.nic[node_name].transfer(scaled),
            ])
        span.end(n_bytes=moved, incremental=incremental if moved else None)
        self.observe("resync_latency_s", engine.now - t0)
        return moved

    def collect_garbage(self):
        """GC is metadata-only: instantaneous, but clock-synced."""
        self._sync_clock()
        span = self.tracer.span("gc", track="control")
        victims = self.squirrel.collect_garbage()
        span.end(victims=len(victims))
        self.record("gc_runs")
        self.record("gc_victims", len(victims))
        return victims

    def _sync_clock(self) -> None:
        """Propagate the engine clock into Squirrel's day-granular clock."""
        days = self.engine.now / DAY_S
        if days > self.squirrel.clock_days:
            self.squirrel.advance_time(days - self.squirrel.clock_days)
