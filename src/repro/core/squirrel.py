"""Squirrel — the fully replicated VMI-cache system (paper Section 3).

Implements the three VMI operations over an :class:`~repro.core.cluster.
IaaSCluster`:

* :meth:`Squirrel.register` — boot the new image once on a storage node to
  create its cache, store it in the scVolume, snapshot, and multicast the
  incremental snapshot diff to every *online* compute node (Figure 6).
* :meth:`Squirrel.boot` — chain CoW → ccVolume cache → base VMI (Figure 7).
  With a warm replicated cache the boot moves **zero** network bytes; a
  missing cache falls back to copy-on-read over the parallel FS.
* :meth:`Squirrel.deregister` — delete the VMI and its cache; no snapshot is
  taken (Section 3.4) — the deletion propagates with the next registration.

Plus the two background mechanisms:

* :meth:`Squirrel.collect_garbage` — keep the snapshots of the last ``n``
  days and the newest one, destroy the rest (the daily cron job).
* :meth:`Squirrel.resync_node` — offline propagation (Section 3.5): a node
  returning from downtime requests the diff from its last synced snapshot;
  if that snapshot was already garbage-collected, the whole scVolume is
  re-replicated.

Every operation runs per shard of the :class:`~repro.core.cvolume.CVolume`.
The paper's single global cVolume is the one-shard plan; a
:class:`~repro.shard.ShardRouter` re-plans it into several dedup domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codecs import SizeEstimator
from ..common.errors import ConfigError, RegistrationError
from ..common.units import QCOW2_CLUSTER_SIZE, align_up
from ..vmi.image import ImageSpec, cache_stream
from ..vmi.streams import block_view
from ..zfs import SendStream, generate_send, receive
from ..net import multicast
from .cluster import ComputeNode, IaaSCluster
from .cvolume import GLOBAL_PLAN, CVolume, ShardChain, ShardPlan
from .replica import apply_to_nodes

__all__ = [
    "Squirrel",
    "BootOutcome",
    "RegistrationRecord",
    "cache_file_name",
    "cold_read",
    "cold_read_bytes",
    "vmi_file_name",
]


#: Network read amplification of a cold (no-cache) boot: the boot working
#: set is scattered across the image, and every miss is fetched at QCOW2
#: cluster granularity (64 KB) from a parallel FS that serves whole 128 KB
#: stripe units — so the bytes on the wire are a small multiple of the
#: working set itself. Calibrated against Figure 18's ~180 GB for 512 VMs
#: (~130 MB working sets); Squirrel avoids all of it, whatever the factor.
BOOT_READ_AMPLIFICATION = 2.5

#: time to boot the new image once on a storage node during registration
#: (Section 3.2: "no longer than a normal VM boot", and the dataset's VMs
#: "boot in less than 20 seconds" on average)
REGISTRATION_BOOT_SECONDS = 20.0
#: creating a read-only ZFS snapshot is effectively instantaneous
SNAPSHOT_CREATE_SECONDS = 0.2


def cold_read_bytes(spec: ImageSpec) -> int:
    """Bytes a no-cache boot pulls over the network (Figure 18's unit)."""
    to_read = align_up(
        int(min(spec.cache_bytes, spec.nonzero_bytes) * BOOT_READ_AMPLIFICATION),
        QCOW2_CLUSTER_SIZE,
    )
    return min(to_read, spec.nonzero_bytes)


def vmi_file_name(image_id: int) -> str:
    """The base VMI's file on the parallel FS."""
    return f"vmi-{image_id:05d}"


def cache_file_name(image_id: int) -> str:
    """The image's cache file on the scVolume and every ccVolume."""
    return f"cache-{image_id:05d}"


def cold_read(gluster, spec: ImageSpec, reader: str):
    """A no-cache boot's read of its boot set off the parallel FS: returns
    the bytes moved and the per-brick service plan."""
    return gluster.read_with_plan(
        vmi_file_name(spec.image_id), 0, cold_read_bytes(spec),
        reader=reader, purpose="boot-read",
    )


@dataclass(frozen=True)
class RegistrationRecord:
    """Outcome of one register operation."""

    image_id: int
    snapshot: str
    diff_bytes: int  #: incremental stream size multicast to compute nodes
    cache_bytes: int
    registered_day: float
    propagation_seconds: float
    receivers: int


@dataclass(frozen=True)
class BootOutcome:
    """Outcome of one VM boot."""

    image_id: int
    node: str
    cache_hit: bool
    network_bytes: int  #: bytes this boot moved into the compute node
    #: where the bytes came from: "cache" (local hit), "peer" (placement
    #: redirect to a holder node), or "origin" (glusterfs cold read)
    source: str = "origin"
    peer: str | None = None  #: holder node that served a peer redirect
    adopted: bool = False  #: whether the miss promoted this node to holder


@dataclass
class Squirrel:
    """The orchestrator."""

    cluster: IaaSCluster
    estimator: SizeEstimator
    #: offline-propagation window in days (snapshots kept by GC)
    gc_window_days: float = 7.0
    #: logical clock, in days
    clock_days: float = 0.0
    _registered: dict[int, ImageSpec] = field(default_factory=dict)
    registrations: list[RegistrationRecord] = field(default_factory=list)
    #: optional :class:`~repro.placement.PlacementCoordinator`. ``None`` —
    #: the default — is the paper baseline: every cache on every node,
    #: behaviour byte-identical to pre-placement builds.
    placement: object | None = None
    #: optional :class:`~repro.vmi.LazyImageCatalog` sharing memoised cache
    #: block views across consumers (every run of a process that reads the
    #: same catalog). Synthesis is pure, so a memoised view is
    #: bit-identical to one built inline — results never depend on it.
    catalog: object | None = None
    #: optional :class:`~repro.shard.ShardRouter` of a sharded experiment:
    #: the tenant axis of the timed rig's metrics and the ``sharding``
    #: report block. The cVolume operations never consult it — they run on
    #: :attr:`cvolume`.
    sharding: object | None = None
    #: the shard plan, storage shards and per-shard snapshot chains; the
    #: default is the one-shard plan over ``scvol``/``ccvol``
    cvolume: CVolume = field(init=False)

    def __post_init__(self) -> None:
        self.cvolume = CVolume.build(GLOBAL_PLAN, self.cluster.storage.pool)

    # -- time ----------------------------------------------------------------------

    def advance_time(self, days: float) -> None:
        if days < 0:
            raise RegistrationError("time flows forwards")
        self.clock_days += days

    # -- shard plan ------------------------------------------------------------------

    def shard_cvolume(self, plan: ShardPlan, *, quota_bytes: int = 0) -> CVolume:
        """Re-plan the still-empty cVolume into ``plan``'s shards.

        A multi-shard plan creates one ``ccvol/<shard>`` dataset per shard
        on every node pool, each in its own dedup domain; one shard keeps
        the existing ``ccvol`` and global DDT.
        """
        if self._registered:
            raise ConfigError("shard the cVolume before registering images")
        cvolume = CVolume.build(
            plan, self.cluster.storage.pool, quota_bytes=quota_bytes
        )
        chains = list(cvolume.chains.values())

        def init(pool) -> None:
            for chain in chains:
                pool.create_dataset(
                    chain.cc_name,
                    record_size=chain.dataset.record_size,
                    compression=chain.dataset.compression,
                    domain=chain.domain,
                )

        apply_to_nodes(
            self.cluster.replicas, self.cluster.compute,
            ("shardinit",) + plan.names, init,
            when=lambda pool: not pool.has_dataset(chains[0].cc_name),
        )
        self.cvolume = cvolume
        return cvolume

    # -- register (Section 3.2) -------------------------------------------------------

    def _cache_view(self, spec: ImageSpec, record_size: int):
        """The cache stream folded at ``record_size`` — through the shared
        catalog memo when the catalog owns this exact spec, else inline."""
        catalog = self.catalog
        if catalog is not None:
            try:
                known = catalog.spec(spec.image_id) is spec
            except ConfigError:
                known = False  # unknown id: build inline below
            if known:
                return catalog.block_view(spec.image_id, record_size, "caches")
        return block_view(cache_stream(spec), record_size)

    def register(self, spec: ImageSpec, *, uploader: str = "user") -> RegistrationRecord:
        """Register a new VMI: upload, cache creation, snapshot, propagation."""
        if spec.image_id in self._registered:
            raise RegistrationError(f"image {spec.image_id} already registered")
        gluster = self.cluster.storage.gluster
        vmi_name = vmi_file_name(spec.image_id)
        if not gluster.has_file(vmi_name):
            gluster.create_file(vmi_name, spec.nonzero_bytes, writer=uploader)

        # 1. boot once on a storage node: reads the boot working set from the
        # parallel FS (local to the storage tier, but still recorded)
        primary = self.cluster.storage.primary
        gluster.read(
            vmi_name, 0, min(spec.cache_bytes, spec.nonzero_bytes),
            reader=primary.name, purpose="registration-boot",
        )
        # 2. move the cache from memory into its shard of the scVolume; the
        # shard quota is enforced *before* the snapshot, so evictions ride
        # the same diff
        cvolume = self.cvolume
        chain = cvolume.chain_of(spec.image_id)
        scds = chain.dataset
        cache_file = cache_file_name(spec.image_id)
        view = self._cache_view(spec, scds.record_size)
        psizes = view.psizes(self.estimator)
        rows = list(
            zip(
                view.signatures.tolist(),
                view.lsizes.tolist(),
                psizes.tolist(),
                view.is_hole.tolist(),
            )
        )
        scds.write_file_virtual(cache_file, rows)
        cvolume.scvol.note_file(chain.name, cache_file)
        cvolume.evicted_images.pop(spec.image_id, None)
        for name in cvolume.scvol.ensure_quota(chain.name, keep=(cache_file,)):
            cvolume.evicted_images[int(name.split("-")[1])] = chain.name

        # 3. snapshot the shard's chain for this registration
        snap_name = chain.next_snapshot()
        previous = scds.latest_snapshot()
        scds.snapshot(snap_name)
        chain.days[snap_name] = self.clock_days
        cvolume.scvol.refresh(chain.name)

        # 4. distribute the cache to compute nodes
        if self.placement is not None:
            # partial hoarding: the coordinator installs the cache on the
            # image's assigned holders via the configured transport; no
            # fleet-wide snapshot diff is shipped.
            seed = self.placement.seed_image(
                self.cluster, spec, cache_file, rows
            )
            n_bytes, duration_s, receivers = (
                seed.n_bytes, seed.duration_s, seed.n_receivers
            )
        else:
            # paper baseline: incremental diff to all online nodes
            stream = generate_send(
                scds,
                snap_name,
                from_snapshot=previous.name if previous else None,
            )
            result = self._propagate(chain, stream)
            n_bytes, duration_s, receivers = (
                stream.size_bytes, result.duration_s, result.n_receivers
            )
        self._registered[spec.image_id] = spec
        record = RegistrationRecord(
            image_id=spec.image_id,
            snapshot=snap_name,
            diff_bytes=n_bytes,
            cache_bytes=spec.cache_bytes,
            registered_day=self.clock_days,
            propagation_seconds=duration_s,
            receivers=receivers,
        )
        self.registrations.append(record)
        return record

    def _propagate(self, chain: ShardChain, stream: SendStream):
        # a node that is online but stale (came back from downtime without a
        # resync) cannot apply this diff — receiving it would corrupt the
        # replica or fail the incremental precondition. Skip it; it catches
        # up through resync_node's ordered replay.
        ready = [
            node for node in self.cluster.online_nodes()
            if chain.synced.get(node.name) == stream.from_snapshot
        ]
        result = multicast(
            self.cluster.ledger,
            self.cluster.storage.primary,
            [node.node for node in ready],
            stream.size_bytes,
            purpose="cache-propagation",
        )
        # nodes in lockstep share one interned replica: the whole fleet's
        # receive is a single pool mutation, not one per node
        self._receive(ready, chain, stream)
        return result

    def _receive(self, nodes, chain: ShardChain, stream: SendStream) -> None:
        """Apply one send stream to ``nodes``' replicas of ``chain``."""
        cc = chain.cc_name
        apply_to_nodes(
            self.cluster.replicas, nodes,
            ("recv", chain.name, stream.from_snapshot, stream.to_snapshot),
            lambda pool: receive(pool.dataset(cc), stream),
        )
        for node in nodes:
            chain.synced[node.name] = stream.to_snapshot

    # -- boot (Section 3.3) ------------------------------------------------------------

    def boot(self, image_id: int, node_name: str) -> BootOutcome:
        """Boot a VM from ``image_id`` on a compute node.

        Warm replicated cache → zero network bytes. A node whose ccVolume
        lacks the cache (offline during registration and not yet resynced)
        reads the boot working set from the parallel FS, copy-on-read style.
        """
        outcome, _plan = self.boot_with_plan(image_id, node_name)
        return outcome

    def boot_with_plan(self, image_id: int, node_name: str):
        """Boot and also return the per-brick service plan of the cold path
        (empty on a cache hit) — the hook the event engine schedules timed
        transfers from. Accounting is identical to :meth:`boot`.
        """
        spec = self._registered.get(image_id)
        if spec is None:
            raise RegistrationError(f"image {image_id} is not registered")
        node = self.cluster.node(node_name)
        cache_file = cache_file_name(image_id)
        cc = self.cvolume.chain_of(image_id).cc_name
        if (
            node.online
            and node.pool.has_dataset(cc)
            and node.pool.dataset(cc).has_file(cache_file)
        ):
            return (
                BootOutcome(
                    image_id, node_name, cache_hit=True, network_bytes=0,
                    source="cache",
                ),
                [],
            )
        if self.placement is not None:
            # miss on a non-holder: redirect the cold read to the nearest
            # live peer holder instead of the glusterfs origin. Falls back
            # to the origin when every holder is down (survivor failover
            # already tried the others).
            peer = self.placement.pick_peer(self.cluster, image_id, node_name)
            if peer is not None:
                n_bytes = self.placement.payload_bytes(image_id)
                self.placement.record_redirect(
                    self.cluster, peer.name, node_name, n_bytes
                )
                adopted = node.online and self.placement.maybe_adopt(
                    self.cluster, image_id, node
                )
                return (
                    BootOutcome(
                        image_id, node_name, cache_hit=False,
                        network_bytes=n_bytes, source="peer",
                        peer=peer.name, adopted=adopted,
                    ),
                    [],
                )
        # cold path: QCOW2 cluster-granular reads of the boot set over the net
        moved, plan = cold_read(self.cluster.storage.gluster, spec, node_name)
        return (
            BootOutcome(
                image_id, node_name, cache_hit=False, network_bytes=moved,
                source="origin",
            ),
            plan,
        )

    # -- deregister + GC (Section 3.4) --------------------------------------------------

    def deregister(self, image_id: int) -> None:
        """Remove a VMI and its cache; no snapshot is taken (the unlink rides
        the next registration's diff)."""
        if image_id not in self._registered:
            raise RegistrationError(f"image {image_id} is not registered")
        cache_file = cache_file_name(image_id)
        cvolume = self.cvolume
        chain = cvolume.chain_of(image_id)
        # a quota eviction may already have dropped the hoard
        if chain.dataset.has_file(cache_file):
            chain.dataset.delete_file(cache_file)
        cvolume.scvol.forget(chain.name, cache_file)
        cvolume.evicted_images.pop(image_id, None)
        if self.placement is not None:
            self.placement.drop_image(self.cluster, image_id, cache_file)
        del self._registered[image_id]

    def collect_garbage(self) -> list[str]:
        """The daily cron job: destroy snapshots older than the window,
        always keeping the latest snapshot regardless of age. Runs on every
        shard's scVolume chain and every online ccVolume; victims of a
        multi-shard cVolume come back shard-qualified (``s01@v00003``)."""
        cvolume = self.cvolume
        cutoff = self.clock_days - self.gc_window_days
        online = self.cluster.online_nodes()
        collected: list[str] = []
        for chain in cvolume.chains.values():
            snaps = chain.dataset.snapshots()
            victims = [
                snap.name
                for snap in snaps[:-1]  # never the latest
                if chain.days.get(snap.name, 0.0) < cutoff
            ]
            for name in victims:
                chain.dataset.destroy_snapshot(name)
                self._destroy_snapshot(online, chain, name)
                del chain.days[name]
                collected.append(
                    f"{chain.name}@{name}" if cvolume.sharded else name
                )
            cvolume.scvol.refresh(chain.name)
        return collected

    def _destroy_snapshot(self, nodes, chain: ShardChain, name: str) -> None:
        """Drop snapshot ``name`` of ``chain`` from the nodes holding it."""
        cc = chain.cc_name
        apply_to_nodes(
            self.cluster.replicas, nodes,
            ("gcsnap", chain.name, name),
            lambda pool: pool.dataset(cc).destroy_snapshot(name),
            when=lambda pool: pool.has_dataset(cc)
            and pool.dataset(cc).has_snapshot(name),
        )

    # -- offline propagation (Section 3.5) -----------------------------------------------

    def resync_node(self, node_name: str) -> int:
        """Bring a (re-)joining node's ccVolume in sync; returns bytes moved.

        Per shard, in plan order: when the node's last synced snapshot still
        exists on the scVolume, catch-up **replays every missed incremental
        send in snapshot order** — the node ends with the same snapshot
        chain every never-offline node has, so later diffs and GC see no
        difference between them. A single base→latest jump diff would leave
        the intermediate snapshots missing on the replica and its chain
        diverged from the scVolume's. When the base fell out of the GC
        window (or the node is brand new), the shard is replicated from
        scratch.
        """
        node = self.cluster.node(node_name)
        node.online = True
        if self.placement is not None:
            # partial hoarding has no snapshot chain to replay: pull exactly
            # the cache slices the directory assigns this node.
            return self.placement.reseed_node(self.cluster, node)
        return sum(
            self._resync_chain(node, chain)
            for chain in self.cvolume.chains.values()
        )

    def replays_incrementally(self, node_name: str) -> bool:
        """Whether :meth:`resync_node` would catch the node up by replay
        alone: every chain with history still holds the node's sync point."""
        bases = [
            (chain, chain.synced.get(node_name))
            for chain in self.cvolume.chains.values()
            if chain.dataset.latest_snapshot() is not None
        ]
        return bool(bases) and all(
            base is not None and chain.dataset.has_snapshot(base)
            for chain, base in bases
        )

    def _resync_chain(self, node: ComputeNode, chain: ShardChain) -> int:
        scds = chain.dataset
        latest = scds.latest_snapshot()
        if latest is None:
            return 0
        base = chain.synced.get(node.name)
        if base == latest.name:
            return 0
        moved = 0
        if base is not None and scds.has_snapshot(base):
            names = [snap.name for snap in scds.snapshots()]
            start = names.index(base)
            for from_snap, to_snap in zip(names[start:], names[start + 1:]):
                stream = generate_send(scds, to_snap, from_snapshot=from_snap)
                moved += self._ship_to_node(node, chain, stream)
        else:
            # fell out of the window (or brand-new node): full replication
            self._reset_chain(node, chain)
            stream = generate_send(scds, latest.name)
            moved = self._ship_to_node(node, chain, stream)
        # drop node-local snapshots the scVolume no longer has (GC ran while
        # the node was away); frees the space their deadlists pin
        for snap in list(node.pool.dataset(chain.cc_name).snapshots()):
            if not scds.has_snapshot(snap.name):
                self._destroy_snapshot([node], chain, snap.name)
        return moved

    def _ship_to_node(
        self, node: ComputeNode, chain: ShardChain, stream: SendStream
    ) -> int:
        """Unicast one send stream to a node and apply it."""
        self.cluster.ledger.record(
            self.cluster.storage.primary.name,
            node.name,
            stream.size_bytes,
            "offline-propagation",
        )
        # a node replaying a diff its never-offline peers already applied
        # lands on their interned state — the receive repoints, zero work
        self._receive([node], chain, stream)
        return stream.size_bytes

    def _reset_chain(self, node: ComputeNode, chain: ShardChain) -> None:
        """Blow away a node's replica of ``chain`` ahead of full replication."""
        scds = chain.dataset

        def reset(pool) -> None:
            pool.destroy_dataset(chain.cc_name)
            pool.create_dataset(
                chain.cc_name,
                record_size=scds.record_size,
                compression=scds.compression,
                domain=chain.domain,
            )

        apply_to_nodes(self.cluster.replicas, [node], ("reset", chain.name), reset)
        chain.synced[node.name] = None

    # -- introspection -------------------------------------------------------------------

    def registered_ids(self) -> list[int]:
        return sorted(self._registered)

    def is_registered(self, image_id: int) -> bool:
        return image_id in self._registered

    def cache_file_of(self, image_id: int) -> str:
        return cache_file_name(image_id)
