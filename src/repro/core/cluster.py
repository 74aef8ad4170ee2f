"""The IaaS cluster Squirrel deploys into.

Mirrors the paper's evaluation setup (Sections 3.1, 4.4): storage nodes run
an off-the-shelf parallel file system (glusterfs, striped 2× / replicated 2×)
holding the base VMIs plus the scVolume; every compute node runs a local
ZFS pool hosting its ccVolume. All byte movement goes through one shared
:class:`~repro.net.TransferLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import NetworkError
from ..common.units import GiB, SQUIRREL_BLOCK_SIZE
from ..net import GBE_1, GlusterVolume, LinkProfile, Node, NodeKind, TransferLedger
from ..zfs import Dataset, ZPool
from .replica import Replica, ReplicaStore

__all__ = [
    "ComputeNode", "StorageTier", "IaaSCluster", "CCVOLUME", "SCVOLUME",
    "compute_name",
]

CCVOLUME = "ccvol"
SCVOLUME = "scvol"


def compute_name(index: int) -> str:
    """The name of the cluster's ``index``-th compute node."""
    return f"compute{index}"


@dataclass
class ComputeNode:
    """One compute node: NIC + (possibly shared) pool with the ccVolume.

    The node's pool lives behind a :class:`~repro.core.replica.Replica` —
    nodes with identical operation histories share one flyweight pool
    (see :mod:`repro.core.replica`). Constructing a node around a raw
    :class:`~repro.zfs.ZPool` still works: it is wrapped in a private
    single-referent replica, which behaves exactly like the historical
    pool-per-node layout.
    """

    node: Node
    replica: Replica
    online: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.replica, ZPool):
            wrapped = Replica(self.replica)
            wrapped.refs = 1
            self.replica = wrapped

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def pool(self) -> ZPool:
        return self.replica.pool

    @property
    def ccvolume(self) -> Dataset:
        return self.replica.pool.dataset(CCVOLUME)


@dataclass
class StorageTier:
    """The storage side: parallel FS + the scVolume's pool."""

    nodes: list[Node]
    gluster: GlusterVolume
    pool: ZPool  #: hosts the scVolume (lives on the storage tier)

    @property
    def scvolume(self) -> Dataset:
        return self.pool.dataset(SCVOLUME)

    @property
    def primary(self) -> Node:
        """First *alive* storage node: registration/propagation source.

        Fails over when the usual primary's brick is down, so registrations
        keep working through a brick failure (paper Section 6: any node can
        serve any cVolume replica)."""
        for node in self.nodes:
            if self.gluster.is_alive(node.name):
                return node
        raise NetworkError("every storage node has failed")


@dataclass
class IaaSCluster:
    """Compute + storage nodes sharing one transfer ledger."""

    compute: list[ComputeNode]
    storage: StorageTier
    ledger: TransferLedger
    #: interning table for the compute nodes' shared ccVolume replicas;
    #: ``None`` on hand-built clusters (every node keeps a private pool)
    replicas: ReplicaStore | None = None
    #: name → node index; once workloads schedule per-node events, node()
    #: is on the hot path and a linear scan would be O(n) per event
    _by_name: dict[str, ComputeNode] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._by_name:
            self._by_name = {node.name: node for node in self.compute}

    @classmethod
    def build(
        cls,
        *,
        n_compute: int = 64,
        n_storage: int = 4,
        block_size: int = SQUIRREL_BLOCK_SIZE,
        compression: str = "gzip6",
        link: LinkProfile = GBE_1,
        stripe_count: int = 2,
        replica_count: int = 2,
        pool_capacity: int = 1024 * GiB,
    ) -> "IaaSCluster":
        """Assemble a cluster in the paper's shape (64 compute + 4 storage)."""
        if n_compute < 1:
            raise NetworkError("need at least one compute node")
        ledger = TransferLedger()
        storage_nodes = [
            Node(f"storage{i}", NodeKind.STORAGE, link) for i in range(n_storage)
        ]
        gluster = GlusterVolume(
            storage_nodes,
            stripe_count=stripe_count,
            replica_count=replica_count,
            ledger=ledger,
        )
        storage_pool = ZPool("scpool", capacity=pool_capacity)
        storage_pool.create_dataset(
            SCVOLUME, record_size=block_size, compression=compression
        )
        # all nodes start with identical (empty) ccVolumes: one shared
        # blank pool, interned — nodes only diverge when their operation
        # histories do (see repro.core.replica)
        blank = ZPool("ccpool", capacity=pool_capacity)
        blank.create_dataset(
            CCVOLUME, record_size=block_size, compression=compression
        )
        replicas = ReplicaStore(blank)
        compute = [
            ComputeNode(
                Node(compute_name(i), NodeKind.COMPUTE, link),
                replicas.acquire_blank(),
            )
            for i in range(n_compute)
        ]
        return cls(
            compute=compute,
            storage=StorageTier(storage_nodes, gluster, storage_pool),
            ledger=ledger,
            replicas=replicas,
        )

    # -- helpers ------------------------------------------------------------------

    def online_nodes(self) -> list[ComputeNode]:
        return [node for node in self.compute if node.online]

    def node(self, name: str) -> ComputeNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise NetworkError(f"no compute node {name!r}") from None

    def compute_ingress_bytes(self, *, purpose: str | None = None) -> int:
        """Figure 18's metric over this cluster's compute nodes."""
        return self.ledger.compute_ingress_bytes(
            [node.node for node in self.compute], purpose=purpose
        )
