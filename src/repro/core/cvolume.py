"""The cVolume as a shard plan: one snapshot chain per dedup shard.

Squirrel replicates the scVolume's snapshot chain to every compute node's
ccVolume by multicast incremental sends (paper Section 3.2) and catches a
returning node up by replaying the diffs it missed (Section 3.5). A
:class:`CVolume` holds that state for any number of dedup shards, so every
cVolume operation is written once, per shard. The paper's single global
volume is the one-shard plan: its shard *is* the ``scvol``/``ccvol``
datasets and the pool's global DDT, nothing new is created.

* :class:`ShardPlan` — the image → shard assignment;
* :class:`ShardChain` — one shard's storage dataset, node dataset name,
  snapshot serial, snapshot ages and per-node sync points. Sync state is
  kept here, off the interned replicas, on purpose: it is per node, while
  pool state is per replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..zfs import Dataset, ShardedPool, ZPool
from .cluster import CCVOLUME, SCVOLUME

__all__ = ["CVolume", "ShardChain", "ShardPlan", "shard_name"]


def shard_name(index: int) -> str:
    """Canonical name of shard ``index`` (``s00``, ``s01``, ...)."""
    return f"s{index:02d}"


@dataclass(frozen=True)
class ShardPlan:
    """An immutable image → shard assignment."""

    mode: str
    names: tuple[str, ...]
    assignment: dict[int, str] = field(default_factory=dict)
    threshold: float = 0.0

    @property
    def n_shards(self) -> int:
        return len(self.names)

    def shard_of(self, image_id: int) -> str:
        shard = self.assignment.get(image_id)
        if shard is None:
            # images outside the planned catalogue slice still need a
            # deterministic home (e.g. late registrations)
            shard = self.names[image_id % len(self.names)]
        return shard

    def members(self, shard: str) -> list[int]:
        return sorted(i for i, s in self.assignment.items() if s == shard)

    def to_dict(self) -> dict:
        groups = {
            shard: len(self.members(shard)) for shard in self.names
        }
        return {
            "mode": self.mode,
            "threshold": self.threshold,
            "shards": list(self.names),
            "images": len(self.assignment),
            "group_sizes": groups,
        }


#: the paper's cVolume: every image in one shard over the global domain
GLOBAL_PLAN = ShardPlan("global", (shard_name(0),))


@dataclass
class ShardChain:
    """One shard's incremental snapshot chain and who has applied it."""

    name: str
    dataset: Dataset  #: the storage-side dataset the chain is cut from
    cc_name: str  #: the node-side dataset replicating it
    domain: str | None  #: node-side dedup domain (``None``: the global DDT)
    serial: int = 0
    #: snapshot name -> the Squirrel day it was taken (GC ages)
    days: dict[str, float] = field(default_factory=dict)
    #: node name -> newest snapshot of this chain the node has applied
    synced: dict[str, str | None] = field(default_factory=dict)

    def next_snapshot(self) -> str:
        self.serial += 1
        return f"v{self.serial:05d}"


class CVolume:
    """Shard plan + storage shards + one :class:`ShardChain` per shard."""

    def __init__(self, plan: ShardPlan, scvol: ShardedPool) -> None:
        self.plan = plan
        self.scvol = scvol
        self.sharded = plan.n_shards > 1
        self.chains: dict[str, ShardChain] = {
            shard: ShardChain(
                shard,
                scvol.dataset(shard),
                f"{CCVOLUME}/{shard}" if self.sharded else CCVOLUME,
                shard if self.sharded else None,
            )
            for shard in plan.names
        }
        #: image id -> shard, for hoards a quota eviction dropped
        self.evicted_images: dict[int, str] = {}

    @classmethod
    def build(
        cls, plan: ShardPlan, pool: ZPool, *, quota_bytes: int = 0
    ) -> "CVolume":
        """The storage side of ``plan`` on the scVolume's pool.

        One shard adopts the existing ``scvol`` dataset and the global DDT;
        more create ``scvol/<shard>`` datasets, each writing through its own
        dedup domain.
        """
        if plan.n_shards == 1:
            scvol = ShardedPool.adopt(
                pool, SCVOLUME, plan.names[0], quota_bytes=quota_bytes
            )
        else:
            template = pool.dataset(SCVOLUME)
            scvol = ShardedPool.create(
                pool,
                SCVOLUME,
                plan.names,
                record_size=template.record_size,
                compression=template.compression,
                quota_bytes=quota_bytes,
            )
        return cls(plan, scvol)

    def chain_of(self, image_id: int) -> ShardChain:
        """The snapshot chain of ``image_id``'s shard."""
        return self.chains[self.plan.shard_of(image_id)]
