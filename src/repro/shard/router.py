"""ShardRouter — what a sharded experiment adds on top of the cVolume.

Every Squirrel runs its cVolume operations per shard of a
:class:`~repro.core.cvolume.CVolume`; without a router that is the
one-shard plan over the global dedup domain. Attached as
``squirrel.sharding`` and installed before any registration, the router
re-plans the cVolume into its :class:`~repro.shard.plan.ShardPlan` with a
per-shard byte quota. The cVolume owns the shard datasets, the snapshot
chains and the per-(node, shard) sync points; the router keeps only:

* the plan choice and the per-shard quota (the timed rig sizes each
  node's per-shard ARC slice from that quota),
* the tenant list, the axis the rig pre-creates its tenant-labelled
  metric children along,
* the canonical ``sharding`` report block.

Per-tenant boot and ARC facts live in the rig's ``squirrel_tenant_*``
counters, their one store; the ``shards`` experiment reads its tenant
blocks off them.

A one-shard router keeps the existing scVolume/ccVolume datasets and the
global DDT: only quota enforcement and the tenant axis on top. That is
the "global domain with quota" contrast side of the ``shards`` experiment.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from .plan import ShardPlan

__all__ = ["ShardRouter"]


class ShardRouter:
    """Plan, quota and tenant axis of a sharded cVolume."""

    def __init__(
        self,
        plan: ShardPlan,
        *,
        quota_bytes: int = 0,
        tenants: tuple[int, ...] = (),
    ) -> None:
        self.plan = plan
        self.quota_bytes = int(quota_bytes)
        #: known tenant ids (lets the rig pre-create per-tenant metric
        #: children so expositions cover every tenant from the first scrape)
        self.tenants = tuple(int(t) for t in tenants)
        #: the re-planned cVolume, set by :meth:`install`
        self.cvolume = None

    def install(self, squirrel) -> None:
        """Attach to ``squirrel`` as its ``sharding`` and re-plan its
        cVolume into this router's shards.

        Must run before any registration; see
        :meth:`~repro.core.Squirrel.shard_cvolume`.
        """
        if self.cvolume is not None:
            raise ConfigError("sharding already installed")
        if getattr(squirrel, "placement", None) is not None:
            raise ConfigError(
                "sharding and placement policies cannot be combined"
            )
        self.cvolume = squirrel.shard_cvolume(
            self.plan, quota_bytes=self.quota_bytes
        )
        squirrel.sharding = self

    # -- reporting ------------------------------------------------------------

    def shard_block(self) -> dict:
        """The canonical ``sharding`` report block (after :meth:`install`)."""
        scvol = self.cvolume.scvol
        return {
            "plan": self.plan.to_dict(),
            "quota_bytes": self.quota_bytes,
            "evicted_images": len(self.cvolume.evicted_images),
            "scvolume": scvol.shard_stats(),
            "dedup_loss_bytes": scvol.dedup_loss_bytes(),
            "duplicate_entries": scvol.duplicate_entries(),
        }
