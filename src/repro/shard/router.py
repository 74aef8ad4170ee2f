"""ShardRouter — what a sharded experiment adds on top of the cVolume.

Every Squirrel runs its cVolume operations per shard of a
:class:`~repro.core.cvolume.CVolume`; without a router that is the
one-shard plan over the global dedup domain. Attached as
``squirrel.sharding`` and installed before any registration, the router
re-plans the cVolume into its :class:`~repro.shard.plan.ShardPlan` with a
per-shard byte quota. The cVolume owns the shard datasets, the snapshot
chains and the per-(node, shard) sync points; the router keeps only:

* the plan choice, the quota and the per-shard ARC slice,
* per-tenant boot/ARC tallies feeding the per-tenant hit-rate gauges and
  the noisy-neighbor report block,
* the canonical ``sharding`` report block.

A one-shard router keeps the existing scVolume/ccVolume datasets and the
global DDT: only quota enforcement and tenant accounting on top. That is
the "global domain with quota" contrast side of the ``shards`` experiment.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from .plan import ShardPlan

__all__ = ["ShardRouter"]


class ShardRouter:
    """Plan, quota and tenant accounting of a sharded cVolume."""

    def __init__(
        self,
        plan: ShardPlan,
        *,
        quota_bytes: int = 0,
        arc_bytes_per_shard: int | None = None,
        tenants: tuple[int, ...] = (),
    ) -> None:
        self.plan = plan
        self.quota_bytes = int(quota_bytes)
        #: per-shard ARC slice for TimedSquirrel's per-node caches; ``None``
        #: falls back to an even split of the node budget
        self.arc_bytes_per_shard = arc_bytes_per_shard
        #: known tenant ids (lets the rig pre-create per-tenant metric
        #: children so expositions cover every tenant from the first scrape)
        self.tenants = tuple(int(t) for t in tenants)
        #: the re-planned cVolume, set by :meth:`install`
        self.cvolume = None
        self._tenants: dict[int, dict[str, int]] = {}

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

    # -- tenant accounting ----------------------------------------------------

    def _tenant(self, tenant_id: int) -> dict[str, int]:
        entry = self._tenants.get(tenant_id)
        if entry is None:
            entry = self._tenants[tenant_id] = {
                "boots": 0,
                "cache_hits": 0,
                "arc_hits": 0,
                "arc_misses": 0,
            }
        return entry

    def note_tenant_boot(self, tenant_id: int, cache_hit: bool) -> None:
        entry = self._tenant(tenant_id)
        entry["boots"] += 1
        if cache_hit:
            entry["cache_hits"] += 1

    def note_tenant_arc(self, tenant_id: int, hits: int, misses: int) -> None:
        entry = self._tenant(tenant_id)
        entry["arc_hits"] += hits
        entry["arc_misses"] += misses

    def tenant_hit_rate(self, tenant_id: int) -> float:
        entry = self._tenants.get(tenant_id)
        if not entry:
            return 0.0
        lookups = entry["arc_hits"] + entry["arc_misses"]
        return entry["arc_hits"] / lookups if lookups else 0.0

    def tenant_stats(self) -> dict[int, dict]:
        """Per-tenant tallies plus the derived ARC hit rate."""
        out: dict[int, dict] = {}
        for tenant_id in sorted(self._tenants):
            entry = dict(self._tenants[tenant_id])
            entry["hit_rate"] = self.tenant_hit_rate(tenant_id)
            out[tenant_id] = entry
        return out

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
