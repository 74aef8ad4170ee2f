"""Sharded boot storm: semantic cVolume shards vs one global dedup domain.

The noisy-neighbor scenario the ``shards`` experiment reports: the same
flash crowd runs twice against the *same* aggregate storage quota and the
same aggregate node RAM —

* **grouped**: the cVolume is split into ``n`` shards (by image similarity
  or by tenant ownership), each with its own dedup table, its own byte
  quota, and its own slice of every node's boot ARC. A tenant whose images
  churn through one shard can only thrash that shard.
* **global**: a single shard adopting the pre-sharding global domain, with
  ``n×`` the per-shard quota and ``n×`` the per-shard ARC slice — identical
  totals, but shared, so a hot tenant's working set evicts everyone's.

Both sides replay the identical arrival trace at the identical engine seed;
the only difference is the partitioning. The *victim* is the tenant whose
ARC hit rate gains the most from isolation — the figure the committed
``slo/shards.toml`` rules gate in CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError
from ..common.report import ReportBase
from ..shard import ShardRouter, build_plan
from ..vmi import catalog_at
from .scenarios import (
    StormConfig,
    StormReport,
    StormSide,
    _run_storm_side,
    boot_storm,
    storm_arrivals,
)

__all__ = ["ShardStormOutcome", "shard_storm"]

MiB = 1 << 20

#: a tenant must have booted at least this often (grouped side) to qualify
#: as the victim — one-boot tenants have degenerate hit rates
VICTIM_MIN_BOOTS = 3
#: the per-tenant counter facts a side's tenant block reads
TENANT_FACTS = ("boots", "cache_hits", "arc_hits", "arc_misses")


@dataclass(frozen=True)
class ShardStormOutcome(ReportBase):
    """Both partitionings of one storm plus the derived victim figures."""

    report: StormReport  #: the grouped run (both storm sides)
    global_side: StormSide  #: the global-domain contrast (Squirrel side only)
    sharding: dict  #: grouped/global router blocks + victim


def _tenant_block(metrics: dict) -> dict[str, dict]:
    """One side's per-tenant counts, read off the ``squirrel_tenant_*``
    counters of its exported ``metrics`` block: every tenant that booted,
    keyed by its ``tNN`` label, with its lifetime ARC hit rate."""
    families = {family["name"]: family for family in metrics["instruments"]}
    counts: dict[str, dict] = {}
    for fact in TENANT_FACTS:
        for sample in families[f"squirrel_tenant_{fact}_total"]["samples"]:
            entry = counts.setdefault(sample["labels"]["tenant"], {})
            entry[fact] = int(sample["value"])
    tenants = {}
    for label, entry in counts.items():
        if entry["boots"] < 1:
            continue
        lookups = entry["arc_hits"] + entry["arc_misses"]
        entry["hit_rate"] = entry["arc_hits"] / lookups if lookups else 0.0
        tenants[label] = entry
    return tenants


def _victim(grouped: dict, global_: dict) -> dict:
    """The tenant isolation helped most: max grouped−global ARC hit-rate
    delta among tenants with enough grouped boots (lowest id on ties)."""
    best_id = None
    best_delta = 0.0
    for tenant_id, entry in grouped.items():
        if entry["boots"] < VICTIM_MIN_BOOTS:
            continue
        other = global_.get(tenant_id)
        delta = entry["hit_rate"] - (other["hit_rate"] if other else 0.0)
        if best_id is None or delta > best_delta:
            best_id = tenant_id
            best_delta = delta
    if best_id is None:
        return {"tenant": None, "grouped_hit_rate": 0.0,
                "global_hit_rate": 0.0, "delta": 0.0}
    other = global_.get(best_id)
    return {
        "tenant": int(best_id[1:]),
        "grouped_hit_rate": grouped[best_id]["hit_rate"],
        "global_hit_rate": other["hit_rate"] if other else 0.0,
        "delta": best_delta,
    }


def shard_storm(
    config: StormConfig = StormConfig(),
    *,
    shards: int,
    grouping: str = "tenant",
    quota_mb: int = 0,
    trace_path=None,
) -> ShardStormOutcome:
    """Run the grouped-vs-global sharding comparison.

    ``quota_mb`` is the **per-shard** cVolume quota in paper-scale MiB (0
    disables eviction); the global contrast side gets ``shards × quota_mb``
    — the same aggregate budget, unpartitioned. The timed rig sizes every
    node's per-shard ARC slice from that quota (or splits the node budget
    evenly when unquota'd), so the global side's single slice is again the
    exact sum. Each side's ``tenants`` block, and so the victim, is read
    off that side's exported tenant counters.
    """
    if shards < 2:
        raise ConfigError("shard_storm needs >= 2 shards (1 is the plain storm)")
    catalog = catalog_at(config.scale)
    arrivals = storm_arrivals(config, catalog)
    specs = catalog.specs[: arrivals.n_registered]
    # tenant-mode plans group what the trace actually boots
    owners = tuple(int(t) for t in arrivals.population.image_owners())
    shard_plan = build_plan(specs, shards, grouping, owners=owners)
    global_plan = build_plan(specs, 1, grouping, owners=owners)
    # the storage datasets hold size-scaled bytes
    quota_scaled = int(quota_mb * MiB * config.scale)
    tenants = tuple(range(config.n_tenants))

    grouped_router = ShardRouter(
        shard_plan, quota_bytes=quota_scaled, tenants=tenants
    )
    report = boot_storm(
        config,
        dataset=catalog,
        trace_path=trace_path,
        attach=grouped_router,
    )
    global_router = ShardRouter(
        global_plan, quota_bytes=quota_scaled * shards, tenants=tenants
    )
    global_side, _tracer = _run_storm_side(
        config,
        with_caches=True,
        catalog=catalog,
        arrivals=arrivals,
        attach=global_router,
    )
    grouped_block = grouped_router.shard_block()
    grouped_block["tenants"] = _tenant_block(report.squirrel.metrics)
    global_block = global_router.shard_block()
    global_block["tenants"] = _tenant_block(global_side.metrics)
    sharding = {
        "shards": shards,
        "grouping": grouping,
        "quota_mb": quota_mb,
        "grouped": grouped_block,
        "global": global_block,
        "victim": _victim(grouped_block["tenants"], global_block["tenants"]),
    }
    return ShardStormOutcome(
        report=report, global_side=global_side, sharding=sharding
    )
