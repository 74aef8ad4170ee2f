"""Sharded cVolume storm — semantic shards + quotas vs one global domain.

The ``shards`` experiment runs the flash crowd with the cVolume split into
``shards`` dedup domains (grouped by image similarity or tenant ownership),
each with a per-shard byte quota and its own slice of every node's boot
ARC, and contrasts it against a single global domain holding the *same
aggregate* quota and RAM. The report's ``sharding.victim`` block names the
tenant isolation helped most: its ARC hit rate with shards vs without —
the noisy-neighbor figure ``slo/shards.toml`` gates in CI.

``shards=1`` attaches nothing: the run *is* the plain ``storm`` experiment
and its embedded report is byte-identical at equal (nodes, vms_per_node,
seed) — the regression anchor the tests pin.

Gridable: ``shards × grouping × quota_mb`` (plus ``nodes``,
``vms_per_node``, ``seed`` and ``faults``), e.g.::

    python -m repro sweep shards --grid "shards=1,4 quota_mb=0,256"
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError
from ..common.report import ReportBase
from ..common.units import GiB
from ..faults import FaultPlan
from ..metrics import write_run_exports
from ..shard import GROUPING_MODES
from ..workload import StormConfig, StormReport, boot_storm, shard_storm
from .context import ExperimentContext, default_context
from .params import ParamSpec
from .registry import register
from .storm_timeline import _side_row, fault_param, obs_params

__all__ = [
    "EXPERIMENT_ID",
    "SHARD_METRICS",
    "ShardStormResult",
    "shard_params",
    "run",
    "render",
]

EXPERIMENT_ID = "shards"

#: sweep-summary metrics: the isolation win next to its dedup cost
#: (``sharding.*`` paths are absent at shards=1 and skipped by the sweep)
SHARD_METRICS = (
    "report.squirrel.latency.p95",
    "sharding.victim.grouped_hit_rate",
    "sharding.victim.global_hit_rate",
    "sharding.victim.delta",
    "sharding.grouped.dedup_loss_bytes",
)


def _check_shards(shards: int) -> None:
    if shards < 1:
        raise ConfigError(f"param 'shards': need at least 1, got {shards}")


def _check_quota(quota_mb: int) -> None:
    if quota_mb < 0:
        raise ConfigError(
            f"param 'quota_mb': must be >= 0 (0 = no quota), got {quota_mb}"
        )


def shard_params() -> tuple[ParamSpec, ...]:
    """The shards experiment's declarative parameters."""
    return (
        ParamSpec(
            "shards", int, 4,
            "cVolume shards (dedup domains); 1 = the unsharded paper "
            "baseline, byte-identical to the storm experiment",
            gridable=True, check=_check_shards,
        ),
        ParamSpec(
            "grouping", str, "tenant",
            "how images map to shards: 'similarity' (shared-grain graph "
            "clustering) or 'tenant' (owner modulo shards)",
            gridable=True, choices=GROUPING_MODES,
        ),
        ParamSpec(
            "quota_mb", int, 256,
            "per-shard cVolume quota in paper-scale MiB (oldest hoards are "
            "evicted past it; 0 disables quotas); the global contrast side "
            "always gets shards x quota_mb, i.e. the same aggregate budget",
            gridable=True, check=_check_quota,
        ),
        ParamSpec("nodes", int, 8, "compute nodes", gridable=True),
        ParamSpec("vms_per_node", int, 4, "VMs per node", gridable=True),
        ParamSpec("seed", int, 0, "arrival-trace seed", gridable=True),
        fault_param(),
    ) + obs_params()


@dataclass(frozen=True)
class ShardStormResult(ReportBase):
    """One sharded storm: config, the sharding block, both runs' reports."""

    config: StormConfig
    shards: int
    grouping: str
    quota_mb: int
    sharding: dict  #: grouped/global router blocks + victim (empty at shards=1)
    report: StormReport
    global_side: dict  #: global-domain Squirrel-side summary (empty at shards=1)


@register(
    EXPERIMENT_ID,
    "Sharded cVolume: per-shard DDTs, quotas and tenant isolation",
    params=shard_params(),
    metrics=SHARD_METRICS,
)
def run(
    ctx: ExperimentContext | None = None,
    *,
    shards: int = 4,
    grouping: str = "tenant",
    quota_mb: int = 256,
    nodes: int = 8,
    vms_per_node: int = 4,
    seed: int = 0,
    faults: str | None = None,
    trace: str | None = None,
    metrics: str | None = None,
) -> ShardStormResult:
    """Run the storm under ``shards`` dedup domains.

    ``shards=1`` attaches no router at all, so the embedded ``report`` is
    byte-identical to the ``storm`` experiment's; ``shards>=2`` runs the
    grouped-vs-global comparison (see
    :func:`repro.workload.sharding.shard_storm`).
    """
    config = StormConfig(
        n_nodes=nodes,
        vms_per_node=vms_per_node,
        seed=seed,
        faults=FaultPlan.parse(faults) if faults else None,
    )
    ctx = ctx or default_context()
    catalog = ctx.catalog(config.scale)
    if shards == 1:
        report = boot_storm(config, dataset=catalog, trace_path=trace)
        result = ShardStormResult(
            config=config, shards=shards, grouping=grouping,
            quota_mb=quota_mb, sharding={}, report=report, global_side={},
        )
    else:
        outcome = shard_storm(
            config,
            shards=shards,
            grouping=grouping,
            quota_mb=quota_mb,
            dataset=catalog,
            trace_path=trace,
        )
        result = ShardStormResult(
            config=config, shards=shards, grouping=grouping,
            quota_mb=quota_mb, sharding=outcome.sharding,
            report=outcome.report,
            global_side={
                "boots": outcome.global_side.boots,
                "cache_hits": outcome.global_side.cache_hits,
                "latency_p50": outcome.global_side.latency.p50,
                "latency_p95": outcome.global_side.latency.p95,
            },
        )
    if metrics is not None:
        write_run_exports(metrics, result)
    return result


def render(result: ShardStormResult) -> str:
    """Isolation table: per-shard footprints + the victim tenant's hit
    rates with and without sharding."""
    config, report = result.config, result.report
    scale_up = 1.0 / config.scale
    lines = [
        f"Sharded storm: shards={result.shards} grouping={result.grouping} "
        f"quota={result.quota_mb} MiB/shard, {config.n_nodes} nodes x "
        f"{config.vms_per_node} VMs/node, seed {config.seed}",
        f"{'side':<12} {'boots':>5} {'hits':>5} {'ingress GB':>11} "
        f"{'p50 s':>9} {'p95 s':>9} {'p99 s':>9} {'done s':>9}",
        _side_row("w/ caches", report.squirrel, scale_up),
        _side_row("w/o caches", report.baseline, scale_up),
    ]
    block = result.sharding
    if not block:
        lines.append("shards=1: unsharded baseline (no sharding block)")
        return "\n".join(lines)
    grouped = block["grouped"]
    lines.append("")
    lines.append(
        f"{'shard':<6} {'files':>6} {'refer MB':>9} {'ddt ent':>8} "
        f"{'core KB':>8} {'high KB':>8} {'press':>6} {'evict':>6}"
    )
    for shard, stats in sorted(grouped["scvolume"].items()):
        lines.append(
            f"{shard:<6} {stats['files']:>6} "
            f"{stats['referenced_bytes'] / (1 << 20):>9.2f} "
            f"{stats['ddt_entries']:>8} "
            f"{stats['ddt_core_bytes'] / 1024:>8.1f} "
            f"{stats['ddt_core_high_bytes'] / 1024:>8.1f} "
            f"{stats['quota_pressure']:>6.2f} {stats['evictions']:>6}"
        )
    loss = grouped["dedup_loss_bytes"] * scale_up / GiB
    lines.append(
        f"cross-shard dedup loss {loss:.3f} GB paper-scale "
        f"({grouped['duplicate_entries']} duplicated entries); "
        f"evicted images {grouped['evicted_images']}"
    )
    victim = block["victim"]
    if victim["tenant"] is not None:
        lines.append("")
        lines.append(
            f"victim tenant t{victim['tenant']:02d}: ARC hit rate "
            f"{100 * victim['grouped_hit_rate']:.1f}% sharded vs "
            f"{100 * victim['global_hit_rate']:.1f}% global "
            f"(+{100 * victim['delta']:.1f} pp)"
        )
    return "\n".join(lines)
