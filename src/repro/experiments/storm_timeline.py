"""Storm-shaped experiments — the timed Figure 18 and its variants.

Figure 18 accounts *bytes*; these experiments account *time*. A flash
crowd runs twice through the event engine — once with Squirrel's
pre-propagated caches and once against the bare parallel FS — and each
reports what the tenant actually feels: boot-latency percentiles under
contention for the NIC, the glusterfs bricks, the local disk and the
decompression cores. Four registrations share that one driver:

* ``storm`` — the paper's 64-node × 8-VM crowd. Expected shape: Squirrel
  boots in ~1 s off the local cache regardless of the crowd; the no-cache
  baseline queues 512 cold reads behind four storage uplinks and stretches
  into minutes. With ``--faults`` the same storm runs under injected node
  crashes, link flaps and brick failures (see :mod:`repro.faults`); every
  boot still completes and the report grows recovery-time percentiles.
* ``recovery`` — the same ``run`` with :data:`DEFAULT_FAULTS` as its
  declared fault plan: one compute node crashes mid-storm and rejoins
  (offline catch-up included) and another's NIC flaps. The figure of merit
  is *recovery time*, from the moment a boot first feels a fault to the
  moment its VM is up. Pass ``--faults`` to replace the default plan, e.g.
  ``python -m repro recovery --faults "crash:compute1@40+60,brick:storage0@35+20"``.
* ``placement`` — partial hoarding vs the paper's full replication: the
  storm under a :class:`~repro.placement.PlacementSpec` (``policy`` decides
  who hoards what, ``transport`` how seeds move), reporting the tradeoff
  frontier of hoarded bytes vs hit rate vs peer-redirect traffic vs boot
  latency. A partial policy's coordinator is built up front, over the
  trace's population and the config's fleet, and handed to
  :func:`~repro.workload.boot_storm` as its ``attach`` object.
  ``policy=full`` attaches no coordinator, so its embedded report is
  byte-identical to the ``storm`` experiment's at the same seed.
* ``shards`` — the cVolume split into ``shards`` dedup domains (grouped by
  image similarity or tenant ownership), each with a per-shard byte quota
  and its own slice of every node's boot ARC, contrasted against a single
  global domain holding the *same aggregate* quota and RAM. The
  ``sharding.victim`` block names the tenant isolation helped most — the
  noisy-neighbor figure ``slo/shards.toml`` gates in CI. Each side's
  :class:`~repro.shard.ShardRouter` rides the same ``attach`` slot.
  ``shards=1`` attaches nothing and is byte-identical to the ``storm``
  experiment.

The ids keep their own defaults (64×8, 64×8 faulted, 16×4 and 8×4) and
grid axes, e.g.::

    python -m repro sweep placement \\
        --grid "policy=full,top_k,zipf_weighted transport=multicast,swarm"
    python -m repro sweep shards --grid "shards=1,4 quota_mb=0,256"
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..common.errors import ConfigError
from ..common.report import ReportBase
from ..common.units import GiB
from ..core.cluster import compute_name
from ..metrics import exported
from ..placement import (
    POLICY_NAMES,
    TRANSPORT_NAMES,
    PlacementSpec,
    build_coordinator,
)
from ..shard import GROUPING_MODES
from ..workload import (
    StormConfig,
    StormReport,
    StormSide,
    boot_storm,
    placement_context,
    shard_storm,
    storm_arrivals,
)
from ..vmi import catalog_at
from .context import ExperimentContext
from .params import ParamSpec
from .registry import register

__all__ = [
    "DEFAULT_FAULTS",
    "EXPERIMENT_ID",
    "PLACEMENT_ID",
    "PLACEMENT_METRICS",
    "PlacementResult",
    "RECOVERY_ID",
    "SHARDS_ID",
    "SHARD_METRICS",
    "STORM_METRICS",
    "ShardStormResult",
    "StormTimelineResult",
    "fault_param",
    "obs_params",
    "render",
    "render_placement",
    "render_shards",
    "run",
    "run_placement",
    "run_shards",
    "storm_params",
]

EXPERIMENT_ID = "storm"
RECOVERY_ID = "recovery"
PLACEMENT_ID = "placement"
SHARDS_ID = "shards"

#: the recovery scenario's fault plan: one mid-storm crash (down 45 s,
#: then catch-up) plus one link flap
DEFAULT_FAULTS = "crash:compute1@40+45,flap:compute3@20+15"

#: sweep-summary metrics shared by the storm and recovery scenarios
STORM_METRICS = (
    "report.squirrel.latency.p50",
    "report.squirrel.latency.p95",
    "report.baseline.latency.p50",
    "report.baseline.latency.p95",
)

#: sweep-summary metrics: latency next to the hoard/ingress tradeoff
PLACEMENT_METRICS = (
    "report.squirrel.latency.p95",
    "placement.hit_rate",
    "placement.peer_redirects",
    "placement.hoarded_bytes",
    "placement.boot_ingress_bytes",
)

#: sweep-summary metrics: the isolation win next to its dedup cost
#: (``sharding.*`` paths are absent at shards=1 and skipped by the sweep)
SHARD_METRICS = (
    "report.squirrel.latency.p95",
    "sharding.victim.grouped_hit_rate",
    "sharding.victim.global_hit_rate",
    "sharding.victim.delta",
    "sharding.grouped.dedup_loss_bytes",
)

MiB = 1 << 20


# -- parameters -----------------------------------------------------------------------


def _check_fault_plan(text: str) -> None:
    """Parse-check a ``--faults`` plan so a typo fails before anything runs."""
    from ..faults import FaultPlan

    FaultPlan.parse(text)


def obs_params() -> tuple[ParamSpec, ...]:
    """The observability flags every timed scenario takes: ``--trace``
    (Chrome trace-event span export) and ``--metrics`` (Prometheus + JSONL
    + report.json exports into a run directory)."""
    return (
        ParamSpec(
            "trace",
            str,
            None,
            "write a Chrome trace-event JSON file of every boot's spans to "
            "this path (open at https://ui.perfetto.dev)",
        ),
        ParamSpec(
            "metrics",
            str,
            None,
            "write the run's metrics exports (<side>.prom Prometheus text, "
            "<side>.jsonl sampled series, report.json) into this directory; "
            "summarise with 'python -m repro metrics <dir>'",
        ),
    )


def fault_param(default: str | None = None) -> ParamSpec:
    """The ``--faults`` plan parameter shared by every timed scenario."""
    return ParamSpec(
        "faults",
        str,
        default,
        "injected fault plan, comma-separated kind:target@start+duration "
        "specs, e.g. 'crash:compute1@40+45,flap:compute3@20+15' "
        "(kinds: crash, flap, brick)",
        gridable=True,
        check=_check_fault_plan,
    )


def storm_params(
    *,
    nodes: int = 64,
    vms_per_node: int = 8,
    faults: str | None = None,
    head: tuple[ParamSpec, ...] = (),
    tail: tuple[ParamSpec, ...] = (),
) -> tuple[ParamSpec, ...]:
    """A storm-shaped experiment's parameters: its own ``head`` axes, the
    shared cluster/seed axes at its defaults, its own ``tail`` axes, then
    the fault plan and the observability flags."""
    return (
        head
        + (
            ParamSpec("nodes", int, nodes, "compute nodes", gridable=True),
            ParamSpec(
                "vms_per_node", int, vms_per_node, "VMs per node",
                gridable=True,
            ),
            ParamSpec("seed", int, 0, "arrival-trace seed", gridable=True),
        )
        + tail
        + (fault_param(faults),)
        + obs_params()
    )


# -- side tables ----------------------------------------------------------------------


def _two_sides(header: str, row, report: StormReport) -> list[str]:
    """``header``, then ``row(label, side)`` for both sides of the storm."""
    return [
        header,
        row("w/ caches", report.squirrel),
        row("w/o caches", report.baseline),
    ]


def _side_row(label: str, side: StormSide, scale_up: float) -> str:
    stats = side.latency
    ingress = side.compute_ingress_bytes * scale_up / GiB
    return (
        f"{label:<12} {side.boots:>5} {side.cache_hits:>5} {ingress:>11.1f} "
        f"{stats.p50:>9.2f} {stats.p95:>9.2f} {stats.p99:>9.2f} "
        f"{side.horizon_s:>9.1f}"
    )


def _side_table(report: StormReport, scale_up: float) -> list[str]:
    """Boots, hits, paper-scale ingress and latency percentiles per side."""
    return _two_sides(
        f"{'side':<12} {'boots':>5} {'hits':>5} {'ingress GB':>11} "
        f"{'p50 s':>9} {'p95 s':>9} {'p99 s':>9} {'done s':>9}",
        partial(_side_row, scale_up=scale_up),
        report,
    )


def _attribution_row(label: str, side: StormSide) -> str:
    tiers = side.attribution["tiers"]
    fractions = side.attribution["hit_tier_fractions"]
    return (
        f"{label:<12} "
        f"{tiers['cache_s']['mean']:>9.3f} {tiers['net_s']['mean']:>9.3f} "
        f"{tiers['disk_s']['mean']:>9.3f} {tiers['wait_s']['mean']:>9.3f} "
        f"{100 * fractions['t1']:>6.1f} {100 * fractions['t2']:>6.1f} "
        f"{100 * fractions['miss']:>6.1f}"
    )


def _recovery_row(label: str, side: StormSide) -> str:
    return (
        f"{label:<12} {side.interrupted_boots:>11} {side.delayed_boots:>8} "
        f"{side.recovery.p50:>9.2f} {side.recovery.p95:>9.2f} "
        f"{side.recovery.p99:>9.2f} {side.node_recovery.p50:>11.2f}"
    )


# -- storm and recovery ---------------------------------------------------------------


@dataclass(frozen=True)
class StormTimelineResult(ReportBase):
    """One flash crowd, both sides, plus the config that produced it."""

    config: StormConfig
    report: StormReport


@register(
    EXPERIMENT_ID,
    "Timed boot storm: latency percentiles",
    params=storm_params(),
    metrics=STORM_METRICS,
)
def run(
    ctx: ExperimentContext | None = None,
    *,
    nodes: int = 64,
    vms_per_node: int = 8,
    seed: int = 0,
    faults: str | None = None,
    trace: str | None = None,
    metrics: str | None = None,
) -> StormTimelineResult:
    """Run the storm (registered twice: ``storm`` and ``recovery``, which
    only differ in the declared ``faults`` default). ``trace`` exports both
    sides' spans as Chrome trace-event JSON; ``metrics`` writes the
    Prometheus/JSONL/report exports into that directory — export only, the
    instruments run either way."""
    config = StormConfig.from_params(
        nodes=nodes, vms_per_node=vms_per_node, seed=seed, faults=faults
    )
    return exported(
        StormTimelineResult(
            config=config, report=boot_storm(config, trace_path=trace)
        ),
        metrics,
    )


register(
    RECOVERY_ID,
    "Faulted boot storm: recovery-time percentiles",
    params=storm_params(faults=DEFAULT_FAULTS),
    metrics=STORM_METRICS
    + (
        "report.squirrel.recovery.p50",
        "report.baseline.recovery.p50",
    ),
)(run)


def render(result: StormTimelineResult) -> str:
    """Paper-style summary table for the timed storm; a faulted run adds
    the fault plan and the recovery table."""
    config, report = result.config, result.report
    lines = [
        f"Boot-storm timeline: {report.n_nodes} nodes x "
        f"{report.vms_per_node} VMs/node, {config.ramp_s:.0f} s flash crowd, "
        f"{config.n_tenants} tenants (zipf {config.zipf_exponent}), "
        f"seed {report.seed}",
        *_side_table(report, 1.0 / config.scale),
    ]
    speedup = (
        report.baseline.latency.p50 / report.squirrel.latency.p50
        if report.squirrel.latency.p50 > 0
        else float("inf")
    )
    lines.append(
        f"median boot speedup {speedup:,.0f}x; compute ingress with caches: "
        f"{report.squirrel.compute_ingress_bytes} bytes"
    )
    # where the mean boot's seconds went (cache engine / network / disk
    # service / queueing+faults) and how the per-node ARC answered lookups
    lines += [
        "",
        "latency attribution (mean seconds per boot):",
        *_two_sides(
            f"{'side':<12} {'cache s':>9} {'net s':>9} {'disk s':>9} "
            f"{'wait s':>9} {'t1 %':>6} {'t2 %':>6} {'miss %':>6}",
            _attribution_row,
            report,
        ),
    ]
    if config.faults is not None:
        # how long preempted/delayed boots took to come back, and how long
        # a crashed node needed to rejoin resynced
        lines += [
            "",
            f"fault plan: {config.faults.render()}",
            *_two_sides(
                f"{'side':<12} {'interrupted':>11} {'delayed':>8} "
                f"{'rec p50':>9} {'rec p95':>9} {'rec p99':>9} "
                f"{'node p50 s':>11}",
                _recovery_row,
                report,
            ),
        ]
    return "\n".join(lines)


# -- placement ------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementResult(ReportBase):
    """One placement storm: config, placement spec, tallies, full report."""

    config: StormConfig
    spec: dict  #: the PlacementSpec that was requested (plain types)
    placement: dict  #: placement tally block (see _placement_block)
    report: StormReport


def _full_baseline_tallies(catalog, config: StormConfig, n_images: int) -> dict:
    """The coordinator-shaped tally block ``policy=full`` implies.

    Full replication runs without a coordinator (that is what keeps its
    report byte-identical to the storm baseline), so its hoard/seed figures
    are derived analytically: every node holds every cache, seeding ingests
    one cache per node per image, and no boot is ever redirected.
    """
    cache_total = sum(spec.cache_bytes for spec in catalog.specs[:n_images])
    return {
        "adopted_bytes": 0,
        "adoptions": 0,
        "hoarded_bytes": cache_total * config.n_nodes,
        "hoarded_replicas": n_images * config.n_nodes,
        "images_tracked": n_images,
        "origin_fallbacks": 0,
        "peer_redirects": 0,
        "policy": "full",
        "redirect_bytes": 0,
        "reseed_bytes": 0,
        "seed_duration_s": 0.0,
        "seed_origin_bytes": cache_total,
        "seed_peer_upload_bytes": 0,
        "seed_receiver_bytes": cache_total * config.n_nodes,
        "seed_rounds": n_images,
        "transport": "multicast",
    }


def _placement_block(tallies: dict, catalog, config: StormConfig,
                     n_images: int, report: StormReport) -> dict:
    """The report's ``placement`` block: tallies + derived tradeoff axes."""
    cache_total = sum(spec.cache_bytes for spec in catalog.specs[:n_images])
    full_hoarded = cache_total * config.n_nodes
    side = report.squirrel
    block = dict(tallies)
    block["full_hoarded_bytes"] = full_hoarded
    block["hoarded_fraction"] = (
        block["hoarded_bytes"] / full_hoarded if full_hoarded else 0.0
    )
    block["hit_rate"] = side.cache_hits / side.boots if side.boots else 0.0
    block["boot_origin_bytes"] = side.compute_ingress_bytes
    block["boot_ingress_bytes"] = (
        side.compute_ingress_bytes + block["redirect_bytes"]
    )
    return block


def render_placement(result: PlacementResult) -> str:
    """Frontier table: hoarded bytes vs hit rate vs ingress vs latency."""
    config, block, report = result.config, result.placement, result.report
    scale_up = 1.0 / config.scale
    to_gb = scale_up / GiB
    lines = [
        f"Placement storm: policy={block['policy']} "
        f"transport={block['transport']}, {config.n_nodes} nodes x "
        f"{config.vms_per_node} VMs/node, zipf {config.zipf_exponent}, "
        f"seed {config.seed}",
        *_side_table(report, scale_up),
        "",
        f"hit rate {100 * block['hit_rate']:.1f}% | "
        f"peer redirects {block['peer_redirects']} "
        f"({block['redirect_bytes'] * to_gb:.2f} GB) | "
        f"origin fallbacks {block['origin_fallbacks']} | "
        f"adoptions {block['adoptions']}",
        "",
        "hoard/ingress frontier (paper-scale GB):",
        f"{'policy':<14} {'hoarded':>9} {'of full %':>9} {'seeded':>9} "
        f"{'boot net':>9} {'p95 s':>7}",
        f"{block['policy']:<14} {block['hoarded_bytes'] * to_gb:>9.1f} "
        f"{100 * block['hoarded_fraction']:>9.1f} "
        f"{block['seed_receiver_bytes'] * to_gb:>9.1f} "
        f"{block['boot_ingress_bytes'] * to_gb:>9.1f} "
        f"{report.squirrel.latency.p95:>7.2f}",
        f"{'full (ref)':<14} {block['full_hoarded_bytes'] * to_gb:>9.1f} "
        f"{100.0:>9.1f} {block['full_hoarded_bytes'] * to_gb:>9.1f} "
        f"{0.0:>9.1f} {'-':>7}",
    ]
    return "\n".join(lines)


@register(
    PLACEMENT_ID,
    "Partial hoarding: placement policies vs full replication",
    params=storm_params(
        nodes=16,
        vms_per_node=4,
        head=(
            ParamSpec(
                "policy", str, "full",
                "placement policy: full (paper baseline), top_k, "
                "zipf_weighted or tenant_affine",
                gridable=True, choices=POLICY_NAMES,
            ),
            ParamSpec(
                "transport", str, "multicast",
                "seeding transport: unicast, multicast or swarm "
                "(ignored by policy=full, which uses the paper's snapshot "
                "multicast)",
                gridable=True, choices=TRANSPORT_NAMES,
            ),
        ),
        tail=(
            ParamSpec(
                "zipf", float, 0.9,
                "image-popularity Zipf exponent of the tenant workload "
                "(higher = more skew, fewer images carry the traffic)",
                gridable=True,
            ),
            ParamSpec(
                "top_k", int, 8,
                "images hoarded fleet-wide by policy=top_k",
                gridable=True,
            ),
            ParamSpec(
                "replicas", int, 2,
                "replica floor: minimum holders per image under partial "
                "policies",
                gridable=True,
            ),
            ParamSpec(
                "adopt_budget_mb", int, 0,
                "per-node promote-on-miss budget in MiB of (scaled) cache "
                "bytes; 0 disables adoption",
                gridable=True,
            ),
        ),
    ),
    metrics=PLACEMENT_METRICS,
    renderer=render_placement,
)
def run_placement(
    ctx: ExperimentContext | None = None,
    *,
    policy: str = "full",
    transport: str = "multicast",
    nodes: int = 16,
    vms_per_node: int = 4,
    seed: int = 0,
    zipf: float = 0.9,
    top_k: int = 8,
    replicas: int = 2,
    adopt_budget_mb: int = 0,
    faults: str | None = None,
    trace: str | None = None,
    metrics: str | None = None,
) -> PlacementResult:
    """Run the boot storm under one placement policy.

    ``policy=full`` attaches no coordinator — the run *is* the paper
    baseline, and its tallies are the analytic full-replication ones.
    A partial policy's coordinator is built before the storm, over the
    fleet the config names (:func:`~repro.core.cluster.compute_name`),
    and attached to the Squirrel side, whose rig checks that fleet on
    install; its tallies fill the ``placement`` block. ``zipf`` shapes the
    tenant workload's popularity skew (both the arrival trace and the
    declared popularity the policies place by).
    """
    config = StormConfig.from_params(
        nodes=nodes, vms_per_node=vms_per_node, seed=seed, zipf=zipf,
        faults=faults,
    )
    spec = PlacementSpec(
        policy=policy,
        transport=transport,
        top_k=top_k,
        replica_floor=replicas,
        adopt_budget_bytes=adopt_budget_mb * MiB,
    )

    # the storm's own scale: latencies ignore the context's ``--scale``
    catalog = catalog_at(config.scale)
    arrivals = storm_arrivals(config, catalog)
    n_images = arrivals.n_registered
    fleet = tuple(compute_name(i) for i in range(config.n_nodes))
    coordinator = (
        None
        if policy == "full"
        else build_coordinator(spec, placement_context(arrivals, fleet))
    )
    report = boot_storm(config, trace_path=trace, attach=coordinator)
    tallies = (
        coordinator.stats()
        if coordinator is not None
        else _full_baseline_tallies(catalog, config, n_images)
    )
    return exported(
        PlacementResult(
            config=config,
            spec=spec.to_dict(),
            placement=_placement_block(
                tallies, catalog, config, n_images, report
            ),
            report=report,
        ),
        metrics,
    )


# -- shards ---------------------------------------------------------------------------


def _check_shards(shards: int) -> None:
    if shards < 1:
        raise ConfigError(f"param 'shards': need at least 1, got {shards}")


def _check_quota(quota_mb: int) -> None:
    if quota_mb < 0:
        raise ConfigError(
            f"param 'quota_mb': must be >= 0 (0 = no quota), got {quota_mb}"
        )


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


def render_shards(result: ShardStormResult) -> str:
    """Isolation table: per-shard footprints + the victim tenant's hit
    rates with and without sharding."""
    config, report = result.config, result.report
    scale_up = 1.0 / config.scale
    lines = [
        f"Sharded storm: shards={result.shards} grouping={result.grouping} "
        f"quota={result.quota_mb} MiB/shard, {config.n_nodes} nodes x "
        f"{config.vms_per_node} VMs/node, seed {config.seed}",
        *_side_table(report, scale_up),
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


@register(
    SHARDS_ID,
    "Sharded cVolume: per-shard DDTs, quotas and tenant isolation",
    params=storm_params(
        nodes=8,
        vms_per_node=4,
        head=(
            ParamSpec(
                "shards", int, 4,
                "cVolume shards (dedup domains); 1 = the unsharded paper "
                "baseline, byte-identical to the storm experiment",
                gridable=True, check=_check_shards,
            ),
            ParamSpec(
                "grouping", str, "tenant",
                "how images map to shards: 'similarity' (shared-grain "
                "graph clustering) or 'tenant' (owner modulo shards)",
                gridable=True, choices=GROUPING_MODES,
            ),
            ParamSpec(
                "quota_mb", int, 256,
                "per-shard cVolume quota in paper-scale MiB (oldest hoards "
                "are evicted past it; 0 disables quotas); the global "
                "contrast side always gets shards x quota_mb, i.e. the same "
                "aggregate budget",
                gridable=True, check=_check_quota,
            ),
        ),
    ),
    metrics=SHARD_METRICS,
    renderer=render_shards,
)
def run_shards(
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
    config = StormConfig.from_params(
        nodes=nodes, vms_per_node=vms_per_node, seed=seed, faults=faults
    )

    if shards == 1:
        result = ShardStormResult(
            config=config, shards=shards, grouping=grouping,
            quota_mb=quota_mb, sharding={},
            report=boot_storm(config, trace_path=trace),
            global_side={},
        )
    else:
        outcome = shard_storm(
            config,
            shards=shards,
            grouping=grouping,
            quota_mb=quota_mb,
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
    return exported(result, metrics)
