"""Figure 18 — cumulative network transfer into compute nodes when starting
VMs at scale (64 compute nodes, 4 storage nodes, glusterfs 2×2).

Series: "w/o caches" with 1, 2, 4 and 8 VMs per node over 1-64 nodes (each
VM boots a different VMI), and "w/ caches" (Squirrel) with 8 VMs per node.

Expected shape: without caches the traffic grows ∝ nodes × VMs (≈180 GB at
64×8); with Squirrel it is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codecs import SizeEstimator
from ..common.units import GiB
from ..core import IaaSCluster, Squirrel, run_boot_storm
from ..net import IB_QDR, GBE_1, LinkProfile
from ..analysis import Series, render_series
from ..common.report import ReportBase
from .context import ExperimentContext, default_context
from .params import ParamSpec
from .registry import register

__all__ = ["Fig18Result", "run", "render", "NODE_COUNTS", "VMS_PER_NODE"]

EXPERIMENT_ID = "fig18"

NODE_COUNTS = (1, 4, 8, 16, 32, 64)
VMS_PER_NODE = (1, 2, 4, 8)
#: the paper shows InfiniBand and notes 1 GbE results are essentially the
#: same (footnote 5) — transfer *sizes* don't depend on the fabric
FABRICS: dict[str, LinkProfile] = {"32GbIB": IB_QDR, "1GbE": GBE_1}


@dataclass(frozen=True)
class Fig18Result(ReportBase):
    """Cumulative compute-node ingress (GB, scaled up) per series."""

    node_counts: tuple[int, ...]
    without_caches: dict[int, tuple[float, ...]]  #: vms/node -> GB per node count
    with_caches: tuple[float, ...]  #: Squirrel, 8 VMs/node
    cache_hit_rate: float


@register(
    EXPERIMENT_ID,
    "Figure 18: network transfer",
    params=(
        ParamSpec(
            "fabric",
            str,
            "32GbIB",
            "interconnect profile",
            gridable=True,
            choices=tuple(FABRICS),
        ),
    ),
    metrics=("cache_hit_rate",),
)
def run(
    ctx: ExperimentContext | None = None, *, fabric: str = "32GbIB"
) -> Fig18Result:
    """Compute this experiment's data points (see module docstring)."""
    ctx = ctx or default_context()
    catalog = ctx.catalog()
    estimator: SizeEstimator = ctx.estimator("gzip6", (65536,))
    cluster = IaaSCluster.build(n_compute=max(NODE_COUNTS), n_storage=4,
                                block_size=65536, link=FABRICS[fabric])
    squirrel = Squirrel(cluster=cluster, estimator=estimator)
    needed = max(NODE_COUNTS) * max(VMS_PER_NODE)
    for spec in catalog.specs[:needed]:
        squirrel.register(spec)

    scale_up = catalog.scaled_up
    without: dict[int, tuple[float, ...]] = {}
    for vms in VMS_PER_NODE:
        points = []
        for nodes in NODE_COUNTS:
            storm = run_boot_storm(
                squirrel, catalog, n_nodes=nodes, vms_per_node=vms,
                with_caches=False,
            )
            points.append(scale_up(storm.compute_ingress_bytes) / GiB)
        without[vms] = tuple(points)

    with_points = []
    hits = boots = 0
    for nodes in NODE_COUNTS:
        storm = run_boot_storm(
            squirrel, catalog, n_nodes=nodes, vms_per_node=max(VMS_PER_NODE),
            with_caches=True,
        )
        with_points.append(scale_up(storm.compute_ingress_bytes) / GiB)
        hits += storm.cache_hits
        boots += storm.boots
    return Fig18Result(
        node_counts=NODE_COUNTS,
        without_caches=without,
        with_caches=tuple(with_points),
        cache_hit_rate=hits / boots if boots else 0.0,
    )


def render(result: Fig18Result) -> str:
    """Render the paper-style table/series for this experiment."""
    series = []
    squirrel_line = Series("w/ caches, vm/node = 8")
    for nodes, value in zip(result.node_counts, result.with_caches):
        squirrel_line.add(nodes, value)
    series.append(squirrel_line)
    for vms in sorted(result.without_caches):
        line = Series(f"w/o caches, vm/node = {vms}")
        for nodes, value in zip(result.node_counts, result.without_caches[vms]):
            line.add(nodes, value)
        series.append(line)
    rendered = render_series(
        "Figure 18: cumulative network transfer of compute nodes (GB, scaled up)",
        series,
        x_label="# nodes",
        y_format="{:.1f}",
    )
    peak = result.without_caches[max(result.without_caches)][-1]
    return rendered + (
        f"\npeak w/o caches (64x8 = 512 VMs): {peak:.0f} GB; "
        f"Squirrel: {max(result.with_caches):.0f} GB "
        f"(cache hit rate {result.cache_hit_rate:.0%})"
    )
