"""Boot-storm drivers: Squirrel vs the no-cache baseline (Figure 18).

The paper's network experiment starts ``vms_per_node`` VMs on each of
``n_nodes`` compute nodes, every VM from a *different* VMI, and measures the
cumulative network transfer into compute nodes:

* **without** caches ("w/o caches"), every boot pulls its boot working set
  from the parallel FS over the network — traffic grows with nodes × VMs;
* **with** Squirrel ("w/ caches"), every cache is already local — zero.

A full-copy baseline (pre-copying whole VMIs, the pre-CoW state of practice)
is included for context.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import NetworkError
from ..vmi.catalog import LazyImageCatalog
from .squirrel import Squirrel, cold_read

__all__ = ["BootStormResult", "run_boot_storm", "full_copy_transfer_bytes"]


@dataclass(frozen=True)
class BootStormResult:
    """Outcome of one boot-storm run."""

    n_nodes: int
    vms_per_node: int
    with_caches: bool
    compute_ingress_bytes: int  #: Figure 18's y-value
    boots: int
    cache_hits: int


def run_boot_storm(
    squirrel: Squirrel,
    dataset: LazyImageCatalog,
    *,
    n_nodes: int,
    vms_per_node: int,
    with_caches: bool,
) -> BootStormResult:
    """Start ``vms_per_node`` VMs on each of the first ``n_nodes`` compute
    nodes, each VM from a different registered VMI (round-robin over the
    dataset), and account the startup traffic.

    ``with_caches=False`` forces the cold path for every boot (the paper's
    "w/o caches" series) by booting images through the parallel FS even when
    a cache exists.
    """
    cluster = squirrel.cluster
    if n_nodes > len(cluster.compute):
        raise NetworkError(
            f"asked for {n_nodes} nodes; cluster has {len(cluster.compute)}"
        )
    registered = squirrel.registered_ids()
    if not registered:
        raise NetworkError("no images registered")
    before = cluster.compute_ingress_bytes(purpose="boot-read")
    boots = 0
    hits = 0
    image_cursor = 0
    for node_index in range(n_nodes):
        node = cluster.compute[node_index]
        for _ in range(vms_per_node):
            image_id = registered[image_cursor % len(registered)]
            image_cursor += 1
            if with_caches:
                outcome = squirrel.boot(image_id, node.name)
                hits += outcome.cache_hit
            else:
                cold_read(cluster.storage.gluster, dataset.specs[image_id], node.name)
            boots += 1
    moved = cluster.compute_ingress_bytes(purpose="boot-read") - before
    return BootStormResult(
        n_nodes=n_nodes,
        vms_per_node=vms_per_node,
        with_caches=with_caches,
        compute_ingress_bytes=moved,
        boots=boots,
        cache_hits=hits,
    )


def full_copy_transfer_bytes(
    dataset: LazyImageCatalog, *, n_nodes: int, vms_per_node: int
) -> int:
    """The pre-CoW baseline: copy each VM's whole (nonzero) image first."""
    total = 0
    cursor = 0
    images = dataset.specs
    for _ in range(n_nodes):
        for _ in range(vms_per_node):
            total += images[cursor % len(images)].nonzero_bytes
            cursor += 1
    return total
