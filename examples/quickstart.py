#!/usr/bin/env python3
"""Quickstart: deploy Squirrel on a small cluster and boot VMs for free.

Builds a 8-compute-node IaaS cluster, registers ten community images (the
register workflow of paper Figure 6: boot once on a storage node, store the
cache in the scVolume, snapshot, multicast the diff), then boots VMs and
shows that warm boots move zero network bytes while a node that missed a
registration pays the copy-on-read cost exactly once.

Run:  python examples/quickstart.py
"""

from repro.common.units import format_bytes
from repro.core import IaaSCluster, Squirrel
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator

BLOCK_SIZE = 65536  # the paper's 64 KB sweet spot


def main() -> None:
    # a small dataset: the full 607-image Azure mix, scaled down 1/512
    dataset = LazyImageCatalog(DatasetConfig(scale=1 / 512))
    cluster = IaaSCluster.build(n_compute=8, n_storage=4, block_size=BLOCK_SIZE)
    estimator = make_estimator("gzip6", (BLOCK_SIZE,))
    squirrel = Squirrel(cluster=cluster, estimator=estimator)

    print("== register ten images ==")
    for spec in dataset.specs[:10]:
        record = squirrel.register(spec)
        print(
            f"image {record.image_id:3d} ({spec.release.family} "
            f"{spec.release.name:>6s}): cache {format_bytes(record.cache_bytes)}, "
            f"diff multicast {format_bytes(record.diff_bytes)} "
            f"to {record.receivers} nodes in {record.propagation_seconds * 1e3:.0f} ms"
        )

    scvol_pool = cluster.storage.pool
    print(
        f"\nscVolume after 10 registrations: "
        f"{format_bytes(scvol_pool.disk_used_bytes)} on disk, "
        f"{format_bytes(scvol_pool.memory_used_bytes)} of DDT in memory, "
        f"dedup ratio {scvol_pool.dedup_ratio():.2f}x"
    )

    print("\n== boot storms ==")
    for image_id in (0, 3, 7):
        outcome = squirrel.boot(image_id, "compute2")
        print(
            f"boot image {image_id} on compute2: cache_hit={outcome.cache_hit}, "
            f"network={format_bytes(outcome.network_bytes)}"
        )

    print("\n== a node that missed a registration ==")
    cluster.node("compute5").online = False
    late = dataset.specs[10]
    squirrel.register(late)
    cluster.node("compute5").online = True
    cold = squirrel.boot(late.image_id, "compute5")
    print(
        f"cold boot on compute5: cache_hit={cold.cache_hit}, "
        f"network={format_bytes(cold.network_bytes)}"
    )
    moved = squirrel.resync_node("compute5")
    print(f"resync compute5: received {format_bytes(moved)} snapshot diff")
    warm = squirrel.boot(late.image_id, "compute5")
    print(
        f"boot after resync: cache_hit={warm.cache_hit}, "
        f"network={format_bytes(warm.network_bytes)}"
    )

    total = cluster.compute_ingress_bytes(purpose="boot-read")
    print(f"\ntotal boot-time network traffic into compute nodes: {format_bytes(total)}")


if __name__ == "__main__":
    main()
