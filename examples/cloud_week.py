#!/usr/bin/env python3
"""A simulated week of a Squirrel-operated IaaS cloud.

Drives every subsystem end-to-end over seven simulated days: daily image
registrations (multicast snapshot diffs), daily boot storms, a node failure
mid-week with catch-up on return, deregistrations, the nightly garbage
collector, and a closing pool scrub proving the storage stayed consistent.

Run:  python examples/cloud_week.py
"""

from repro.common.units import format_bytes
from repro.core import IaaSCluster, Squirrel, run_boot_storm
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator
from repro.zfs import scrub

BLOCK = 65536


def main() -> None:
    dataset = LazyImageCatalog(DatasetConfig(scale=1 / 512))
    cluster = IaaSCluster.build(n_compute=8, n_storage=4, block_size=BLOCK)
    squirrel = Squirrel(
        cluster=cluster,
        estimator=make_estimator("gzip6", (BLOCK,)),
        gc_window_days=3,
    )
    images = iter(dataset.specs)
    failed_node = cluster.node("compute5")

    print(f"{'day':>4} {'event':<34} {'boot traffic':>13} {'scVol disk':>11} "
          f"{'snaps':>6}")
    for day in range(1, 8):
        events = []
        # a few new community images arrive every day
        for _ in range(4):
            record = squirrel.register(next(images))
            events.append(f"+img {record.image_id}")
        # day 3: a node dies; day 5: it returns
        if day == 3:
            failed_node.online = False
            events.append("compute5 DOWN")
        if day == 5:
            moved = squirrel.resync_node("compute5")
            events.append(f"compute5 resync {format_bytes(moved)}")
        # a stale image gets retired mid-week
        if day == 4:
            victim = squirrel.registered_ids()[0]
            squirrel.deregister(victim)
            events.append(f"-img {victim}")
        # the daily boot storm: every node boots 4 VMs from distinct images
        before = cluster.compute_ingress_bytes(purpose="boot-read")
        storm = run_boot_storm(
            squirrel, dataset, n_nodes=8, vms_per_node=4, with_caches=True
        )
        traffic = cluster.compute_ingress_bytes(purpose="boot-read") - before
        # nightly cron
        victims = squirrel.collect_garbage()
        if victims:
            events.append(f"gc -{len(victims)} snaps")
        squirrel.advance_time(1)
        pool = cluster.storage.pool
        print(
            f"{day:>4} {'; '.join(events):<34} {format_bytes(traffic):>13} "
            f"{format_bytes(pool.disk_used_bytes):>11} "
            f"{len(cluster.storage.scvolume.snapshots()):>6}"
        )
        assert storm.boots == 32

    print("\nclosing scrub of every pool...")
    for pool in [cluster.storage.pool] + [n.pool for n in cluster.compute]:
        scrub(pool).raise_if_dirty()
    print("all pools consistent.")
    total = cluster.compute_ingress_bytes(purpose="boot-read")
    print(f"week's total boot traffic into compute nodes: {format_bytes(total)}")


if __name__ == "__main__":
    main()
