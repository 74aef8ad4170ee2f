#!/usr/bin/env python3
"""Offline propagation and garbage collection over a 30-day timeline.

Walks the scenario of paper Sections 3.4-3.5: registrations arrive daily, a
compute node goes down, garbage collection (the daily cron job) expires old
snapshots, and the node returns — first inside the propagation window (cheap
incremental resync), then after it (full scVolume re-replication, still only
a few GB thanks to dedup + compression).

Run:  python examples/offline_propagation.py
"""

from repro.common.units import format_bytes
from repro.core import IaaSCluster, Squirrel
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator

BLOCK_SIZE = 65536


def main() -> None:
    dataset = LazyImageCatalog(DatasetConfig(scale=1 / 512))
    cluster = IaaSCluster.build(n_compute=4, n_storage=4, block_size=BLOCK_SIZE)
    squirrel = Squirrel(
        cluster=cluster,
        estimator=make_estimator("gzip6", (BLOCK_SIZE,)),
        gc_window_days=7,
    )
    images = iter(dataset.specs)

    print("== day 0-2: normal operation, one registration per day ==")
    for day in range(3):
        record = squirrel.register(next(images))
        print(
            f"day {squirrel.clock_days:4.0f}: registered image "
            f"{record.image_id} (diff {format_bytes(record.diff_bytes)})"
        )
        squirrel.advance_time(1)

    print("\n== day 3: compute3 crashes ==")
    cluster.node("compute3").online = False

    for _ in range(3):
        record = squirrel.register(next(images))
        print(
            f"day {squirrel.clock_days:4.0f}: registered image "
            f"{record.image_id} while compute3 is down"
        )
        squirrel.advance_time(1)

    print("\n== day 6: compute3 returns (within the 7-day window) ==")
    moved = squirrel.resync_node("compute3")
    print(f"incremental resync: {format_bytes(moved)}")

    print("\n== compute3 crashes again; three quiet weeks pass ==")
    cluster.node("compute3").online = False
    squirrel.advance_time(21)
    record = squirrel.register(next(images))
    print(f"day {squirrel.clock_days:4.0f}: registered image {record.image_id}")
    victims = squirrel.collect_garbage()
    print(f"daily GC destroyed snapshots: {victims}")

    print("\n== compute3 returns after the window: full re-replication ==")
    moved = squirrel.resync_node("compute3")
    print(f"full scVolume replication: {format_bytes(moved)}")
    node = cluster.node("compute3")
    missing = [
        image_id
        for image_id in squirrel.registered_ids()
        if not node.ccvolume.has_file(squirrel.cache_file_of(image_id))
    ]
    print(f"caches missing on compute3 after resync: {missing or 'none'}")
    print(
        f"compute3 ccVolume: {format_bytes(node.pool.disk_used_bytes)} disk, "
        f"{format_bytes(node.pool.memory_used_bytes)} memory"
    )


if __name__ == "__main__":
    main()
