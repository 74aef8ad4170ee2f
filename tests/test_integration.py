"""End-to-end integration tests across all subsystems.

These walk the full Squirrel story on a miniature deployment: dataset
synthesis → registration (scVolume writes, snapshots, multicast, ccVolume
receive) → boots → deregistration and GC → offline catch-up, asserting
cross-layer consistency (every byte accounted, replicas bit-identical).
"""

import numpy as np
import pytest

from repro.core import IaaSCluster, Squirrel, run_boot_storm
from repro.vmi import (
    DatasetConfig,
    LazyImageCatalog,
    block_view,
    cache_stream,
    make_estimator,
)

BLOCK = 65536


@pytest.fixture(scope="module")
def world():
    dataset = LazyImageCatalog(DatasetConfig(scale=1 / 2048))
    cluster = IaaSCluster.build(n_compute=5, n_storage=4, block_size=BLOCK)
    squirrel = Squirrel(
        cluster=cluster, estimator=make_estimator("gzip6", (BLOCK,), samples_per_point=2)
    )
    for spec in dataset.specs[:30]:
        squirrel.register(spec)
    return dataset, cluster, squirrel


class TestReplicaConsistency:
    def test_every_ccvolume_mirrors_the_scvolume(self, world):
        _, cluster, squirrel = world
        scvol = cluster.storage.scvolume
        for node in cluster.compute:
            assert node.ccvolume.file_names() == scvol.file_names()

    def test_replicated_block_pointers_carry_identical_checksums(self, world):
        """A cache file's dedup identities must be byte-for-byte equal on the
        storage node and every compute node (full replication)."""
        _, cluster, squirrel = world
        scvol = cluster.storage.scvolume
        for image_id in squirrel.registered_ids()[:5]:
            name = squirrel.cache_file_of(image_id)
            reference = [bp.checksum for bp in scvol.file(name).blocks]
            for node in cluster.compute:
                replica = [bp.checksum for bp in node.ccvolume.file(name).blocks]
                assert replica == reference

    def test_ccvolume_matches_generated_cache_content(self, world):
        """What landed on a node is exactly the image's boot working set."""
        dataset, cluster, squirrel = world
        spec = dataset.specs[3]
        view = block_view(cache_stream(spec), BLOCK)
        node = cluster.compute[2]
        stored = node.ccvolume.file(squirrel.cache_file_of(spec.image_id))
        expected = [
            None if hole else f"v:{sig:016x}"
            for sig, hole in zip(view.signatures.tolist(), view.is_hole.tolist())
        ]
        assert [bp.checksum for bp in stored.blocks] == expected

    def test_all_node_pools_have_equal_footprints(self, world):
        _, cluster, _ = world
        footprints = {node.pool.disk_used_bytes for node in cluster.compute}
        assert len(footprints) == 1


class TestStorageEfficiencyEndToEnd:
    def test_dedup_pays_off_across_caches(self, world):
        dataset, cluster, squirrel = world
        node = cluster.compute[0]
        raw = sum(dataset.specs[i].cache_bytes for i in squirrel.registered_ids())
        assert node.pool.disk_used_bytes < raw / 2  # CCR >> 2 at 64 KB

    def test_scvolume_and_ccvolume_dedup_ratio_similar(self, world):
        _, cluster, _ = world
        sc_ratio = cluster.storage.pool.dedup_ratio()
        cc_ratio = cluster.compute[0].pool.dedup_ratio()
        # ccVolumes receive the same content (plus snapshot bookkeeping)
        assert cc_ratio == pytest.approx(sc_ratio, rel=0.15)


class TestLifecycle:
    def test_full_lifecycle_accounting(self):
        """Register → boot → deregister → GC drives the scVolume's *data*
        back down; snapshot metadata is bounded by the GC window."""
        dataset = LazyImageCatalog(DatasetConfig(scale=1 / 2048))
        cluster = IaaSCluster.build(n_compute=2, n_storage=4, block_size=BLOCK)
        squirrel = Squirrel(
            cluster=cluster,
            estimator=make_estimator("gzip6", (BLOCK,), samples_per_point=2),
            gc_window_days=3,
        )
        for spec in dataset.specs[:10]:
            squirrel.register(spec)
            squirrel.advance_time(1)
        peak = cluster.storage.pool.data_bytes
        for image_id in squirrel.registered_ids():
            squirrel.deregister(image_id)
        squirrel.register(dataset.specs[10])  # carries the unlinks
        squirrel.advance_time(10)
        squirrel.register(dataset.specs[11])
        squirrel.advance_time(1)
        squirrel.collect_garbage()
        assert cluster.storage.pool.data_bytes < peak / 2

    def test_boot_storm_after_churn(self):
        dataset = LazyImageCatalog(DatasetConfig(scale=1 / 2048))
        cluster = IaaSCluster.build(n_compute=4, n_storage=4, block_size=BLOCK)
        squirrel = Squirrel(
            cluster=cluster,
            estimator=make_estimator("gzip6", (BLOCK,), samples_per_point=2),
        )
        for spec in dataset.specs[:20]:
            squirrel.register(spec)
        for image_id in (0, 5, 7):
            squirrel.deregister(image_id)
        storm = run_boot_storm(
            squirrel, dataset, n_nodes=4, vms_per_node=2, with_caches=True
        )
        assert storm.compute_ingress_bytes == 0
        assert storm.cache_hits == storm.boots

    def test_node_down_through_churn_catches_up(self):
        dataset = LazyImageCatalog(DatasetConfig(scale=1 / 2048))
        cluster = IaaSCluster.build(n_compute=3, n_storage=4, block_size=BLOCK)
        squirrel = Squirrel(
            cluster=cluster,
            estimator=make_estimator("gzip6", (BLOCK,), samples_per_point=2),
        )
        squirrel.register(dataset.specs[0])
        cluster.node("compute1").online = False
        squirrel.register(dataset.specs[1])
        squirrel.deregister(0)
        squirrel.register(dataset.specs[2])
        squirrel.resync_node("compute1")
        node = cluster.node("compute1")
        assert not node.ccvolume.has_file(squirrel.cache_file_of(0))
        assert node.ccvolume.has_file(squirrel.cache_file_of(1))
        assert node.ccvolume.has_file(squirrel.cache_file_of(2))
        # and its pool now matches the others byte for byte
        assert (
            node.pool.disk_used_bytes
            == cluster.node("compute0").pool.disk_used_bytes
        )


class TestBytesModeDeployment:
    """A miniature deployment over the write path the runs use: one image's
    cache, signatures from its grain stream, psizes from the real-codec
    calibrated estimator, end-to-end through write/send/receive."""

    def test_real_bytes_round_trip_through_replication(self):
        from repro.zfs import ZPool, generate_send, receive

        dataset = LazyImageCatalog(DatasetConfig(scale=1 / 8192))
        view = block_view(cache_stream(dataset.specs[0]), 4096)
        psizes = view.psizes(make_estimator("gzip6", (4096,), samples_per_point=2))
        rows = list(
            zip(
                view.signatures.tolist(),
                view.lsizes.tolist(),
                psizes.tolist(),
                view.is_hole.tolist(),
            )
        )

        source_pool = ZPool(capacity=1 << 30)
        scvol = source_pool.create_dataset("scvol", record_size=4096)
        scvol.write_file_virtual("cache-0", rows)
        scvol.snapshot("v1")

        target_pool = ZPool(capacity=1 << 30)
        ccvol = target_pool.create_dataset("ccvol", record_size=4096)
        stream = generate_send(scvol, "v1")
        receive(ccvol, stream)
        sent = scvol.file("cache-0").blocks
        got = ccvol.file("cache-0").blocks
        assert [(bp.checksum, bp.lsize, bp.psize) for bp in got] == [
            (bp.checksum, bp.lsize, bp.psize) for bp in sent
        ]
        # dedup found the duplicate blocks across the wire too
        distinct = {sig for sig, _, _, hole in rows if not hole}
        assert target_pool.ddt.entry_count == source_pool.ddt.entry_count == len(distinct)
        assert target_pool.data_bytes == source_pool.data_bytes
        assert 0 < stream.size_bytes < stream.logical_bytes
