"""Failure-injection tests: the system under adverse conditions.

Covers pool exhaustion, mass node churn, repeated crash/recover cycles
interleaved with GC, and abusive request patterns — every failure must be a
clean, typed error or a full recovery, never silent corruption.
"""

import pytest

from repro.common.errors import PoolFullError, RegistrationError
from repro.core import IaaSCluster, Squirrel
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator
from repro.zfs import ZPool, scrub

BLOCK = 65536


@pytest.fixture(scope="module")
def dataset():
    return LazyImageCatalog(DatasetConfig(scale=1 / 2048))


def make_squirrel(n_compute=4, **kwargs):
    cluster = IaaSCluster.build(n_compute=n_compute, n_storage=4, block_size=BLOCK,
                                **kwargs)
    return Squirrel(
        cluster=cluster,
        estimator=make_estimator("gzip6", (BLOCK,), samples_per_point=2),
        gc_window_days=5,
    )


class TestPoolExhaustion:
    def test_full_pool_raises_cleanly(self):
        pool = ZPool(capacity=8192)
        ds = pool.create_dataset("d", record_size=4096, compression="off")
        with pytest.raises(PoolFullError):
            for i in range(10):
                ds.write_block_virtual("f", i, signature=i, lsize=4096, psize=4096)

    def test_accounting_consistent_after_failure(self):
        pool = ZPool(capacity=8192)
        ds = pool.create_dataset("d", record_size=4096, compression="off")
        written = 0
        try:
            for i in range(10):
                ds.write_block_virtual("f", i, signature=i, lsize=4096, psize=4096)
                written += 1
        except PoolFullError:
            pass
        # every successful write is still mapped and allocated; the failed
        # one left no DDT entry behind
        assert written == 2
        blocks = ds.file("f").blocks
        assert [bp.psize for bp in blocks] == [4096] * written
        assert pool.data_bytes == written * 4096
        assert pool.ddt.entry_count == written
        scrub(pool).raise_if_dirty()


class TestNodeChurn:
    def test_all_nodes_down_registration_still_succeeds(self, dataset):
        squirrel = make_squirrel()
        for node in squirrel.cluster.compute:
            node.online = False
        record = squirrel.register(dataset.specs[0])
        assert record.receivers == 0
        # nothing propagated, but the scVolume is authoritative
        assert squirrel.cluster.storage.scvolume.has_file(
            squirrel.cache_file_of(0)
        )

    def test_mass_recovery_after_total_outage(self, dataset):
        squirrel = make_squirrel()
        for node in squirrel.cluster.compute:
            node.online = False
        for spec in dataset.specs[:5]:
            squirrel.register(spec)
        for node in squirrel.cluster.compute:
            squirrel.resync_node(node.name)
        for node in squirrel.cluster.compute:
            for image_id in squirrel.registered_ids():
                assert node.ccvolume.has_file(squirrel.cache_file_of(image_id))

    def test_repeated_crash_recover_cycles_with_gc(self, dataset):
        """A flapping node across many GC windows always converges."""
        squirrel = make_squirrel(n_compute=2)
        images = iter(dataset.specs)
        node = squirrel.cluster.node("compute1")
        for cycle in range(4):
            node.online = False
            squirrel.register(next(images))
            squirrel.advance_time(9)  # beyond the 5-day window
            squirrel.register(next(images))
            squirrel.collect_garbage()
            moved = squirrel.resync_node("compute1")
            assert moved > 0
            expected = {
                squirrel.cache_file_of(i) for i in squirrel.registered_ids()
            }
            assert set(node.ccvolume.file_names()) == expected

    def test_resync_unknown_node_rejected(self, dataset):
        squirrel = make_squirrel()
        from repro.common.errors import NetworkError

        with pytest.raises(NetworkError):
            squirrel.resync_node("compute99")


class TestAbusivePatterns:
    def test_deregister_twice_rejected(self, dataset):
        squirrel = make_squirrel()
        squirrel.register(dataset.specs[0])
        squirrel.deregister(0)
        with pytest.raises(RegistrationError):
            squirrel.deregister(0)

    def test_register_deregister_register_same_content(self, dataset):
        """Re-registering after deregistration works and re-deduplicates."""
        squirrel = make_squirrel()
        spec = dataset.specs[0]
        squirrel.register(spec)
        squirrel.deregister(spec.image_id)
        squirrel.register(dataset.specs[1])  # propagate the unlink
        record = squirrel.register(
            type(spec)(**{**spec.__dict__, "image_id": 999})
        )
        # identical content: the diff dedups against what nodes already hold
        assert record.diff_bytes < spec.cache_bytes

    def test_time_cannot_flow_backwards(self, dataset):
        squirrel = make_squirrel()
        with pytest.raises(RegistrationError):
            squirrel.advance_time(-1)

    def test_gc_on_empty_system_is_noop(self, dataset):
        squirrel = make_squirrel()
        assert squirrel.collect_garbage() == []

    def test_boot_on_offline_node_falls_back_to_network(self, dataset):
        squirrel = make_squirrel()
        squirrel.register(dataset.specs[0])
        squirrel.cluster.node("compute2").online = False
        outcome = squirrel.boot(0, "compute2")
        # an offline node's local cache is unusable: cold path accounting
        assert not outcome.cache_hit
        assert outcome.network_bytes > 0


class TestScrubAfterChaos:
    """After any churn sequence, every pool in the cluster scrubs clean."""

    def test_all_pools_clean_after_churn(self, dataset):
        self._churn_then_scrub(make_squirrel(n_compute=3), dataset.specs)

    def test_all_pools_clean_after_two_shard_churn(self, dataset):
        """Each shard is its own dedup domain: images 2 and 10 share cache
        blocks, outlive the churn, and sit in different shards, so the same
        signatures live in both shards' DDTs."""
        from repro.core.cvolume import ShardPlan

        squirrel = make_squirrel(n_compute=3)
        plan = ShardPlan("tenant", ("s00", "s01"), {2: "s00", 10: "s01"})
        squirrel.shard_cvolume(plan)
        order = [dataset.specs[i] for i in (4, 5, 6, 10, 1, 2)]
        self._churn_then_scrub(squirrel, order)
        assert {2, 10} <= set(squirrel.registered_ids())
        for pool in [squirrel.cluster.storage.pool] + [
            node.pool for node in squirrel.cluster.compute
        ]:
            shared = {e.checksum for e in pool.domain_ddt("s00")} & {
                e.checksum for e in pool.domain_ddt("s01")
            }
            assert shared, pool.name

    @staticmethod
    def _churn_then_scrub(squirrel, images):
        images = iter(images)
        node = squirrel.cluster.node("compute1")
        for _ in range(3):
            node.online = False
            squirrel.register(next(images))
            squirrel.advance_time(9)
            squirrel.register(next(images))
            squirrel.deregister(squirrel.registered_ids()[0])
            squirrel.collect_garbage()
            squirrel.resync_node("compute1")
        scrub(squirrel.cluster.storage.pool).raise_if_dirty()
        for compute in squirrel.cluster.compute:
            scrub(compute.pool).raise_if_dirty()
