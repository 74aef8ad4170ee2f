"""ShardedPool contracts: the adopted single shard is byte-for-byte the
plain pool, multi-shard domains isolate dedup, quotas evict in insertion
order, and cross-shard dedup loss is accounted exactly."""

import pytest

from repro.common.errors import ConfigError
from repro.zfs import ShardedPool, ZPool

from .zfs_blocks import write_file


def accounting(pool: ZPool) -> tuple:
    """Every pool-wide resource figure the cluster reports."""
    return (
        pool.data_bytes,
        pool.ddt_disk_bytes_total,
        pool.ddt_core_bytes_total,
        pool.arc.resident_bytes,
        pool.disk_used_bytes,
        pool.memory_used_bytes,
    )


@pytest.fixture
def pool():
    return ZPool(capacity=64 << 20, arc_capacity=1 << 20)


class TestAdoptedSingleShard:
    """shards=1 wraps the existing volume + global DDT: no new objects."""

    def test_adopt_reuses_existing_objects(self, pool):
        ds = pool.create_dataset("scvol", record_size=4096)
        sp = ShardedPool.adopt(pool, "scvol", "s00")
        assert sp.dataset("s00") is ds
        assert sp.ddt("s00") is pool.ddt
        assert pool.dataset_names() == ["scvol"]
        assert pool.domain_names() == []

    def test_adopted_accounting_equals_plain_pool(self):
        """Writing through the adopted facade leaves every pool counter
        exactly where the same writes leave an untouched pool."""
        plain = ZPool(capacity=64 << 20, arc_capacity=1 << 20)
        wrapped = ZPool(capacity=64 << 20, arc_capacity=1 << 20)
        pds = plain.create_dataset("scvol", record_size=4096)
        wds = wrapped.create_dataset("scvol", record_size=4096)
        sp = ShardedPool.adopt(wrapped, "scvol", "s00")
        for name, tags in (("a", [1, 2]), ("b", [2, 3])):
            write_file(pds, name, tags)
            write_file(sp.dataset("s00"), name, tags)
        assert accounting(wrapped) == accounting(plain)
        assert wrapped.ddt.entry_count == plain.ddt.entry_count
        assert wrapped.dedup_ratio() == plain.dedup_ratio()
        assert wds.referenced_psize == pds.referenced_psize

    def test_quota_zero_never_evicts(self, pool):
        pool.create_dataset("scvol", record_size=4096)
        sp = ShardedPool.adopt(pool, "scvol", "s00")
        write_file(sp.dataset("s00"), "a", [1])
        sp.note_file("s00", "a")
        assert sp.ensure_quota("s00") == []
        assert sp.quota_pressure("s00") == 0.0


class TestMultiShardDomains:
    def test_create_makes_shard_datasets_with_domains(self, pool):
        sp = ShardedPool.create(pool, "scvol", ("s00", "s01"), record_size=4096)
        assert pool.has_dataset("scvol/s00") and pool.has_dataset("scvol/s01")
        assert pool.domain_names() == ["s00", "s01"]
        assert sp.ddt("s00") is not sp.ddt("s01")
        assert sp.ddt("s00") is not pool.ddt

    def test_identical_blocks_duplicate_across_shards(self, pool):
        """The same content written to two shards costs two DDT entries —
        the dedup loss a global domain would not pay."""
        sp = ShardedPool.create(pool, "scvol", ("s00", "s01"), record_size=4096)
        tags = [1, 2]  # two distinct 4 KiB records
        write_file(sp.dataset("s00"), "f", tags)
        assert sp.dedup_loss_bytes() == 0
        write_file(sp.dataset("s01"), "f", tags)
        assert sp.duplicate_entries() == 2  # both checksums live in both DDTs
        assert sp.dedup_loss_bytes() > 0
        # aggregate pool accounting sums the default domain + every shard
        assert pool.ddt.entry_count == 0
        assert pool.ddt_core_bytes_total == (
            sp.ddt("s00").in_core_bytes + sp.ddt("s01").in_core_bytes
        )
        assert pool.ddt_disk_bytes_total == (
            sp.ddt("s00").on_disk_bytes + sp.ddt("s01").on_disk_bytes
        )

    def test_within_shard_dedup_still_works(self, pool):
        sp = ShardedPool.create(pool, "scvol", ("s00",), record_size=4096)
        write_file(sp.dataset("s00"), "a", [2])
        entries = sp.ddt("s00").entry_count
        write_file(sp.dataset("s00"), "b", [2])
        assert sp.ddt("s00").entry_count == entries  # refcount, not a copy

    def test_peek_domain_does_not_create(self, pool):
        assert pool.peek_domain_ddt("ghost") is None
        assert pool.domain_names() == []


class TestQuotaEviction:
    def _sharded(self, pool, quota):
        return ShardedPool.create(
            pool, "scvol", ("s00",), record_size=4096, quota_bytes=quota
        )

    def test_evicts_oldest_first(self, pool):
        sp = self._sharded(pool, quota=1)  # any write busts a 1-byte quota
        ds = sp.dataset("s00")
        for tag, name in enumerate(("old", "mid", "new")):
            write_file(ds, name, [tag])
            sp.note_file("s00", name)
        evicted = sp.ensure_quota("s00", keep=("new",))
        assert evicted == ["old", "mid"]
        assert ds.file_names() == ["new"]
        assert sp.evictions("s00") == 2
        assert sp.evicted_bytes("s00") > 0

    def test_keep_protects_the_fresh_hoard(self, pool):
        sp = self._sharded(pool, quota=1)
        ds = sp.dataset("s00")
        write_file(ds, "only", [1])
        sp.note_file("s00", "only")
        assert sp.ensure_quota("s00", keep=("only",)) == []
        assert ds.has_file("only")

    def test_quota_pressure_tracks_referenced_bytes(self, pool):
        sp = ShardedPool.create(
            pool, "scvol", ("s00",), record_size=4096, quota_bytes=1 << 20
        )
        assert sp.quota_pressure("s00") == 0.0
        write_file(sp.dataset("s00"), "a", [1])
        assert sp.quota_pressure("s00") > 0.0

    def test_core_high_water_is_monotone(self, pool):
        sp = self._sharded(pool, quota=1)
        ds = sp.dataset("s00")
        write_file(ds, "a", [1])
        sp.note_file("s00", "a")
        sp.refresh("s00")
        high = sp.ddt_core_high_bytes("s00")
        assert high > 0
        write_file(ds, "b", [2])
        sp.note_file("s00", "b")
        sp.refresh("s00")
        sp.ensure_quota("s00")  # evicts everything; live core drops
        sp.refresh("s00")
        assert sp.ddt_core_high_bytes("s00") >= high

    def test_stats_block_shape(self, pool):
        sp = self._sharded(pool, quota=1 << 20)
        block = sp.shard_stats()
        assert set(block) == {"s00"}
        assert {
            "files", "referenced_bytes", "ddt_entries", "ddt_core_bytes",
            "ddt_core_high_bytes", "ddt_disk_bytes", "quota_bytes",
            "quota_pressure", "evictions", "evicted_bytes",
        } <= set(block["s00"])


class TestConstruction:
    def test_empty_shards_rejected(self, pool):
        with pytest.raises(ConfigError):
            ShardedPool(pool, (), {}, {})
