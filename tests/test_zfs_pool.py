"""Unit tests for ZPool + the ZIO write pipeline."""

import pytest

from repro.common.errors import ObjectNotFoundError, StorageError
from repro.zfs import ZPool
from repro.zfs.spa import SECTOR_SIZE

from .zfs_blocks import allocated, checksum, checksums, record, write, write_file


@pytest.fixture
def pool():
    return ZPool(capacity=64 << 20, arc_capacity=1 << 20)


@pytest.fixture
def ds(pool):
    return pool.create_dataset("cvol", record_size=4096, compression="gzip6")


class TestDatasetNamespace:
    def test_create_and_get(self, pool):
        created = pool.create_dataset("a")
        assert pool.dataset("a") is created

    def test_duplicate_rejected(self, pool):
        pool.create_dataset("a")
        with pytest.raises(StorageError):
            pool.create_dataset("a")

    def test_missing_raises(self, pool):
        with pytest.raises(ObjectNotFoundError):
            pool.dataset("nope")

    def test_destroy_removes(self, pool):
        pool.create_dataset("a")
        pool.destroy_dataset("a")
        assert not pool.has_dataset("a")


class TestBytesPipeline:
    """Allocation, dedup and holes through the write path every run uses."""

    def test_round_trip(self, ds):
        bp = write(ds, "f", 0, 1)
        assert ds.file("f").get_block(0) == bp
        assert (bp.checksum, bp.lsize, bp.psize) == (checksum(1), *record(1)[1:3])
        assert bp.compression == "gzip6"

    def test_zero_block_becomes_hole(self, ds, pool):
        """A block that compresses to nothing is stored as a hole."""
        ds.write_block_virtual("f", 0, signature=9, lsize=4096, psize=0)
        assert pool.data_bytes == 0
        assert ds.file("f").get_block(0).is_hole

    def test_dedup_identical_blocks_allocate_once(self, ds, pool):
        write(ds, "f", 0, 1)
        write(ds, "f", 1, 1)
        write(ds, "g", 0, 1)
        assert pool.data_bytes == allocated(1)
        assert pool.ddt.entry_count == 1
        assert pool.dedup_ratio() == pytest.approx(3.0)

    def test_compression_shrinks_allocation(self, ds, pool):
        write(ds, "f", 0, 1)
        assert pool.data_bytes == allocated(1)
        assert 0 < pool.data_bytes < 4096

    def test_incompressible_allocates_raw(self, ds, pool):
        ds.write_block_virtual("f", 0, signature=3, lsize=4096, psize=4096)
        assert pool.data_bytes == 4096

    def test_write_file_and_read_file(self, ds):
        write_file(ds, "vmlinuz", [1, 2, 1])
        assert checksums(ds, "vmlinuz") == [checksum(1), checksum(2), checksum(1)]
        assert ds.file("vmlinuz").logical_size == 3 * 4096

    def test_sparse_file_holes_read_as_zeros(self, ds, pool):
        write(ds, "f", 3, 1)
        assert checksums(ds, "f") == [None, None, None, checksum(1)]
        assert ds.file("f").get_block(0).is_hole
        assert pool.data_bytes == allocated(1)


class TestVirtualPipeline:
    def test_virtual_write_accounts_without_bytes(self, ds, pool):
        ds.write_block_virtual("f", 0, signature=42, lsize=4096, psize=1000)
        assert pool.data_bytes == ((1000 + SECTOR_SIZE - 1) // SECTOR_SIZE) * SECTOR_SIZE
        assert pool.ddt.entry_count == 1

    def test_virtual_dedup(self, ds, pool):
        ds.write_block_virtual("f", 0, signature=42, lsize=4096, psize=1000)
        ds.write_block_virtual("f", 1, signature=42, lsize=4096, psize=1000)
        assert pool.ddt.entry_count == 1
        assert pool.ddt.lookup("v:" + format(42, "016x")).refcount == 2

    def test_virtual_hole(self, ds, pool):
        ds.write_block_virtual("f", 0, signature=0, lsize=4096, psize=0, is_hole=True)
        assert pool.data_bytes == 0

    def test_virtual_psize_bounds_checked(self, ds):
        with pytest.raises(StorageError):
            ds.write_block_virtual("f", 0, signature=1, lsize=4096, psize=5000)


class TestAccounting:
    def test_stats_snapshot(self, ds, pool):
        write(ds, "f", 0, 1)
        assert pool.data_bytes == pool.space.allocated_bytes
        assert pool.ddt.entry_count == 1
        assert pool.disk_used_bytes == pool.data_bytes + pool.ddt_disk_bytes_total
        assert pool.memory_used_bytes == (
            pool.ddt_core_bytes_total + pool.arc.resident_bytes
        )

    def test_free_on_overwrite(self, ds, pool):
        write(ds, "f", 0, 1)
        write(ds, "f", 0, 2)
        assert pool.data_bytes == allocated(2)  # old block freed
        assert pool.ddt.lookup(checksum(1)) is None

    def test_delete_file_reclaims_all(self, ds, pool):
        write_file(ds, "f", range(10))
        ds.delete_file("f")
        assert pool.data_bytes == 0
        assert pool.ddt.entry_count == 0

    def test_txg_monotonic(self, pool):
        first = pool.advance_txg()
        second = pool.advance_txg()
        assert second == first + 1
