"""Tests for the pool scrubber — and property tests using it as an oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.zfs import ShardedPool, ZPool, scrub

from .zfs_blocks import checksum, write, write_file


class TestCleanPools:
    def test_empty_pool_is_clean(self):
        report = scrub(ZPool(capacity=1 << 20))
        assert report.clean
        assert report.datasets == 0

    def test_simple_pool_is_clean(self):
        pool = ZPool(capacity=64 << 20)
        ds = pool.create_dataset("d", record_size=4096)
        write_file(ds, "f", [1, 2])
        ds.snapshot("s1")
        write(ds, "f", 0, 3)
        report = scrub(pool)
        assert report.clean
        assert report.blocks_checked == 4  # 2 live + 2 through @s1

    def test_virtual_pool_is_clean(self):
        pool = ZPool(capacity=64 << 20)
        ds = pool.create_dataset("d", record_size=4096)
        ds.write_file_virtual("f", [(7, 4096, 512, False), (8, 4096, 512, False)])
        ds.snapshot("s1")
        ds.delete_file("f")
        report = scrub(pool)
        assert report.clean

    def test_raise_if_dirty_noop_when_clean(self):
        report = scrub(ZPool(capacity=1 << 20))
        report.raise_if_dirty()

    def test_sharded_pool_is_clean(self):
        """Each dedup domain keeps its own DDT: one signature stored in two
        shards is two entries with independent refcounts, not an error."""
        pool = ZPool(capacity=64 << 20)
        sp = ShardedPool.create(pool, "scvol", ("s00", "s01"), record_size=4096)
        write_file(sp.dataset("s00"), "a", [1, 2])
        write_file(sp.dataset("s01"), "b", [1, 1])
        sp.dataset("s00").snapshot("v1")
        write(sp.dataset("s00"), "a", 0, 3)
        report = scrub(pool)
        assert report.errors == []
        assert sp.ddt("s00").lookup(checksum(1)).refcount == 1  # deferred @v1
        assert sp.ddt("s01").lookup(checksum(1)).refcount == 2


class TestCorruptionDetection:
    def test_detects_refcount_drift(self):
        pool = ZPool(capacity=64 << 20)
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        entry = next(iter(pool.ddt))
        entry.refcount += 1  # simulated accounting bug
        report = scrub(pool)
        assert not report.clean
        assert "refcount" in report.errors[0]
        with pytest.raises(StorageError):
            report.raise_if_dirty()

    def test_detects_space_drift(self):
        pool = ZPool(capacity=64 << 20)
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        pool.space._allocated += 512  # noqa: SLF001 - simulated leak
        report = scrub(pool)
        assert any("space map" in error for error in report.errors)

    def test_detects_refcount_drift_inside_a_domain(self):
        """The same signature lives in both shards; drift in one shard's
        entry is caught and blamed on that domain alone."""
        pool = ZPool(capacity=64 << 20)
        sp = ShardedPool.create(pool, "scvol", ("s00", "s01"), record_size=4096)
        write_file(sp.dataset("s00"), "a", [1])
        write_file(sp.dataset("s01"), "a", [1])
        sp.ddt("s01").lookup(checksum(1)).refcount += 1  # simulated bug
        report = scrub(pool)
        assert len(report.errors) == 1
        assert "domain s01" in report.errors[0]
        assert "refcount 2, live+deferred 1" in report.errors[0]

    def test_detects_space_drift_across_domains(self):
        pool = ZPool(capacity=64 << 20)
        sp = ShardedPool.create(pool, "scvol", ("s00", "s01"), record_size=4096)
        write_file(sp.dataset("s00"), "a", [1, 2])
        write_file(sp.dataset("s01"), "a", [1])
        assert scrub(pool).clean
        pool.space._allocated -= 512  # noqa: SLF001 - simulated double free
        report = scrub(pool)
        assert any("space map" in error for error in report.errors)


class TestScrubAsOracle:
    """Scrub must stay clean through arbitrary legal op sequences — this is
    the deadlist/dedup machinery's strongest invariant check."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["write", "snap", "destroy", "delete", "wholefile"]),
                st.integers(0, 4),
                st.integers(0, 9),
            ),
            min_size=1,
            max_size=35,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_always_clean_under_legal_ops(self, ops):
        pool = ZPool(capacity=256 << 20)
        ds = pool.create_dataset("d", record_size=4096)
        serial = 0
        for op, sel, tag in ops:
            if op == "write":
                write(ds, "f", sel, tag)
            elif op == "wholefile":
                write_file(ds, f"g{sel}", [tag, tag + 1])
            elif op == "snap":
                serial += 1
                ds.snapshot(f"s{serial}")
            elif op == "destroy" and ds.snapshots():
                ds.destroy_snapshot(ds.snapshots()[sel % len(ds.snapshots())].name)
            elif op == "delete" and ds.has_file("f"):
                ds.delete_file("f")
        scrub(pool).raise_if_dirty()

    @given(
        tags=st.lists(st.integers(0, 6), min_size=1, max_size=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_clean_after_replication(self, tags):
        from repro.zfs import generate_send, receive

        src_pool = ZPool(capacity=64 << 20)
        src = src_pool.create_dataset("s", record_size=4096)
        for index, tag in enumerate(tags):
            write(src, "f", index, tag)
        src.snapshot("v1")
        dst_pool = ZPool(capacity=64 << 20)
        dst = dst_pool.create_dataset("d", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        scrub(src_pool).raise_if_dirty()
        scrub(dst_pool).raise_if_dirty()
