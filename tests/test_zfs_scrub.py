"""Tests for the pool scrubber — and property tests using it as an oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.zfs import ZPool, scrub


def block(tag: int, size: int = 4096) -> bytes:
    seed = (tag % 250 + 1).to_bytes(4, "little") * 16
    return (seed * (size // len(seed) + 1))[:size]


class TestCleanPools:
    def test_empty_pool_is_clean(self):
        report = scrub(ZPool(capacity=1 << 20))
        assert report.clean
        assert report.datasets == 0

    def test_simple_pool_is_clean(self):
        pool = ZPool(capacity=64 << 20)
        ds = pool.create_dataset("d", record_size=4096)
        ds.write_file("f", block(1) + block(2))
        ds.snapshot("s1")
        ds.write_block("f", 0, block(3))
        report = scrub(pool)
        assert report.clean
        assert report.blocks_checked >= 4
        assert report.payloads_verified >= 2

    def test_virtual_pool_is_clean(self):
        pool = ZPool(capacity=64 << 20)
        ds = pool.create_dataset("d", record_size=4096, dedup=True)
        ds.write_file_virtual("f", [(7, 4096, 512, False), (8, 4096, 512, False)])
        ds.snapshot("s1")
        ds.delete_file("f")
        report = scrub(pool)
        assert report.clean

    def test_raise_if_dirty_noop_when_clean(self):
        report = scrub(ZPool(capacity=1 << 20))
        report.raise_if_dirty()


class TestCorruptionDetection:
    def test_detects_refcount_drift(self):
        pool = ZPool(capacity=64 << 20)
        ds = pool.create_dataset("d", record_size=4096)
        ds.write_block("f", 0, block(1))
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
        ds.write_block("f", 0, block(1))
        pool.space._allocated += 512  # noqa: SLF001 - simulated leak
        report = scrub(pool)
        assert any("space map" in error for error in report.errors)

    def test_detects_missing_payload(self):
        pool = ZPool(capacity=64 << 20)
        ds = pool.create_dataset("d", record_size=4096)
        ds.write_block("f", 0, block(1))
        pool.zio._blockstore.clear()  # noqa: SLF001 - simulated data loss
        report = scrub(pool)
        assert any("payload" in error for error in report.errors)


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
                ds.write_block("f", sel, block(tag))
            elif op == "wholefile":
                ds.write_file(f"g{sel}", block(tag) + block(tag + 1))
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
            src.write_block("f", index, block(tag))
        src.snapshot("v1")
        dst_pool = ZPool(capacity=64 << 20)
        dst = dst_pool.create_dataset("d", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        scrub(src_pool).raise_if_dirty()
        scrub(dst_pool).raise_if_dirty()
