"""Snapshot/deadlist semantics, verified against a reachability oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SnapshotError
from repro.zfs import ZPool

from .zfs_blocks import allocated, checksum, write


def make_pool():
    return ZPool(capacity=256 << 20, arc_capacity=1 << 20)


class TestSnapshotBasics:
    def test_snapshot_captures_files(self):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        snap = ds.snapshot("s1")
        assert "f" in snap.files
        assert len(snap.files["f"]) == 1

    def test_duplicate_snapshot_name_rejected(self):
        pool = make_pool()
        ds = pool.create_dataset("d")
        ds.snapshot("s1")
        with pytest.raises(SnapshotError):
            ds.snapshot("s1")

    def test_snapshot_isolated_from_later_writes(self):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        snap = ds.snapshot("s1")
        write(ds, "f", 0, 2)
        assert snap.files["f"][0].checksum == checksum(1)
        assert ds.file("f").get_block(0).checksum == checksum(2)

    def test_snapshots_ordered(self):
        pool = make_pool()
        ds = pool.create_dataset("d")
        ds.snapshot("a")
        ds.snapshot("b")
        names = [s.name for s in ds.snapshots()]
        assert names == ["a", "b"]
        assert ds.latest_snapshot().name == "b"


class TestDeadlistSemantics:
    def test_overwrite_after_snapshot_defers_free(self):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        assert pool.data_bytes == allocated(1)
        ds.snapshot("s1")
        write(ds, "f", 0, 2)
        # both versions alive: snapshot pins the old block
        assert pool.data_bytes == allocated(1, 2)

    def test_destroying_snapshot_frees_pinned_block(self):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        ds.snapshot("s1")
        write(ds, "f", 0, 2)
        ds.destroy_snapshot("s1")
        assert pool.data_bytes == allocated(2)

    def test_overwrite_without_snapshot_frees_now(self):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        write(ds, "f", 0, 2)
        assert pool.data_bytes == allocated(2)

    def test_block_shared_by_two_snapshots_survives_one_destroy(self):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        ds.snapshot("s1")
        ds.snapshot("s2")
        write(ds, "f", 0, 2)
        ds.destroy_snapshot("s2")  # s1 still pins block 1
        assert pool.data_bytes == allocated(1, 2)  # 1 pinned by s1, 2 live
        # s1's pointer must still resolve to the old block's DDT entry
        bp = ds.get_snapshot("s1").files["f"][0]
        assert bp.checksum == checksum(1)
        assert pool.ddt.lookup(bp.checksum).refcount == 1

    def test_destroy_middle_snapshot(self):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        write(ds, "f", 0, 1)
        ds.snapshot("s1")
        write(ds, "f", 0, 2)
        ds.snapshot("s2")
        write(ds, "f", 0, 3)
        ds.snapshot("s3")
        ds.destroy_snapshot("s2")  # only s2 referenced block 2
        assert ds.get_snapshot("s1").files["f"][0].checksum == checksum(1)
        assert ds.get_snapshot("s3").files["f"][0].checksum == checksum(3)
        # block 2 freed; block 1 pinned by s1; block 3 shared by s3 + head
        assert pool.ddt.lookup(checksum(2)) is None
        assert pool.data_bytes == allocated(1, 3)

    def test_dataset_destroy_reclaims_everything(self):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        for i in range(5):
            write(ds, "f", i, i + 1)
            ds.snapshot(f"s{i}")
            write(ds, "f", i, 100 + i)
        pool.destroy_dataset("d")
        assert pool.data_bytes == 0
        assert pool.ddt.entry_count == 0


def _oracle_referenced(pool, ds) -> dict[str, int]:
    """Brute-force refcounts: live head + every snapshot, per checksum."""
    counts: dict[str, int] = {}
    views = [list(ds.iter_live_blocks())]
    for snap in ds.snapshots():
        views.append([bp for blocks in snap.files.values() for bp in blocks])
    for view in views:
        for bp in view:
            if not bp.is_hole:
                counts[bp.checksum] = counts.get(bp.checksum, 0) + 1
    return counts


class TestReachabilityOracle:
    """Randomised sequences of writes/snapshots/destroys never leak or
    double-free: pool state must match a from-scratch reachability count."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["write", "snap", "destroy_snap", "delete"]),
                st.integers(0, 5),  # block index / snapshot selector
                st.integers(0, 7),  # content tag
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_no_leaks_no_premature_frees(self, ops):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        snap_serial = 0
        for op, sel, tag in ops:
            if op == "write":
                write(ds, "f", sel, tag + 1)
            elif op == "snap":
                snap_serial += 1
                ds.snapshot(f"s{snap_serial}")
            elif op == "destroy_snap":
                snaps = ds.snapshots()
                if snaps:
                    ds.destroy_snapshot(snaps[sel % len(snaps)].name)
            elif op == "delete":
                if ds.has_file("f"):
                    ds.delete_file("f")
        oracle = _oracle_referenced(pool, ds)
        # 1. every reachable checksum is present in the DDT
        for checksum in oracle:
            assert pool.ddt.lookup(checksum) is not None, "premature free!"
        # 2. every DDT entry is reachable OR pinned by a deadlist (dead but
        #    deferred) — after destroying all snapshots nothing may remain
        for snap in [s.name for s in ds.snapshots()]:
            ds.destroy_snapshot(snap)
        oracle_final = _oracle_referenced(pool, ds)
        ddt_checksums = {entry.checksum for entry in pool.ddt}
        assert ddt_checksums == set(oracle_final), "leak after snapshot teardown"
        # 3. refcounts match exactly
        for checksum, expected in oracle_final.items():
            assert pool.ddt.lookup(checksum).refcount == expected

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_space_returns_to_zero(self, data):
        rng_ops = data.draw(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=25)
        )
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        serial = 0
        for kind, sel in rng_ops:
            if kind == 0:
                write(ds, "f", sel, sel + 1)
            elif kind == 1:
                serial += 1
                ds.snapshot(f"s{serial}")
            elif kind == 2 and ds.snapshots():
                ds.destroy_snapshot(ds.snapshots()[sel % len(ds.snapshots())].name)
            elif kind == 3 and ds.has_file("f"):
                ds.delete_file("f")
        pool.destroy_dataset("d")
        assert pool.data_bytes == 0
        assert pool.ddt.entry_count == 0
        assert pool.space.allocation_count == 0
