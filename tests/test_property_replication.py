"""Property-based tests: replication and metric invariants.

Hypothesis drives random dataset mutations through snapshot/send/receive and
asserts the replication contract (receiver == sender, always), plus range
and monotonicity invariants of the analysis metrics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cross_similarity, dedup_ratio
from repro.vmi import block_view
from repro.zfs import ZPool, generate_send, receive

from .zfs_blocks import write


def fingerprint(ds):
    """Full content identity of a dataset's head."""
    return {
        name: tuple(bp.checksum for bp in ds.file(name).blocks)
        for name in ds.file_names()
    }


class TestReplicationProperty:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["write", "delete"]),
                st.integers(0, 3),  # file selector
                st.integers(0, 4),  # block index
                st.integers(0, 30),  # content tag
            ),
            min_size=1,
            max_size=30,
        ),
        snapshot_every=st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_chained_incrementals_converge(self, ops, snapshot_every):
        """Any op sequence, snapshotted at arbitrary cadence and shipped as
        chained incremental streams, leaves the replica identical."""
        src_pool = ZPool(capacity=256 << 20)
        src = src_pool.create_dataset("scvol", record_size=4096)
        dst_pool = ZPool(capacity=256 << 20)
        dst = dst_pool.create_dataset("ccvol", record_size=4096)

        serial = 0
        last_shipped: str | None = None

        def ship():
            nonlocal serial, last_shipped
            serial += 1
            name = f"v{serial}"
            src.snapshot(name)
            stream = generate_send(src, name, from_snapshot=last_shipped)
            receive(dst, stream)
            last_shipped = name

        for index, (op, file_sel, block_idx, tag) in enumerate(ops):
            file_name = f"f{file_sel}"
            if op == "write":
                write(src, file_name, block_idx, tag)
            elif op == "delete" and src.has_file(file_name):
                src.delete_file(file_name)
            if (index + 1) % snapshot_every == 0:
                ship()
        ship()
        assert fingerprint(dst) == fingerprint(src)

    @given(
        tags=st.lists(st.integers(0, 10), min_size=1, max_size=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_receive_preserves_dedup(self, tags):
        """However redundant the content, the receiver's pool allocates at
        most what the sender's pool did."""
        src_pool = ZPool(capacity=64 << 20)
        src = src_pool.create_dataset("s", record_size=4096)
        for index, tag in enumerate(tags):
            write(src, "f", index, tag)
        src.snapshot("v1")
        dst_pool = ZPool(capacity=64 << 20)
        dst = dst_pool.create_dataset("d", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        assert dst_pool.data_bytes <= src_pool.data_bytes
        assert dst_pool.ddt.entry_count == len({t for t in tags})


def views_from(sig_lists, block_size=1024):
    return [
        block_view(np.asarray(sigs, dtype=np.uint64) << np.uint64(3) | np.uint64(2),
                   block_size)
        for sigs in sig_lists
    ]


class TestMetricProperties:
    @given(
        sig_lists=st.lists(
            st.lists(st.integers(1, 50), min_size=1, max_size=40),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_similarity_bounded(self, sig_lists):
        value = cross_similarity(views_from(sig_lists))
        assert 0.0 <= value <= 1.0

    @given(
        sigs=st.lists(st.integers(1, 50), min_size=1, max_size=60),
        copies=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_copies_have_similarity_one(self, sigs, copies):
        if copies < 2:
            return
        value = cross_similarity(views_from([sigs] * copies))
        assert value == pytest.approx(1.0)

    @given(
        sig_lists=st.lists(
            st.lists(st.integers(1, 100), min_size=1, max_size=40),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dedup_at_least_one(self, sig_lists):
        assert dedup_ratio(views_from(sig_lists)) >= 1.0

    @given(
        sigs=st.lists(st.integers(1, 30), min_size=4, max_size=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_dedup_equals_count_over_distinct(self, sigs):
        value = dedup_ratio(views_from([sigs]))
        assert value == pytest.approx(len(sigs) / len(set(sigs)))
