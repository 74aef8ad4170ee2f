"""Send/receive stream tests: full, incremental, preconditions, fidelity."""

import pytest

from repro.common.errors import SendStreamError
from repro.zfs import ZPool, generate_send, receive
from repro.zfs.send import RecordKind, SendRecord, SendStream

from .zfs_blocks import checksum, checksums, write, write_file


def make_pool():
    return ZPool(capacity=256 << 20, arc_capacity=1 << 20)


@pytest.fixture
def sender():
    pool = make_pool()
    ds = pool.create_dataset("scvol", record_size=4096)
    write_file(ds, "cache-a", [1, 2])
    ds.snapshot("v1")
    return pool, ds


class TestFullSend:
    def test_full_round_trip(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        stream = generate_send(src, "v1")
        receive(dst, stream)
        assert checksums(dst, "cache-a") == [checksum(1), checksum(2)]
        assert dst.has_snapshot("v1")

    def test_full_into_nonempty_rejected(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        write(dst, "junk", 0, 9)
        with pytest.raises(SendStreamError, match="non-empty"):
            receive(dst, generate_send(src, "v1"))

    def test_stream_size_reflects_psize_not_lsize(self, sender):
        _, src = sender
        stream = generate_send(src, "v1")
        assert 0 < stream.size_bytes < stream.logical_bytes


class TestIncrementalSend:
    def test_incremental_carries_only_new_blocks(self, sender):
        _, src = sender
        write_file(src, "cache-b", [3])
        src.snapshot("v2")
        stream = generate_send(src, "v2", from_snapshot="v1")
        writes = [r for r in stream.records if r.kind is RecordKind.WRITE]
        assert {r.file_name for r in writes} == {"cache-b"}

    def test_incremental_round_trip(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        write_file(src, "cache-b", [3])
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert checksums(dst, "cache-b") == [checksum(3)]
        assert checksums(dst, "cache-a") == [checksum(1), checksum(2)]
        assert dst.latest_snapshot().name == "v2"

    def test_incremental_needs_matching_source(self, sender):
        _, src = sender
        write_file(src, "cache-b", [3])
        src.snapshot("v2")
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        with pytest.raises(SendStreamError, match="needs snapshot"):
            receive(dst, generate_send(src, "v2", from_snapshot="v1"))

    def test_wrong_direction_rejected(self, sender):
        _, src = sender
        src.snapshot("v2")
        with pytest.raises(SendStreamError, match="not older"):
            generate_send(src, "v1", from_snapshot="v2")

    def test_unlink_propagates(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        src.delete_file("cache-a")
        write_file(src, "cache-b", [3])
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert not dst.has_file("cache-a")

    def test_overwrite_propagates(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        write(src, "cache-a", 0, 7)
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert checksums(dst, "cache-a") == [checksum(7), checksum(2)]

    def test_duplicate_target_snapshot_rejected(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        with pytest.raises(SendStreamError, match="already exists"):
            receive(dst, generate_send(src, "v1"))


class TestVirtualStreams:
    def test_virtual_blocks_travel_by_signature(self):
        pool = make_pool()
        src = pool.create_dataset("scvol", record_size=4096)
        src.write_file_virtual(
            "cache-a", [(11, 4096, 512, False), (12, 4096, 512, False)]
        )
        src.snapshot("v1")
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        stream = generate_send(src, "v1")
        receive(dst, stream)
        assert dst_pool.ddt.entry_count == 2
        assert dst.file("cache-a").get_block(0).checksum.startswith("v:")

    def test_receiver_dedups_against_existing_content(self):
        """Chained incrementals: a cache whose blocks already exist on the
        receiver (from other caches) must not grow the receiver's pool."""
        pool = make_pool()
        src = pool.create_dataset("scvol", record_size=4096)
        src.write_file_virtual("cache-a", [(11, 4096, 512, False)])
        src.snapshot("v1")
        src.write_file_virtual("cache-b", [(11, 4096, 512, False)])  # same sig
        src.snapshot("v2")
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        used = dst_pool.data_bytes
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst_pool.data_bytes == used
        assert dst_pool.ddt.lookup("v:" + format(11, "016x")).refcount == 2

    def test_unknown_checksum_rejected(self):
        """A WRITE record whose checksum is neither a hole nor a signature
        key is input the receiver cannot apply."""
        dst = make_pool().create_dataset("ccvol", record_size=4096)
        stream = SendStream(
            "scvol",
            None,
            "v1",
            [SendRecord(RecordKind.WRITE, "f", checksum="b:00ff", lsize=4096, psize=512)],
        )
        with pytest.raises(SendStreamError, match="unknown checksum"):
            receive(dst, stream)
        assert not dst.has_snapshot("v1")

    def test_hole_records_apply(self):
        pool = make_pool()
        src = pool.create_dataset("scvol", record_size=4096)
        src.write_file_virtual(
            "cache-a", [(11, 4096, 512, False), (0, 4096, 0, True)]
        )
        src.snapshot("v1")
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        assert dst.file("cache-a").get_block(1).is_hole


class TestDeleteRecreate:
    """Regression: a file deleted and re-created under the same name between
    two snapshots must be replicated as unlink + fresh writes (found by the
    hypothesis replication property test)."""

    def test_recreated_file_replaces_stale_blocks(self):
        src_pool = make_pool()
        src = src_pool.create_dataset("s", record_size=4096)
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("d", record_size=4096)
        write(src, "f", 0, 1)
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        src.delete_file("f")
        write(src, "f", 1, 1)  # same content, different shape
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst.file("f").get_block(0).is_hole
        assert checksums(dst, "f") == [None, checksum(1)]
        # the new reference plus the old one @v1 still pins (deferred)
        assert dst_pool.ddt.lookup(checksum(1)).refcount == 2

    def test_trailing_holes_replicate(self):
        src_pool = make_pool()
        src = src_pool.create_dataset("s", record_size=4096)
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("d", record_size=4096)
        write(src, "f", 0, 2)
        src.file("f").set_block(3, src.file("f").get_block(3))  # grow w/ holes
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        assert dst.file("f").block_count() == src.file("f").block_count()
