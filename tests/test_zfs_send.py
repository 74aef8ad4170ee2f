"""Send/receive stream tests: full, incremental, preconditions, fidelity."""

import pytest

from repro.common.errors import SendStreamError
from repro.zfs import ZPool, generate_send, receive
from repro.zfs.send import RecordKind


def make_pool():
    return ZPool(capacity=256 << 20, arc_capacity=1 << 20)


def block(tag: int, size: int = 4096) -> bytes:
    seed = tag.to_bytes(4, "little") * 16
    return (seed * (size // len(seed) + 1))[:size]


@pytest.fixture
def sender():
    pool = make_pool()
    ds = pool.create_dataset("scvol", record_size=4096)
    ds.write_file("cache-a", block(1) + block(2))
    ds.snapshot("v1")
    return pool, ds


class TestFullSend:
    def test_full_round_trip(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        stream = generate_send(src, "v1")
        receive(dst, stream)
        assert dst.read_file("cache-a") == block(1) + block(2)
        assert dst.has_snapshot("v1")

    def test_full_into_nonempty_rejected(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        dst.write_block("junk", 0, block(9))
        with pytest.raises(SendStreamError, match="non-empty"):
            receive(dst, generate_send(src, "v1"))

    def test_stream_size_reflects_psize_not_lsize(self, sender):
        _, src = sender
        stream = generate_send(src, "v1")
        assert 0 < stream.size_bytes < stream.logical_bytes


class TestIncrementalSend:
    def test_incremental_carries_only_new_blocks(self, sender):
        _, src = sender
        src.write_file("cache-b", block(3))
        src.snapshot("v2")
        stream = generate_send(src, "v2", from_snapshot="v1")
        writes = [r for r in stream.records if r.kind is RecordKind.WRITE]
        assert {r.file_name for r in writes} == {"cache-b"}

    def test_incremental_round_trip(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        src.write_file("cache-b", block(3))
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst.read_file("cache-b") == block(3)
        assert dst.read_file("cache-a") == block(1) + block(2)
        assert dst.latest_snapshot().name == "v2"

    def test_incremental_needs_matching_source(self, sender):
        _, src = sender
        src.write_file("cache-b", block(3))
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
        src.write_file("cache-b", block(3))
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert not dst.has_file("cache-a")

    def test_overwrite_propagates(self, sender):
        _, src = sender
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("ccvol", record_size=4096)
        receive(dst, generate_send(src, "v1"))
        src.write_block("cache-a", 0, block(7))
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst.read_file("cache-a") == block(7) + block(2)

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

    def test_payload_travels_exactly_when_the_pool_stores_one(self):
        """Materialised blocks carry their bytes, virtual ones (even plain,
        non-dedup ones) travel payload-free."""
        pool = make_pool()
        src = pool.create_dataset("scvol", record_size=4096, dedup=False)
        src.write_file("real", block(1))
        src.write_file_virtual("virtual", [(11, 4096, 512, False)])
        src.snapshot("v1")
        writes = {
            record.file_name: record
            for record in generate_send(src, "v1").records
            if record.kind is RecordKind.WRITE
        }
        assert writes["real"].payload == block(1)
        assert writes["virtual"].payload is None

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
        src.write_block("f", 0, block(1))
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        src.delete_file("f")
        src.write_block("f", 1, block(1))  # same content, different shape
        src.snapshot("v2")
        receive(dst, generate_send(src, "v2", from_snapshot="v1"))
        assert dst.file("f").get_block(0).is_hole
        assert not dst.file("f").get_block(1).is_hole
        assert dst.read_file("f") == bytes(4096) + block(1)

    def test_trailing_holes_replicate(self):
        src_pool = make_pool()
        src = src_pool.create_dataset("s", record_size=4096)
        dst_pool = make_pool()
        dst = dst_pool.create_dataset("d", record_size=4096)
        src.write_block("f", 0, block(2))
        src.file("f").set_block(3, src.file("f").get_block(3))  # grow w/ holes
        src.snapshot("v1")
        receive(dst, generate_send(src, "v1"))
        assert dst.file("f").block_count() == src.file("f").block_count()
