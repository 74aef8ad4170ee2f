"""Snapshot file maps and replica clones against brute-force oracles.

Random op sequences on one dataset check every snapshot's ``files`` and
``file_created`` maps against a rebuild from the live head at snapshot
time, check that no later op (write, delete, truncate, snapshot destroy)
changes a retained snapshot's maps, and check ``generate_send`` between
any two retained snapshots against a reference walk over every file of
the target snapshot.

The clone tests split a pool with ``ZPool.clone()``, the way a
copy-on-write replica split does, mutate the clone, and check that the
original's DDT refcounts, space map, deadlists and scrub report did not
move; the contract test checks which objects a clone shares with its
original and which it copies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.zfs import ZPool, generate_send, receive, scrub
from repro.zfs.send import RecordKind, SendRecord, SendStream

from .zfs_blocks import write, write_file

NAMES = ("f0", "f1", "f2")


def make_pool() -> ZPool:
    return ZPool(capacity=256 << 20, arc_capacity=1 << 20)


def head_maps(ds):
    """The maps a snapshot of the live head must hold, rebuilt from scratch
    in the head's own file order."""
    names = list(ds._files)  # noqa: SLF001 - the oracle reads the head order
    files = {name: tuple(ds.file(name).blocks) for name in names}
    created = {name: ds.file(name).created_txg for name in names}
    return files, created


def reference_send(ds, to_name, from_name=None) -> list[SendRecord]:
    """Every file of the target snapshot, every block walked: the stream
    ZFS's birth-txg rule defines."""
    to_snap = ds.get_snapshot(to_name)
    from_txg, from_files = 0, {}
    if from_name is not None:
        from_snap = ds.get_snapshot(from_name)
        from_txg, from_files = from_snap.txg, from_snap.files
    records = [
        SendRecord(RecordKind.UNLINK, name)
        for name in sorted(from_files.keys() - to_snap.files.keys())
    ]
    for name in sorted(to_snap.files):
        blocks = to_snap.files[name]
        old = from_files.get(name)
        is_new = old is None or to_snap.file_created[name] > from_txg
        if old is not None and is_new:
            records.append(SendRecord(RecordKind.UNLINK, name))
        if is_new or len(blocks) != len(old):
            records.append(
                SendRecord(RecordKind.TRUNCATE, name, block_count=len(blocks))
            )
        for index, bp in enumerate(blocks):
            if bp.birth_txg <= from_txg:
                continue
            records.append(
                SendRecord(
                    RecordKind.WRITE,
                    name,
                    block_index=index,
                    checksum=bp.checksum,
                    lsize=bp.lsize,
                    psize=bp.psize,
                    compression=bp.compression,
                )
            )
    return records


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["create", "write", "vwrite", "wfile", "delete", "truncate",
             "snap", "destroy"]
        ),
        st.integers(0, len(NAMES) - 1),  # file / snapshot selector
        st.integers(0, 4),  # block index / block count
        st.integers(0, 7),  # content tag
    ),
    min_size=1,
    max_size=40,
)


class TestSnapshotMapOracle:
    @given(ops=OPS)
    @settings(max_examples=80, deadline=None)
    def test_maps_and_sends_match_brute_force(self, ops):
        pool = make_pool()
        ds = pool.create_dataset("d", record_size=4096)
        expected: dict[str, tuple[dict, dict]] = {}
        serial = 0

        def check_new(snap):
            files, created = head_maps(ds)
            assert snap.files == files
            assert list(snap.files) == list(files)
            assert snap.file_created == created
            assert list(snap.file_created) == list(created)
            expected[snap.name] = (files, created)

        for op, sel, index, tag in ops:
            name = NAMES[sel]
            if op == "create" and not ds.has_file(name):
                ds.create_file(name)
            elif op == "write":
                write(ds, name, index, tag + 1)
            elif op == "vwrite":
                ds.write_block_virtual(
                    name, index, signature=tag + 1, lsize=4096, psize=1024,
                    is_hole=tag == 0,
                )
            elif op == "wfile":
                ds.write_file_virtual(
                    name, [(tag * 8 + i + 1, 4096, 512, False) for i in range(index)]
                )
            elif op == "delete" and ds.has_file(name):
                ds.delete_file(name)
            elif op == "truncate" and ds.latest_snapshot() is not None:
                serial += 1
                stream = SendStream(
                    ds.name,
                    ds.latest_snapshot().name,
                    f"s{serial}",
                    [SendRecord(RecordKind.TRUNCATE, name, block_count=index)],
                )
                snap = receive(ds, stream)
                # receive applied the records, then snapshotted the head
                check_new(snap)
            elif op == "snap":
                serial += 1
                check_new(ds.snapshot(f"s{serial}"))
            elif op == "destroy" and ds.snapshots():
                snaps = ds.snapshots()
                victim = snaps[(sel * 5 + index) % len(snaps)].name
                ds.destroy_snapshot(victim)
                del expected[victim]
            for snap in ds.snapshots():
                files, created = expected[snap.name]
                assert snap.files == files, f"@{snap.name} files moved"
                assert snap.file_created == created, f"@{snap.name} created moved"

        retained = [snap.name for snap in ds.snapshots()]
        for j, to_name in enumerate(retained):
            assert generate_send(ds, to_name).records == reference_send(ds, to_name)
            for from_name in retained[:j]:
                got = generate_send(ds, to_name, from_snapshot=from_name)
                assert got.records == reference_send(ds, to_name, from_name)
        assert scrub(pool).clean


def pool_state(pool: ZPool) -> dict:
    """Everything a clone must not move in the pool it was copied from."""
    state = {
        "ddt": {e.checksum: e.refcount for e in pool.ddt},
        "domains": {
            name: {e.checksum: e.refcount for e in pool.domain_ddt(name)}
            for name in pool.domain_names()
        },
        "refs": [pool.ddt.total_references] + [
            pool.domain_ddt(name).total_references for name in pool.domain_names()
        ],
        "allocated": pool.space.allocated_bytes,
        "sizes": dict(pool.space._sizes),  # noqa: SLF001
        "txg": pool._txg,  # noqa: SLF001
        "arc": (
            pool.arc.tier_bytes(), pool.arc.p, pool.arc.stats.as_dict(),
            [list(tier) for tier in (pool.arc._t1, pool.arc._t2,  # noqa: SLF001
                                     pool.arc._b1, pool.arc._b2)],  # noqa: SLF001
        ),
        "datasets": {},
    }
    for name in pool.dataset_names():
        ds = pool.dataset(name)
        state["datasets"][name] = {
            "head_deadlist": list(ds._head_deadlist),  # noqa: SLF001
            "touched": sorted(ds._touched),  # noqa: SLF001
            "files": {n: tuple(ds.file(n).blocks) for n in ds.file_names()},
            "snapshots": [
                (s.name, s.txg, s.prev_txg, dict(s.files), list(s.deadlist),
                 dict(s.file_created))
                for s in ds.snapshots()
            ],
        }
    report = scrub(pool)
    state["scrub"] = (report.datasets, report.blocks_checked, tuple(report.errors))
    return state


def assert_index_consistent(ds) -> None:
    for snap in ds.snapshots():
        assert ds._snap_by_name[snap.name] is snap  # noqa: SLF001


class TestCloneIsolation:
    def test_clone_mutations_leave_the_original_untouched(self):
        sender = make_pool().create_dataset("scvol", record_size=4096)
        streams = []
        previous = None
        for version in range(1, 7):
            write_file(sender, f"cache-{version}", [version, version + 40])
            sender.write_file_virtual(
                f"virt-{version % 3}",
                [(version * 16 + i, 4096, 1024, False) for i in range(version % 3 + 1)],
            )
            if version % 2 == 0 and sender.has_file(f"cache-{version - 1}"):
                sender.delete_file(f"cache-{version - 1}")
            sender.snapshot(f"v{version}")
            streams.append(
                generate_send(sender, f"v{version}", from_snapshot=previous)
            )
            previous = f"v{version}"

        original = make_pool()
        replica = original.create_dataset("ccvol", record_size=4096)
        for stream in streams[:4]:
            receive(replica, stream)
        # a deferred kill on the head deadlist, too
        write(replica, "cache-3", 0, 99)
        before = pool_state(original)
        assert not before["scrub"][2]

        clone = original.clone()
        cloned = clone.dataset("ccvol")
        assert_index_consistent(cloned)
        assert pool_state(clone) == before

        # receive, GC (snapshot destroys + file deletes), more writes
        receive(cloned, streams[4])
        cloned.delete_file("cache-3")
        cloned.snapshot("local")
        cloned.destroy_snapshot("local")
        cloned.destroy_snapshot("v2")
        assert_index_consistent(cloned)
        cloned.destroy_snapshot("v1")
        assert_index_consistent(cloned)
        write(cloned, "cache-4", 1, 77)
        cloned.write_file_virtual("virt-1", [(999, 4096, 2048, False)])
        cloned.snapshot("v5-local")
        cloned.destroy_snapshot("v3")
        assert_index_consistent(cloned)
        for name in cloned.file_names():
            cloned.delete_file(name)
        for snap in [s.name for s in cloned.snapshots()]:
            cloned.destroy_snapshot(snap)
            assert_index_consistent(cloned)

        assert scrub(clone).clean
        assert clone.ddt.entry_count == 0
        assert pool_state(original) == before

    def test_clone_receives_the_next_increment_alone(self):
        sender = make_pool().create_dataset("scvol", record_size=4096)
        streams = []
        previous = None
        for version in range(1, 5):
            write_file(sender, f"cache-{version}", [version])
            if version == 3:
                sender.delete_file("cache-1")
            sender.snapshot(f"v{version}")
            streams.append(
                generate_send(sender, f"v{version}", from_snapshot=previous)
            )
            previous = f"v{version}"

        original = make_pool()
        replica = original.create_dataset("ccvol", record_size=4096)
        for stream in streams[:2]:
            receive(replica, stream)
        before = pool_state(original)

        clone = original.clone()
        cloned = clone.dataset("ccvol")
        for stream in streams[2:]:
            receive(cloned, stream)
        assert_index_consistent(cloned)
        cloned.destroy_snapshot("v1")
        cloned.destroy_snapshot("v3")
        assert_index_consistent(cloned)
        assert cloned.file_names() == ["cache-2", "cache-3", "cache-4"]
        assert scrub(clone).clean
        assert pool_state(original) == before
        # the original still accepts the same increments independently
        for stream in streams[2:]:
            receive(replica, stream)
        assert replica.file_names() == cloned.file_names()
        assert scrub(original).clean


def domain_pool() -> ZPool:
    """A pool with the global domain and two named dedup domains, each
    dataset holding two snapshots with deadlists, a deferred kill on its
    head deadlist and touched names; the ARC holds entries in T1 and T2."""
    pool = make_pool()
    datasets = [
        pool.create_dataset("ccvol", record_size=4096),
        pool.create_dataset("shard-a", record_size=4096, domain="a"),
        pool.create_dataset("shard-b", record_size=4096, domain="b"),
    ]
    for ds in datasets:
        write_file(ds, "img", [1, 2, 3])
        ds.snapshot("s1")
        write(ds, "img", 0, 4)  # kills a block s1 holds: deferred
        ds.snapshot("s2")
        write(ds, "img", 1, 5)
        write_file(ds, "fresh", [6])
        assert ds._head_deadlist  # noqa: SLF001
    pool.arc.put("hot", b"h", 100)
    pool.arc.get("hot")
    pool.arc.put("cold", b"c", 100)
    return pool


class TestPoolCloneContract:
    def test_clone_shares_what_no_op_mutates_and_copies_the_rest(self):
        original = domain_pool()
        clone = original.clone()
        assert vars(clone).keys() == vars(original).keys()
        assert pool_state(clone) == pool_state(original)

        # copied: the space map, every DDT and its entries, the pipelines
        assert clone.space is not original.space
        assert clone.space._sizes is not original.space._sizes  # noqa: SLF001
        for mine, theirs in [(clone.ddt, original.ddt)] + [
            (clone.domain_ddt(name), original.domain_ddt(name))
            for name in ("a", "b")
        ]:
            assert mine is not theirs
            assert list(mine) == list(theirs)
            assert all(a is not b for a, b in zip(mine, theirs))
        assert clone.domain_names() == ["a", "b"]
        for zio, ddt in [(clone.zio, clone.ddt)] + [
            (clone.domain_zio(name), clone.domain_ddt(name)) for name in ("a", "b")
        ]:
            assert zio.space is clone.space
            assert zio.ddt is ddt
        assert clone.dataset("ccvol").zio is clone.zio
        assert clone.dataset("shard-a").zio is clone.domain_zio("a")
        assert clone.dataset("shard-b").zio is clone.domain_zio("b")
        # copied: the ARC, its lists and stats
        assert clone.arc is not original.arc
        assert clone.arc.stats is not original.arc.stats
        assert "hot" in clone.arc and "cold" in clone.arc

        for name in original.dataset_names():
            ds, cloned = original.dataset(name), clone.dataset(name)
            assert cloned.pool is clone
            assert vars(cloned).keys() == vars(ds).keys()
            # shared: the frozen base maps, every snapshot's maps
            assert cloned._frozen_files is ds._frozen_files  # noqa: SLF001
            assert cloned._frozen_created is ds._frozen_created  # noqa: SLF001
            for mine, theirs in zip(cloned.snapshots(), ds.snapshots()):
                assert mine is not theirs
                assert mine.files is theirs.files
                assert mine.file_created is theirs.file_created
                # copied: deadlists, holding the same block pointers
                assert mine.deadlist is not theirs.deadlist
                assert all(a is b for a, b in zip(mine.deadlist, theirs.deadlist))
            assert_index_consistent(cloned)
            head, theirs = cloned._head_deadlist, ds._head_deadlist  # noqa: SLF001
            assert head is not theirs and head == theirs
            assert cloned._touched is not ds._touched  # noqa: SLF001
            # copied: file objects and block lists; shared: pointers, views
            for file_name in ds.file_names():
                mine, theirs = cloned.file(file_name), ds.file(file_name)
                assert mine is not theirs and mine.blocks is not theirs.blocks
                assert all(a is b for a, b in zip(mine.blocks, theirs.blocks))
                assert mine._view is theirs._view  # noqa: SLF001

    def test_writes_through_a_cloned_domain_leave_the_original(self):
        original = domain_pool()
        before = pool_state(original)
        domain_a = {e.checksum: e.refcount for e in original.domain_ddt("a")}
        sizes = dict(original.space._sizes)  # noqa: SLF001
        clone = original.clone()

        cloned = clone.dataset("shard-a")
        write(cloned, "img", 2, 1)  # a dedup hit in domain a
        write(cloned, "img", 3, 7)  # a new block
        write_file(cloned, "other", [2, 8])
        cloned.snapshot("s3")
        cloned.delete_file("fresh")
        cloned.destroy_snapshot("s1")
        cloned.destroy_snapshot("s2")
        clone.dataset("shard-b").delete_file("img")
        clone.dataset("ccvol").destroy_snapshot("s2")
        clone.arc.get("cold")
        clone.arc.put("new", b"n", 100)

        assert {e.checksum: e.refcount for e in clone.domain_ddt("a")} != domain_a
        assert {e.checksum: e.refcount for e in original.domain_ddt("a")} == domain_a
        assert original.space._sizes == sizes  # noqa: SLF001
        assert pool_state(original) == before
        assert scrub(clone).clean
        assert scrub(original).clean
