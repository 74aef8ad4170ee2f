"""Datasets and snapshots with ZFS deadlist semantics.

A :class:`Dataset` owns a namespace of files and an ordered chain of
read-only :class:`Snapshot` versions. Space shared with snapshots is managed
exactly the way ZFS does it — not by bumping refcounts at snapshot creation
(which would make snapshots O(data)), but with *deadlists*:

* killing a block (overwrite/delete) releases it immediately **unless** its
  birth txg predates the newest snapshot, in which case the kill is recorded
  on the head's deadlist;
* creating a snapshot freezes the head deadlist into the snapshot and starts
  a new one;
* destroying snapshot S frees the blocks of the *next* deadlist that were
  born after S's previous snapshot (only S pinned them), then inherits S's
  deadlist.

Snapshot file maps are frozen: once published, a snapshot's ``files`` and
``file_created`` dicts are never mutated, so snapshots, send streams and
pool clones share them. The dataset keeps the maps its last
:meth:`Dataset.snapshot` froze plus the names touched since (created,
written, deleted or truncated); the next snapshot copies those maps and
refreshes only the touched names, so it costs what changed, not the
namespace.

``tests/test_zfs_dataset.py`` checks this machinery against a brute-force
reachability oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from ..common.errors import ObjectNotFoundError, SnapshotError, StorageError
from ..common.units import validate_block_size
from .blockptr import BlockPointer
from .dmu import FileObject

if TYPE_CHECKING:  # pragma: no cover
    from .pool import ZPool

__all__ = ["Dataset", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """A read-only dataset version."""

    name: str
    txg: int
    prev_txg: int  #: txg of the previous snapshot in the chain (0 if oldest)
    files: dict[str, tuple[BlockPointer, ...]]
    deadlist: list[BlockPointer]
    #: per-file creation txg (see FileObject.created_txg)
    file_created: dict[str, int] = field(default_factory=dict)

    def referenced_psize(self) -> int:
        """Physical bytes referenced by this snapshot (before dedup)."""
        return sum(bp.psize for blocks in self.files.values() for bp in blocks)


class Dataset:
    """A mounted filesystem/volume inside a pool."""

    def __init__(
        self,
        pool: "ZPool",
        name: str,
        *,
        record_size: int,
        compression: str = "gzip6",
        zio=None,
    ) -> None:
        validate_block_size(record_size, grain=512)
        self.pool = pool
        self.name = name
        self.record_size = record_size
        self.compression = compression
        #: the I/O pipeline this dataset writes through. Defaults to the
        #: pool's global pipeline (one shared dedup domain); a sharded pool
        #: hands each shard dataset the pipeline of its own dedup domain.
        self.zio = zio if zio is not None else pool.zio
        self._files: dict[str, FileObject] = {}
        self._snapshots: list[Snapshot] = []  # oldest -> newest
        self._snap_by_name: dict[str, Snapshot] = {}
        self._head_deadlist: list[BlockPointer] = []
        #: the maps the last snapshot() froze, and the names touched since
        self._frozen_files: dict[str, tuple[BlockPointer, ...]] = {}
        self._frozen_created: dict[str, int] = {}
        self._touched: set[str] = set()

    def copy_into(self, pool: "ZPool", zio) -> "Dataset":
        """This dataset's copy in ``pool``, writing through ``zio`` (see
        :meth:`ZPool.clone` for what the two share)."""
        clone = Dataset(
            pool, self.name, record_size=self.record_size,
            compression=self.compression, zio=zio,
        )
        clone._files = {name: obj.copy() for name, obj in self._files.items()}
        clone._snapshots = [
            Snapshot(
                snap.name, snap.txg, snap.prev_txg, snap.files,
                list(snap.deadlist), snap.file_created,
            )
            for snap in self._snapshots
        ]
        clone._snap_by_name = {snap.name: snap for snap in clone._snapshots}
        clone._head_deadlist = list(self._head_deadlist)
        clone._frozen_files = self._frozen_files
        clone._frozen_created = self._frozen_created
        clone._touched = set(self._touched)
        return clone

    # -- file I/O ------------------------------------------------------------

    def create_file(self, name: str) -> FileObject:
        """Create an empty file; overwriting an existing name is an error."""
        if name in self._files:
            raise StorageError(f"file {name!r} already exists in {self.name}")
        obj = FileObject(
            name=name,
            record_size=self.record_size,
            created_txg=self.pool.advance_txg(),
        )
        self._files[name] = obj
        self._touched.add(name)
        return obj

    def file(self, name: str) -> FileObject:
        obj = self._files.get(name)
        if obj is None:
            raise ObjectNotFoundError(f"no file {name!r} in dataset {self.name}")
        return obj

    def has_file(self, name: str) -> bool:
        return name in self._files

    def file_names(self) -> list[str]:
        return sorted(self._files)

    def write_block_virtual(
        self,
        file_name: str,
        index: int,
        *,
        signature: int,
        lsize: int,
        psize: int,
        is_hole: bool = False,
    ) -> BlockPointer:
        """Write one record of procedural content (accounting path)."""
        obj = self._files.get(file_name) or self.create_file(file_name)
        txg = self.pool.advance_txg()
        result = self.zio.write_virtual(
            signature,
            lsize=lsize,
            psize=psize,
            txg=txg,
            compression=self.compression,
            is_hole=is_hole,
        )
        old = obj.set_block(index, result.bp)
        self._touched.add(file_name)
        self._kill(old)
        return result.bp

    def write_file_virtual(
        self,
        file_name: str,
        blocks: Iterable[tuple[int, int, int, bool]],
    ) -> FileObject:
        """Write a whole procedural file.

        ``blocks`` yields ``(signature, lsize, psize, is_hole)`` per record in
        order. One txg covers the whole file write (a single sync pass), which
        keeps snapshot diffs file-granular the way ``zfs send`` sees them.
        """
        if file_name in self._files:
            self.delete_file(file_name)
        obj = self.create_file(file_name)
        txg = self.pool.advance_txg()
        for index, (signature, lsize, psize, is_hole) in enumerate(blocks):
            result = self.zio.write_virtual(
                signature,
                lsize=lsize,
                psize=psize,
                txg=txg,
                compression=self.compression,
                is_hole=is_hole,
            )
            obj.set_block(index, result.bp)
        return obj

    def delete_file(self, file_name: str) -> None:
        obj = self.file(file_name)
        for bp in obj.blocks:
            self._kill(bp)
        del self._files[file_name]
        self._touched.add(file_name)

    def truncate_file(self, file_name: str, block_count: int) -> None:
        """Resize a file (creating it when absent) to ``block_count``
        records; the dropped tail is killed against the deadlists."""
        obj = self._files.get(file_name) or self.create_file(file_name)
        for bp in obj.truncate(block_count):
            self._kill(bp)
        self._touched.add(file_name)

    def destroy(self) -> None:
        """Destroy the dataset: all snapshots (oldest first), then all files."""
        for snap in [s.name for s in self._snapshots]:
            self.destroy_snapshot(snap)
        for name in list(self._files):
            self.delete_file(name)

    # -- space accounting ----------------------------------------------------

    @property
    def referenced_psize(self) -> int:
        """Physical bytes referenced by the live head (before dedup)."""
        return sum(obj.referenced_psize for obj in self._files.values())

    @property
    def logical_size(self) -> int:
        return sum(obj.logical_size for obj in self._files.values())

    @property
    def nonzero_lsize(self) -> int:
        return sum(obj.nonzero_lsize for obj in self._files.values())

    # -- snapshots -----------------------------------------------------------

    def snapshot(self, snap_name: str) -> Snapshot:
        """Freeze the current head as ``dataset@snap_name``."""
        if snap_name in self._snap_by_name:
            raise SnapshotError(f"snapshot {self.name}@{snap_name} already exists")
        txg = self.pool.advance_txg()
        prev_txg = self._snapshots[-1].txg if self._snapshots else 0
        files, created = self._refresh_frozen()
        snap = Snapshot(
            name=snap_name,
            txg=txg,
            prev_txg=prev_txg,
            files=files,
            deadlist=self._head_deadlist,
            file_created=created,
        )
        self._head_deadlist = []
        self._snapshots.append(snap)
        self._snap_by_name[snap_name] = snap
        return snap

    def get_snapshot(self, snap_name: str) -> Snapshot:
        snap = self._snap_by_name.get(snap_name)
        if snap is None:
            raise ObjectNotFoundError(f"no snapshot {self.name}@{snap_name}")
        return snap

    def has_snapshot(self, snap_name: str) -> bool:
        return snap_name in self._snap_by_name

    def snapshots(self) -> list[Snapshot]:
        """Snapshots oldest → newest."""
        return list(self._snapshots)

    def latest_snapshot(self) -> Snapshot | None:
        return self._snapshots[-1] if self._snapshots else None

    def destroy_snapshot(self, snap_name: str) -> int:
        """Destroy one snapshot; returns physical bytes released."""
        position = next(
            (i for i, s in enumerate(self._snapshots) if s.name == snap_name), None
        )
        if position is None:
            raise ObjectNotFoundError(f"no snapshot {self.name}@{snap_name}")
        snap = self._snapshots.pop(position)
        del self._snap_by_name[snap_name]
        next_deadlist = (
            self._snapshots[position].deadlist
            if position < len(self._snapshots)
            else self._head_deadlist
        )
        released = 0
        survivors: list[BlockPointer] = []
        for bp in next_deadlist:
            if bp.birth_txg > snap.prev_txg:
                released += self.zio.release(bp)
            else:
                survivors.append(bp)
        survivors.extend(snap.deadlist)
        if position < len(self._snapshots):
            successor = self._snapshots[position]
            successor.deadlist[:] = survivors
            # the successor's previous snapshot is now S's previous
            self._snapshots[position] = Snapshot(
                name=successor.name,
                txg=successor.txg,
                prev_txg=snap.prev_txg,
                files=successor.files,
                deadlist=successor.deadlist,
                file_created=successor.file_created,
            )
            self._snap_by_name[successor.name] = self._snapshots[position]
        else:
            self._head_deadlist = survivors
        return released

    # -- internals -----------------------------------------------------------

    def _refresh_frozen(self) -> tuple[dict, dict]:
        """Freeze the head: copy the last frozen maps and refresh only the
        names touched since. The new maps keep the head's key order — kept
        files in place, new objects appended by creation txg, which is the
        order they entered the head. With nothing touched, the last maps
        are shared as they are."""
        if not self._touched:
            return self._frozen_files, self._frozen_created
        files = dict(self._frozen_files)
        created = dict(self._frozen_created)
        fresh: list[FileObject] = []
        for name in self._touched:
            obj = self._files.get(name)
            if obj is not None and created.get(name) == obj.created_txg:
                files[name] = obj.snapshot_view()
                continue
            if name in files:
                del files[name]
                del created[name]
            if obj is not None:
                fresh.append(obj)
        for obj in sorted(fresh, key=lambda o: o.created_txg):
            files[obj.name] = obj.snapshot_view()
            created[obj.name] = obj.created_txg
        self._touched = set()
        self._frozen_files, self._frozen_created = files, created
        return files, created

    def _kill(self, bp: BlockPointer) -> None:
        """A live reference went away: release now or defer to the deadlist."""
        if bp.is_hole:
            return
        latest = self.latest_snapshot()
        if latest is None or bp.birth_txg > latest.txg:
            self.zio.release(bp)
        else:
            self._head_deadlist.append(bp)

    def iter_live_blocks(self) -> Iterator[BlockPointer]:
        for obj in self._files.values():
            yield from obj.blocks

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Dataset {self.name} rs={self.record_size} files={len(self._files)} "
            f"snaps={len(self._snapshots)}>"
        )
