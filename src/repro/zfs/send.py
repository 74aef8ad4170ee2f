"""ZFS send/receive — full and incremental snapshot replication streams.

Squirrel propagates new VMI caches by generating the diff between the newest
scVolume snapshot and the previous one (``zfs send -i prev snap``) and
multicasting it to every compute node (paper Section 3.2/3.5). This module
produces those streams and applies them.

A stream is a list of records:

* ``WRITE``    — one block of one file: carries the block pointer identity
  (checksum, lsize, psize). Blocks travel as signature + sizes; the
  receiver's pool re-runs the same dedup bookkeeping.
* ``TRUNCATE`` — a file shrank (or was created fresh): gives new block count.
* ``UNLINK``   — a file disappeared between the two snapshots.

Stream ``size_bytes`` models ``zfs send -c`` (compressed send): psize per
written block plus a fixed per-record header, which is what travels the wire
in the propagation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..common.errors import SendStreamError
from .blockptr import BlockPointer
from .dataset import Dataset, Snapshot

__all__ = ["RecordKind", "SendRecord", "SendStream", "generate_send", "receive"]

#: per-record wire overhead (drr header in real ZFS is 312 bytes; diffs here
#: are dominated by block data, so a compact fixed header is used)
RECORD_HEADER_BYTES = 48


class RecordKind(Enum):
    """Kind of one send-stream record."""

    WRITE = "write"
    TRUNCATE = "truncate"
    UNLINK = "unlink"


@dataclass(frozen=True)
class SendRecord:
    kind: RecordKind
    file_name: str
    block_index: int = 0
    checksum: str | None = None
    lsize: int = 0
    psize: int = 0
    compression: str = "off"
    block_count: int = 0  #: for TRUNCATE

    @property
    def wire_bytes(self) -> int:
        if self.kind is RecordKind.WRITE:
            return RECORD_HEADER_BYTES + self.psize
        return RECORD_HEADER_BYTES


@dataclass
class SendStream:
    """A replication stream between two snapshots of one dataset."""

    dataset_name: str
    from_snapshot: str | None  #: None for a full send
    to_snapshot: str
    records: list[SendRecord] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        """Bytes on the wire (compressed send)."""
        return sum(record.wire_bytes for record in self.records)

    @property
    def logical_bytes(self) -> int:
        """Uncompressed bytes represented by the stream's writes."""
        return sum(
            record.lsize for record in self.records if record.kind is RecordKind.WRITE
        )

    def write_count(self) -> int:
        return sum(1 for r in self.records if r.kind is RecordKind.WRITE)


def _snapshot_or_error(dataset: Dataset, name: str) -> Snapshot:
    return dataset.get_snapshot(name)


def generate_send(
    dataset: Dataset,
    to_snapshot: str,
    *,
    from_snapshot: str | None = None,
) -> SendStream:
    """Build a (full or incremental) send stream.

    An incremental stream contains every block of ``to_snapshot`` whose birth
    txg is newer than ``from_snapshot``'s txg — exactly ZFS's rule — plus
    unlink/truncate records for namespace changes.
    """
    to_snap = _snapshot_or_error(dataset, to_snapshot)
    if from_snapshot is None:
        from_txg = 0
        from_files: dict[str, tuple[BlockPointer, ...]] = {}
    else:
        from_snap = _snapshot_or_error(dataset, from_snapshot)
        if from_snap.txg >= to_snap.txg:
            raise SendStreamError(
                f"incremental source @{from_snapshot} is not older than @{to_snapshot}"
            )
        from_txg = from_snap.txg
        from_files = from_snap.files

    stream = SendStream(
        dataset_name=dataset.name,
        from_snapshot=from_snapshot,
        to_snapshot=to_snapshot,
    )
    for file_name in sorted(from_files.keys() - to_snap.files.keys()):
        stream.records.append(SendRecord(RecordKind.UNLINK, file_name))
    created = to_snap.file_created
    # a file whose frozen view is shared by both snapshots, and which was
    # not re-created between them, has no block born after the source:
    # skip it before any per-block walk
    changed = [
        name
        for name, blocks in to_snap.files.items()
        if from_files.get(name) is not blocks or created[name] > from_txg
    ]
    for file_name in sorted(changed):
        blocks = to_snap.files[file_name]
        old_blocks = from_files.get(file_name)
        # a file created after the source snapshot is brand new even when a
        # same-named file existed before (delete + re-create between the two
        # snapshots): the replica must drop the old object first
        is_new_file = old_blocks is None or created[file_name] > from_txg
        if old_blocks is not None and is_new_file:
            stream.records.append(SendRecord(RecordKind.UNLINK, file_name))
        if is_new_file or len(blocks) != len(old_blocks):
            stream.records.append(
                SendRecord(
                    RecordKind.TRUNCATE, file_name, block_count=len(blocks)
                )
            )
        for index, bp in enumerate(blocks):
            if bp.birth_txg <= from_txg:
                continue
            if bp.is_hole:
                # a hole newer than from_txg means the range was zeroed
                stream.records.append(
                    SendRecord(
                        RecordKind.WRITE,
                        file_name,
                        block_index=index,
                        checksum=None,
                        lsize=bp.lsize,
                        psize=0,
                        compression=bp.compression,
                    )
                )
                continue
            stream.records.append(
                SendRecord(
                    RecordKind.WRITE,
                    file_name,
                    block_index=index,
                    checksum=bp.checksum,
                    lsize=bp.lsize,
                    psize=bp.psize,
                    compression=bp.compression,
                )
            )
    return stream


def receive(dataset: Dataset, stream: SendStream) -> Snapshot:
    """Apply a stream to ``dataset`` and create the target snapshot.

    Enforces ZFS's receive preconditions: a full stream requires an empty
    dataset with no snapshots; an incremental stream requires the receiver's
    newest snapshot to be the stream's source.
    """
    if dataset.has_snapshot(stream.to_snapshot):
        raise SendStreamError(
            f"target snapshot @{stream.to_snapshot} already exists on {dataset.name}"
        )
    if stream.from_snapshot is None:
        if dataset.file_names() or dataset.snapshots():
            raise SendStreamError(
                f"full receive into non-empty dataset {dataset.name}"
            )
    else:
        latest = dataset.latest_snapshot()
        if latest is None or latest.name != stream.from_snapshot:
            have = latest.name if latest else "none"
            raise SendStreamError(
                f"incremental receive needs snapshot @{stream.from_snapshot}; "
                f"receiver has @{have}"
            )
    for record in stream.records:
        _apply_record(dataset, record)
    return dataset.snapshot(stream.to_snapshot)


def _apply_record(dataset: Dataset, record: SendRecord) -> None:
    if record.kind is RecordKind.UNLINK:
        if dataset.has_file(record.file_name):
            dataset.delete_file(record.file_name)
        return
    if record.kind is RecordKind.TRUNCATE:
        dataset.truncate_file(record.file_name, record.block_count)
        return
    # WRITE
    if record.checksum is None:
        dataset.write_block_virtual(
            record.file_name,
            record.block_index,
            signature=0,
            lsize=record.lsize,
            psize=0,
            is_hole=True,
        )
    elif record.checksum.startswith("v:"):
        signature = int(record.checksum[2:], 16)
        dataset.write_block_virtual(
            record.file_name,
            record.block_index,
            signature=signature,
            lsize=record.lsize,
            psize=record.psize,
        )
    else:
        raise SendStreamError(
            f"record for {record.file_name}#{record.block_index} has "
            f"unknown checksum {record.checksum!r}"
        )
