"""ZFS-like storage substrate: dedup, inline compression, snapshots, send/recv.

The pieces map onto their ZFS namesakes:

* :mod:`~repro.zfs.spa` — vdev space allocation,
* :mod:`~repro.zfs.ddt` — the dedup table and its disk/RAM footprint,
* :mod:`~repro.zfs.arc` — the adaptive replacement cache,
* :mod:`~repro.zfs.zio` — the dedup/allocation write pipeline,
* :mod:`~repro.zfs.dmu`/:mod:`~repro.zfs.dataset` — objects, datasets,
  snapshots with deadlist semantics,
* :mod:`~repro.zfs.send` — full/incremental replication streams,
* :mod:`~repro.zfs.pool` — the facade a node mounts.
"""

from .arc import AdaptiveReplacementCache, ArcStats
from .blockptr import HOLE, BlockPointer, virtual_checksum_key
from .dataset import Dataset, Snapshot
from .ddt import DDT_ENTRY_CORE_BYTES, DDT_ENTRY_DISK_BYTES, DDTEntry, DedupTable
from .dmu import FileObject
from .pool import ZPool
from .scrub import ScrubReport, scrub
from .send import RecordKind, SendRecord, SendStream, generate_send, receive
from .sharded import ShardedPool
from .spa import SECTOR_SIZE, SpaceMap
from .zio import WriteResult, ZioPipeline

__all__ = [
    "HOLE",
    "SECTOR_SIZE",
    "DDT_ENTRY_CORE_BYTES",
    "DDT_ENTRY_DISK_BYTES",
    "AdaptiveReplacementCache",
    "ArcStats",
    "BlockPointer",
    "DDTEntry",
    "Dataset",
    "DedupTable",
    "FileObject",
    "RecordKind",
    "ScrubReport",
    "SendRecord",
    "SendStream",
    "ShardedPool",
    "Snapshot",
    "SpaceMap",
    "WriteResult",
    "ZPool",
    "ZioPipeline",
    "scrub",
    "generate_send",
    "receive",
    "virtual_checksum_key",
]
