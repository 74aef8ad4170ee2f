"""The ZIO pipeline: dedup → allocate on write, release on free.

Blocks arrive as accounting-scale procedural content: the caller supplies
the 64-bit grain signature and a (calibrated-estimator) physical size, and
the pipeline performs ZFS's dedup and allocation bookkeeping without
touching bytes. Storing hundreds of scaled images this way keeps runtime
proportional to block count, not to the bytes the images would hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import StorageError
from .blockptr import BlockPointer, virtual_checksum_key
from .ddt import DedupTable
from .spa import SpaceMap

__all__ = ["ZioPipeline", "WriteResult"]


@dataclass(frozen=True, slots=True)
class WriteResult:
    """Outcome of one block write."""

    bp: BlockPointer
    deduped: bool  #: True when the write hit an existing DDT entry
    allocated: int  #: bytes newly allocated (0 on dedup hit or hole)


class ZioPipeline:
    """Shared write/free machinery for one dedup domain of a pool."""

    def __init__(self, space: SpaceMap, dedup_table: DedupTable) -> None:
        self.space = space
        self.ddt = dedup_table

    # -- write path ---------------------------------------------------------

    def write_virtual(
        self,
        signature: int,
        *,
        lsize: int,
        psize: int,
        txg: int,
        compression: str,
        is_hole: bool = False,
    ) -> WriteResult:
        """Write one procedural block described by its grain signature."""
        if is_hole or psize == 0:
            return WriteResult(
                BlockPointer(None, lsize, 0, txg, compression), deduped=False, allocated=0
            )
        if psize < 0 or psize > lsize:
            raise StorageError(f"virtual psize {psize} outside (0, lsize={lsize}]")
        checksum = virtual_checksum_key(signature)
        entry = self.ddt.lookup(checksum)
        if entry is not None:
            self.ddt.add_ref(checksum)
            bp = BlockPointer(checksum, lsize, entry.psize, txg, compression)
            return WriteResult(bp, deduped=True, allocated=0)
        dva = self.space.allocate(psize)
        self.ddt.insert(checksum, psize=psize, lsize=lsize, dva=dva, txg=txg)
        bp = BlockPointer(checksum, lsize, psize, txg, compression)
        return WriteResult(bp, deduped=False, allocated=psize)

    # -- free path ----------------------------------------------------------

    def release(self, bp: BlockPointer) -> int:
        """Drop one reference to ``bp``; returns bytes freed (0 if still shared)."""
        if bp.is_hole:
            return 0
        dead = self.ddt.remove_ref(bp.checksum)
        if dead is None:
            return 0
        return self.space.free(dead.dva)

    # -- read path ----------------------------------------------------------

    def dva_of(self, bp: BlockPointer) -> int:
        """On-disk location of ``bp``'s single stored copy (for seek modelling)."""
        if bp.is_hole:
            raise StorageError("holes have no DVA")
        entry = self.ddt.lookup(bp.checksum)
        if entry is None:
            raise StorageError(f"dangling block pointer {bp.checksum}")
        return entry.dva
