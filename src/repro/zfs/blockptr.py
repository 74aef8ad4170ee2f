"""Block pointers — the unit of reference in the ZFS substrate.

A :class:`BlockPointer` describes one logical block of one object version:
its checksum (the dedup key), logical and physical sizes, compression, and
*logical birth transaction group* (the txg in which this reference was
written). Holes (unwritten / all-zero ranges) are block pointers too, with no
checksum and zero physical size — exactly how ZFS represents sparse files.

Checksums are opaque strings of the form ``"v:<u64>"``: the folded grain
signature of a procedural (virtual) block, as hex.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BlockPointer", "HOLE", "virtual_checksum_key"]


def virtual_checksum_key(signature: int) -> str:
    """Checksum key for a procedural (grain-signature) block."""
    return f"v:{signature:016x}"


@dataclass(frozen=True, slots=True)
class BlockPointer:
    """An immutable reference to one block (or hole)."""

    checksum: str | None  #: dedup key; None for holes
    lsize: int  #: logical (uncompressed) size in bytes
    psize: int  #: physical (allocated) size in bytes; 0 for holes
    birth_txg: int  #: logical birth: txg in which this reference was written
    compression: str = "off"  #: codec name used to produce psize

    @property
    def is_hole(self) -> bool:
        """True for unwritten/all-zero ranges: no storage is allocated."""
        return self.checksum is None

    def with_birth(self, txg: int) -> "BlockPointer":
        """Copy of this pointer reborn in ``txg`` (used by send-stream receive)."""
        return BlockPointer(self.checksum, self.lsize, self.psize, txg, self.compression)


#: Canonical zero-length hole pointer (ranges never written).
HOLE = BlockPointer(checksum=None, lsize=0, psize=0, birth_txg=0)
