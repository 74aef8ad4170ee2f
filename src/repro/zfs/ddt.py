"""The dedup table (DDT).

ZFS's DDT maps block checksums to ``(DVA, refcount)`` entries. It lives on
disk (a ZAP object, itself allocated from the pool — the overhead the paper
measures in Figure 9) and is cached in core (the memory the paper measures in
Figure 10 and extrapolates in Figure 17).

Per-entry footprints are simulator constants calibrated against the paper's
measurements (see the constants' docstrings); the *counts* of entries are
exact, driven by the write pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..common.errors import StorageError

__all__ = ["DedupTable", "DDTEntry", "DDT_ENTRY_DISK_BYTES", "DDT_ENTRY_CORE_BYTES"]

#: On-disk bytes per DDT entry. A ZFS ZAP leaf entry for a dedup record holds
#: the 256-bit checksum, up to three DVAs, sizes, refcount and ZAP chunk
#: headers. Calibrated so that the unique-block counts of the paper's image
#: dataset land near Figure 9 (~12 GB of DDT for ~1.3e8 unique 4 KB blocks).
DDT_ENTRY_DISK_BYTES: int = 90

#: In-core bytes per DDT entry actually charged against node memory.
#: ZFS's ``ddt_entry_t`` is larger (~320 B), but only the compact ARC-cached
#: ZAP representation stays resident; calibrated against Figures 10/17
#: (~60 MB for the cache dataset's unique 64 KB blocks).
DDT_ENTRY_CORE_BYTES: int = 64

#: Fixed in-core overhead of the DDT object itself (hash-table scaffolding).
#: Kept tiny: experiment reporting multiplies pool metrics by 1/scale, and a
#: large fixed term would be inflated with them (only the per-entry part
#: genuinely grows with the dataset).
DDT_FIXED_CORE_BYTES: int = 64 << 10


@dataclass(slots=True)
class DDTEntry:
    """One dedup-table record."""

    checksum: str
    psize: int  #: physical size of the stored block
    lsize: int  #: logical size of the stored block
    refcount: int
    dva: int  #: device virtual address (byte offset) of the single copy
    birth_txg: int  #: physical birth: txg in which the copy was allocated


@dataclass
class DedupTable:
    """Checksum → entry map with ZFS-like space accounting."""

    _entries: dict[str, DDTEntry] = field(default_factory=dict)
    #: running tallies so accounting is O(1)
    _total_refs: int = 0

    def lookup(self, checksum: str) -> DDTEntry | None:
        """Return the entry for ``checksum`` or None."""
        return self._entries.get(checksum)

    def insert(self, checksum: str, *, psize: int, lsize: int, dva: int, txg: int) -> DDTEntry:
        """Insert a brand-new entry with refcount 1."""
        if checksum in self._entries:
            raise StorageError(f"DDT entry {checksum} already exists; use add_ref")
        entry = DDTEntry(
            checksum=checksum, psize=psize, lsize=lsize, refcount=1, dva=dva, birth_txg=txg
        )
        self._entries[checksum] = entry
        self._total_refs += 1
        return entry

    def add_ref(self, checksum: str) -> DDTEntry:
        """Bump the refcount of an existing entry (a dedup hit)."""
        entry = self._entries.get(checksum)
        if entry is None:
            raise StorageError(f"DDT add_ref on missing entry {checksum}")
        entry.refcount += 1
        self._total_refs += 1
        return entry

    def remove_ref(self, checksum: str) -> DDTEntry | None:
        """Drop one reference; returns the dead entry when refcount hits zero.

        The caller (the pool) frees the entry's DVA when an entry dies.
        """
        entry = self._entries.get(checksum)
        if entry is None:
            raise StorageError(f"DDT remove_ref on missing entry {checksum}")
        entry.refcount -= 1
        self._total_refs -= 1
        if entry.refcount == 0:
            del self._entries[checksum]
            return entry
        return None

    def copy(self) -> "DedupTable":
        """A table whose refcounts change apart from this one's."""
        return DedupTable(
            {
                key: DDTEntry(
                    e.checksum, e.psize, e.lsize, e.refcount, e.dva, e.birth_txg
                )
                for key, e in self._entries.items()
            },
            self._total_refs,
        )

    # -- accounting ---------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Number of live (refcount > 0) entries."""
        return len(self._entries)

    @property
    def total_references(self) -> int:
        """Sum of refcounts over all entries (== live block pointers)."""
        return self._total_refs

    @property
    def on_disk_bytes(self) -> int:
        """Pool space consumed by the DDT ZAP object (Figure 9's metric)."""
        return self.entry_count * DDT_ENTRY_DISK_BYTES

    @property
    def in_core_bytes(self) -> int:
        """Main memory consumed by the resident DDT (Figure 10's metric)."""
        if not self._entries:
            return 0
        return DDT_FIXED_CORE_BYTES + self.entry_count * DDT_ENTRY_CORE_BYTES

    @property
    def referenced_psize(self) -> int:
        """Physical bytes as seen by referencing datasets (before dedup)."""
        return sum(e.psize * e.refcount for e in self._entries.values())

    @property
    def allocated_psize(self) -> int:
        """Physical bytes actually stored (after dedup)."""
        return sum(e.psize for e in self._entries.values())

    def dedup_ratio(self) -> float:
        """``referenced / allocated`` — what ``zpool list`` reports as DEDUP."""
        allocated = self.allocated_psize
        if allocated == 0:
            return 1.0
        return self.referenced_psize / allocated

    def __iter__(self) -> Iterator[DDTEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
