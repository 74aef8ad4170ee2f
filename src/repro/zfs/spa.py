"""Storage pool allocator (SPA) — vdev space management.

A deliberately simple but honest model: a single concatenated vdev with a
bump allocator and byte-accurate accounting. Offsets are handed out in write
order and never reused, which reproduces the on-disk behaviour the paper's
boot analysis depends on (Section 4.2.3): blocks written by *other* images
earlier sit between a file's logically adjacent blocks, so deduplicated reads
seek. Frees return capacity (accounting) without compacting.

All allocations are rounded up to the 512-byte sector, matching how ZFS
charges ``asize``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..common.errors import PoolFullError
from ..common.units import align_up

__all__ = ["SpaceMap", "SECTOR_SIZE"]

SECTOR_SIZE: int = 512


@dataclass
class SpaceMap:
    """Byte-accurate vdev space accounting with write-order placement."""

    capacity: int
    _cursor: int = 0
    _allocated: int = 0
    _freed: int = 0
    _allocation_count: int = 0
    #: live allocation sizes by DVA, for exact frees
    _sizes: dict[int, int] = field(default_factory=dict, repr=False)

    def allocate(self, psize: int) -> int:
        """Allocate ``psize`` bytes; returns the DVA (byte offset)."""
        if psize <= 0:
            raise ValueError(f"allocation size must be positive, got {psize}")
        asize = align_up(psize, SECTOR_SIZE)
        if self._allocated + asize > self.capacity:
            raise PoolFullError(
                f"pool full: {self._allocated}/{self.capacity} bytes allocated, "
                f"cannot place {asize}"
            )
        dva = self._cursor
        self._cursor += asize
        self._allocated += asize
        self._allocation_count += 1
        self._sizes[dva] = asize
        return dva

    def free(self, dva: int) -> int:
        """Free the allocation at ``dva``; returns the reclaimed byte count."""
        asize = self._sizes.pop(dva, None)
        if asize is None:
            raise PoolFullError(f"free of unknown DVA {dva}")
        self._allocated -= asize
        self._freed += asize
        return asize

    def copy(self) -> "SpaceMap":
        """A space map that allocates and frees apart from this one."""
        return replace(self, _sizes=dict(self._sizes))

    @property
    def allocated_bytes(self) -> int:
        """Currently allocated bytes (sector-aligned)."""
        return self._allocated

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._allocated

    @property
    def high_water_offset(self) -> int:
        """Largest offset ever written — the extent of on-disk spread."""
        return self._cursor

    @property
    def allocation_count(self) -> int:
        """Number of live allocations."""
        return len(self._sizes)

    @property
    def total_allocations(self) -> int:
        """Number of allocations ever made (live + freed)."""
        return self._allocation_count
