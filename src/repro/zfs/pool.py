"""The ZPool facade — what a node mounts.

Owns the space map, the dedup table, the ARC, and the dataset namespace;
hands out transaction groups. The resource metrics the paper reports per
node are properties here:

* ``disk_used_bytes``  — data after dedup+compression **plus** the on-disk
  DDT (the overhead measured in Figure 9);
* ``memory_used_bytes`` — resident DDT plus ARC bytes (Figure 10's metric).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ObjectNotFoundError, StorageError
from ..common.units import GiB, SQUIRREL_BLOCK_SIZE
from .arc import AdaptiveReplacementCache
from .dataset import Dataset
from .ddt import DedupTable
from .spa import SpaceMap
from .zio import ZioPipeline

__all__ = ["ZPool", "PoolStats"]


@dataclass(frozen=True)
class PoolStats:
    """Point-in-time resource snapshot of a pool."""

    data_bytes: int  #: allocated block data (after dedup + compression)
    ddt_disk_bytes: int
    ddt_core_bytes: int
    arc_bytes: int
    ddt_entries: int

    @property
    def disk_used_bytes(self) -> int:
        return self.data_bytes + self.ddt_disk_bytes

    @property
    def memory_used_bytes(self) -> int:
        return self.ddt_core_bytes + self.arc_bytes


class ZPool:
    """One storage pool (one per node in Squirrel deployments)."""

    def __init__(
        self,
        name: str = "tank",
        *,
        capacity: int = 1024 * GiB,
        arc_capacity: int = 1 * GiB,
    ) -> None:
        self.name = name
        self.space = SpaceMap(capacity=capacity)
        self.ddt = DedupTable()
        self.arc: AdaptiveReplacementCache[str, bytes] = AdaptiveReplacementCache(
            arc_capacity
        )
        self.zio = ZioPipeline(self.space, self.ddt)
        #: named dedup *domains*: each is an independent DedupTable (plus a
        #: pipeline over the shared space map). ``None``/absent -> the global
        #: ``self.ddt``/``self.zio`` every dataset used before sharding.
        self._domains: dict[str, tuple[DedupTable, ZioPipeline]] = {}
        self._datasets: dict[str, Dataset] = {}
        self._txg = 0

    # -- dedup domains --------------------------------------------------------

    def domain(self, name: str) -> tuple[DedupTable, ZioPipeline]:
        """Get or create the named dedup domain."""
        entry = self._domains.get(name)
        if entry is None:
            ddt = DedupTable()
            zio = ZioPipeline(self.space, ddt)
            entry = self._domains[name] = (ddt, zio)
        return entry

    def domain_ddt(self, name: str) -> DedupTable:
        return self.domain(name)[0]

    def domain_zio(self, name: str) -> ZioPipeline:
        return self.domain(name)[1]

    def domain_names(self) -> list[str]:
        return sorted(self._domains)

    def peek_domain_ddt(self, name: str) -> DedupTable | None:
        """The named domain's DDT, or ``None`` — never creates the domain
        (safe for metric scrapes, which must not mutate pool state)."""
        entry = self._domains.get(name)
        return entry[0] if entry is not None else None

    # -- transaction groups ---------------------------------------------------

    def advance_txg(self) -> int:
        """Open the next transaction group and return its id."""
        self._txg += 1
        return self._txg

    @property
    def current_txg(self) -> int:
        return self._txg

    # -- dataset namespace ----------------------------------------------------

    def create_dataset(
        self,
        name: str,
        *,
        record_size: int = SQUIRREL_BLOCK_SIZE,
        compression: str = "gzip6",
        domain: str | None = None,
    ) -> Dataset:
        if name in self._datasets:
            raise StorageError(f"dataset {name!r} already exists in pool {self.name}")
        dataset = Dataset(
            self,
            name,
            record_size=record_size,
            compression=compression,
            zio=self.domain_zio(domain) if domain is not None else None,
        )
        self._datasets[name] = dataset
        return dataset

    def dataset(self, name: str) -> Dataset:
        ds = self._datasets.get(name)
        if ds is None:
            raise ObjectNotFoundError(f"no dataset {name!r} in pool {self.name}")
        return ds

    def has_dataset(self, name: str) -> bool:
        return name in self._datasets

    def destroy_dataset(self, name: str) -> None:
        self.dataset(name).destroy()
        del self._datasets[name]

    def dataset_names(self) -> list[str]:
        return sorted(self._datasets)

    # -- accounting -----------------------------------------------------------

    @property
    def data_bytes(self) -> int:
        """Block data allocated after dedup + compression (sector-aligned)."""
        return self.space.allocated_bytes

    @property
    def ddt_entries_total(self) -> int:
        """DDT entries across the global domain and every named domain."""
        return self.ddt.entry_count + sum(
            ddt.entry_count for ddt, _zio in self._domains.values()
        )

    @property
    def ddt_core_bytes_total(self) -> int:
        """Resident DDT bytes across all dedup domains."""
        return self.ddt.in_core_bytes + sum(
            ddt.in_core_bytes for ddt, _zio in self._domains.values()
        )

    @property
    def ddt_disk_bytes_total(self) -> int:
        """On-disk DDT bytes across all dedup domains."""
        return self.ddt.on_disk_bytes + sum(
            ddt.on_disk_bytes for ddt, _zio in self._domains.values()
        )

    @property
    def disk_used_bytes(self) -> int:
        return self.data_bytes + self.ddt_disk_bytes_total

    @property
    def memory_used_bytes(self) -> int:
        return self.ddt_core_bytes_total + self.arc.resident_bytes

    def stats(self) -> PoolStats:
        return PoolStats(
            data_bytes=self.data_bytes,
            ddt_disk_bytes=self.ddt_disk_bytes_total,
            ddt_core_bytes=self.ddt_core_bytes_total,
            arc_bytes=self.arc.resident_bytes,
            ddt_entries=self.ddt_entries_total,
        )

    def dedup_ratio(self) -> float:
        if not self._domains:
            return self.ddt.dedup_ratio()
        referenced = self.ddt.referenced_psize + sum(
            ddt.referenced_psize for ddt, _zio in self._domains.values()
        )
        allocated = self.ddt.allocated_psize + sum(
            ddt.allocated_psize for ddt, _zio in self._domains.values()
        )
        return referenced / allocated if allocated else 1.0

    def describe(self) -> str:
        """``zfs list``-style report of the pool and its datasets."""
        from ..common.units import format_bytes

        lines = [
            f"pool {self.name}: {format_bytes(self.disk_used_bytes)} used "
            f"({format_bytes(self.data_bytes)} data + "
            f"{format_bytes(self.ddt_disk_bytes_total)} DDT), "
            f"{format_bytes(self.memory_used_bytes)} in core, "
            f"dedup {self.dedup_ratio():.2f}x",
            f"{'NAME':<24}{'FILES':>7}{'SNAPS':>7}{'REFER':>12}{'LSIZE':>12}",
        ]
        for name in self.dataset_names():
            dataset = self.dataset(name)
            lines.append(
                f"{name:<24}{len(dataset.file_names()):>7}"
                f"{len(dataset.snapshots()):>7}"
                f"{format_bytes(dataset.referenced_psize):>12}"
                f"{format_bytes(dataset.logical_size):>12}"
            )
        return "\n".join(lines)
