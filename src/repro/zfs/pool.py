"""The ZPool facade — what a node mounts.

Owns the space map, the dedup table, the ARC, and the dataset namespace;
hands out transaction groups. The resource metrics the paper reports per
node are properties here:

* ``disk_used_bytes``  — data after dedup+compression **plus** the on-disk
  DDT (the overhead measured in Figure 9);
* ``memory_used_bytes`` — resident DDT plus ARC bytes (Figure 10's metric).
"""

from __future__ import annotations

from ..common.errors import ObjectNotFoundError, StorageError
from ..common.units import GiB, SQUIRREL_BLOCK_SIZE
from .arc import AdaptiveReplacementCache
from .dataset import Dataset
from .ddt import DedupTable
from .spa import SpaceMap
from .zio import ZioPipeline

__all__ = ["ZPool"]


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

    def clone(self) -> "ZPool":
        """An independent copy of this pool, for a copy-on-write replica
        split: later ops on either pool leave the other as it was.

        Shared, because nothing mutates them in place: block pointers, file
        views, published snapshots' ``files``/``file_created`` maps and each
        dataset's frozen base maps (``Dataset._refresh_frozen`` replaces
        them, never edits them).

        Copied, because later ops mutate them: the DDT entries (refcounts),
        the space map with its allocation sizes, each dedup domain's DDT
        with a pipeline over the clone's space map (every dataset writes
        through the clone's matching pipeline), file block lists, snapshot
        and head deadlists (one ``Snapshot`` object per name in both
        snapshot indexes), the touched names, the txg counter and the ARC.
        """
        clone = ZPool.__new__(ZPool)
        clone.name = self.name
        clone.space = self.space.copy()
        clone.ddt = self.ddt.copy()
        clone.arc = self.arc.copy()
        clone.zio = ZioPipeline(clone.space, clone.ddt)
        pipelines = {id(self.zio): clone.zio}
        clone._domains = {}
        for name, (ddt, zio) in self._domains.items():
            ddt = ddt.copy()
            pipelines[id(zio)] = ZioPipeline(clone.space, ddt)
            clone._domains[name] = (ddt, pipelines[id(zio)])
        clone._datasets = {
            name: dataset.copy_into(clone, pipelines[id(dataset.zio)])
            for name, dataset in self._datasets.items()
        }
        clone._txg = self._txg
        return clone

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
