"""QCOW2 copy-on-write image model (cluster-granular).

Models what the paper's boot analysis needs from QCOW2 (Section 4.2.3,
citing [22]): the image is divided into clusters (64 KB by default), and
reads of unallocated ranges fall through to the backing file as
**cluster-rounded** requests — the behaviour that turns small guest reads
into 64 KB backing-file reads and produces the free-prefetch effect through
the host page cache. A copy-on-read image allocates the clusters it fetched,
so the next boot finds them local. Guest writes are not replayed: they land
in the top CoW layer and never reach a backing file.

The chain CoW → VMI cache → base VMI (Figure 1/7) is built by pointing
``backing`` at another :class:`Qcow2Image` or any object with a
``read_range`` method.
"""

from __future__ import annotations

from typing import Protocol

from ..common.errors import BootError
from ..common.units import QCOW2_CLUSTER_SIZE

__all__ = ["Backing", "Qcow2Image"]


class Backing(Protocol):
    """Anything a QCOW2 image can be backed by."""

    def read_range(self, offset: int, length: int) -> float:
        """Serve a read; returns simulated seconds."""
        ...


class Qcow2Image:
    """One CoW image in a backing chain."""

    def __init__(
        self,
        name: str,
        virtual_size: int,
        *,
        backing: "Backing | None" = None,
        cluster_size: int = QCOW2_CLUSTER_SIZE,
        copy_on_read: bool = False,
        local_write_cost_s_per_byte: float = 0.0,
    ) -> None:
        if cluster_size <= 0 or cluster_size & (cluster_size - 1):
            raise BootError(f"cluster size must be a power of two, got {cluster_size}")
        self.name = name
        self.virtual_size = virtual_size
        self.backing = backing
        self.cluster_size = cluster_size
        self.copy_on_read = copy_on_read
        self.local_write_cost = local_write_cost_s_per_byte
        self._allocated: set[int] = set()
        self.backing_reads = 0
        self.backing_bytes = 0
        self.cor_bytes = 0

    # -- guest-facing API ------------------------------------------------------

    def read_range(self, offset: int, length: int) -> float:
        """Guest read: local clusters are free (page-cache handled upstream);
        missing clusters are fetched cluster-rounded from the backing."""
        if offset < 0 or length < 0 or offset + length > self.virtual_size:
            raise BootError(
                f"read [{offset}, {offset + length}) outside image of "
                f"{self.virtual_size} bytes"
            )
        if length == 0:
            return 0.0
        elapsed = 0.0
        first = offset // self.cluster_size
        last = (offset + length - 1) // self.cluster_size
        run_start: int | None = None
        for cluster in range(first, last + 1):
            if cluster in self._allocated:
                if run_start is not None:
                    elapsed += self._fetch_clusters(run_start, cluster)
                    run_start = None
            elif run_start is None:
                run_start = cluster
        if run_start is not None:
            elapsed += self._fetch_clusters(run_start, last + 1)
        return elapsed

    def _fetch_clusters(self, first_cluster: int, end_cluster: int) -> float:
        """Fetch [first, end) clusters from the backing, cluster-rounded."""
        if self.backing is None:
            return 0.0  # unallocated with no backing: reads as zeros
        start = first_cluster * self.cluster_size
        length = (end_cluster - first_cluster) * self.cluster_size
        length = min(length, max(0, self.virtual_size - start))
        self.backing_reads += 1
        self.backing_bytes += length
        elapsed = self.backing.read_range(start, length)
        if self.copy_on_read:
            # populate this image so the next boot finds a warm cache
            for cluster in range(first_cluster, end_cluster):
                self._allocated.add(cluster)
            self.cor_bytes += length
            elapsed += length * self.local_write_cost
        return elapsed
