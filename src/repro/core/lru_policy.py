"""The traditional alternative: per-node LRU VMI-cache replacement.

Squirrel's introduction positions scatter hoarding against "traditional
solutions ... cache replacement policies (e.g. LRU) as well as cache-aware
VM scheduling". This module implements that baseline so the comparison can
be run: a compute node with a *bounded* cache budget keeps whole per-image
caches (uncompressed, no dedup — how a plain file-cache does it) and evicts
least-recently-used caches under pressure. Every miss pulls the boot working
set over the network.

The comparison experiment drives a Zipf-popularity boot workload against
(a) an LRU node with a budget equal to Squirrel's measured cVolume footprint
and (b) Squirrel's full replication, and reports miss traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..common.rng import stream as rng_stream
from ..vmi.catalog import LazyImageCatalog

__all__ = ["LruCacheNode", "ZipfBootWorkload", "WorkloadReport", "run_policy_comparison"]


class LruCacheNode:
    """A compute node caching whole per-image boot sets under a byte budget."""

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("cache budget must be positive")
        self.budget_bytes = budget_bytes
        self._resident: OrderedDict[int, int] = OrderedDict()  # image -> bytes
        self._resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.miss_bytes = 0
        self.evictions = 0

    def boot(self, image_id: int, cache_bytes: int) -> bool:
        """Boot from ``image_id``; returns True on a warm (local) boot."""
        if image_id in self._resident:
            self._resident.move_to_end(image_id)
            self.hits += 1
            return True
        self.misses += 1
        self.miss_bytes += cache_bytes
        if cache_bytes <= self.budget_bytes:
            while self._resident_bytes + cache_bytes > self.budget_bytes:
                _, evicted = self._resident.popitem(last=False)
                self._resident_bytes -= evicted
                self.evictions += 1
            self._resident[image_id] = cache_bytes
            self._resident_bytes += cache_bytes
        return False

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def resident_images(self) -> int:
        return len(self._resident)


@dataclass(frozen=True)
class ZipfBootWorkload:
    """Boot requests with Zipf-distributed image popularity.

    Multi-tenant clouds boot a few images constantly and a long tail rarely
    — the regime where LRU keeps missing on the tail.
    """

    n_boots: int = 2000
    zipf_exponent: float = 0.9
    seed: int = 7

    def draw(self, n_images: int) -> np.ndarray:
        rng = rng_stream("lru-workload", self.seed, self.n_boots)
        ranks = np.arange(1, n_images + 1, dtype=np.float64)
        weights = 1.0 / ranks**self.zipf_exponent
        weights /= weights.sum()
        # popularity order decorrelated from image id
        order = rng.permutation(n_images)
        return order[rng.choice(n_images, size=self.n_boots, p=weights)]


@dataclass(frozen=True)
class WorkloadReport:
    """Outcome of one policy under one workload."""

    policy: str
    boots: int
    hits: int
    miss_network_bytes: int
    disk_budget_bytes: int

    @property
    def hit_rate(self) -> float:
        return self.hits / self.boots if self.boots else 0.0


@dataclass
class _ComparisonResult:
    lru: WorkloadReport
    squirrel: WorkloadReport
    requests: int = field(default=0)


def run_policy_comparison(
    dataset: LazyImageCatalog,
    *,
    squirrel_footprint_bytes: int,
    workload: ZipfBootWorkload | None = None,
) -> _ComparisonResult:
    """Drive the same workload through LRU and Squirrel on equal disk budgets.

    ``squirrel_footprint_bytes`` is the measured cVolume size (data + DDT) —
    the LRU node gets exactly that much raw space, so the comparison isolates
    the policy (and the dedup+compression that enables full replication).
    """
    workload = workload or ZipfBootWorkload()
    requests = workload.draw(len(dataset))
    sizes = [spec.cache_bytes for spec in dataset]

    lru_node = LruCacheNode(squirrel_footprint_bytes)
    for image_id in requests:
        lru_node.boot(int(image_id), sizes[int(image_id)])
    lru = WorkloadReport(
        policy="lru",
        boots=len(requests),
        hits=lru_node.hits,
        miss_network_bytes=lru_node.miss_bytes,
        disk_budget_bytes=squirrel_footprint_bytes,
    )
    # Squirrel: every cache is resident on every node, by construction
    squirrel = WorkloadReport(
        policy="squirrel",
        boots=len(requests),
        hits=len(requests),
        miss_network_bytes=0,
        disk_budget_bytes=squirrel_footprint_bytes,
    )
    return _ComparisonResult(lru=lru, squirrel=squirrel, requests=len(requests))
