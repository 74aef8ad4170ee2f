"""Cache-aware VM scheduling — the paper's second dismissed alternative.

Section 1: "Traditional solutions to this problem include cache replacement
policies (e.g. LRU) as well as cache-aware VM scheduling." This module
implements that scheduler so the trade-off can be measured: steering a VM to
a node that already holds its image's cache saves boot traffic, but couples
*placement* to *data locality* — under skewed image popularity the preferred
nodes run out of slots and the cluster load skews, or placements spill to
cold nodes anyway.

Squirrel dissolves the dilemma: every node holds every cache, so any
load-optimal placement is also cache-optimal. The simulation below drives
the same arrival process through three policies and reports hit rate, miss
traffic, and load imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import NetworkError
from ..common.rng import stream as rng_stream
from ..vmi.catalog import LazyImageCatalog
from .lru_policy import LruCacheNode

__all__ = [
    "SchedulerConfig",
    "VmEvent",
    "generate_arrivals",
    "PolicyOutcome",
    "simulate_policy",
    "SCHEDULING_POLICIES",
]

SCHEDULING_POLICIES = ("random", "cache-aware", "squirrel")


@dataclass(frozen=True)
class SchedulerConfig:
    """Cluster shape and per-node cache budget for the scheduling study."""

    n_nodes: int = 16
    slots_per_node: int = 8
    #: per-node raw cache budget for the LRU-backed policies
    cache_budget_bytes: int = 8 << 30


@dataclass(frozen=True)
class VmEvent:
    """One VM lifecycle: arrives at ``start``, runs for ``duration`` ticks."""

    start: int
    duration: int
    image_id: int


def generate_arrivals(
    dataset: LazyImageCatalog,
    *,
    n_vms: int = 2000,
    horizon_ticks: int = 1000,
    zipf_exponent: float = 0.9,
    mean_duration_ticks: float = 40.0,
    seed: int = 11,
) -> list[VmEvent]:
    """A multi-tenant arrival trace: uniform arrivals over the horizon,
    Zipf-popular images, lognormal session lengths."""
    rng = rng_stream("scheduler-arrivals", seed, n_vms)
    n_images = len(dataset)
    ranks = np.arange(1, n_images + 1, dtype=np.float64)
    weights = 1.0 / ranks**zipf_exponent
    weights /= weights.sum()
    order = rng.permutation(n_images)
    images = order[rng.choice(n_images, size=n_vms, p=weights)]
    starts = np.sort(rng.integers(0, horizon_ticks, size=n_vms))
    durations = np.maximum(
        1, rng.lognormal(np.log(mean_duration_ticks), 0.6, size=n_vms)
    ).astype(np.int64)
    return [
        VmEvent(int(s), int(d), int(i))
        for s, d, i in zip(starts, durations, images)
    ]


@dataclass
class _NodeState:
    cache: LruCacheNode
    busy_until: list[int] = field(default_factory=list)  #: end tick per slot VM

    def free_slots(self, now: int, capacity: int) -> int:
        self.busy_until = [t for t in self.busy_until if t > now]
        return capacity - len(self.busy_until)

    def occupy(self, end_tick: int) -> None:
        self.busy_until.append(end_tick)


@dataclass(frozen=True)
class PolicyOutcome:
    """What one policy did with the arrival trace."""

    policy: str
    placed: int
    rejected: int  #: arrivals with no free slot anywhere
    cache_hits: int
    miss_network_bytes: int
    #: coefficient of variation of per-node placements (load imbalance)
    load_imbalance: float

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.placed if self.placed else 0.0


def simulate_policy(
    dataset: LazyImageCatalog,
    events: list[VmEvent],
    policy: str,
    config: SchedulerConfig | None = None,
    *,
    seed: int = 3,
) -> PolicyOutcome:
    """Run one placement policy over the arrival trace.

    * ``random``      — uniform over nodes with free slots; per-node LRU cache.
    * ``cache-aware`` — prefer a free-slotted node that already caches the
      image; fall back to the least-loaded node. Per-node LRU cache.
    * ``squirrel``    — least-loaded placement; every node holds every cache
      (full replication), so placement is free to balance load.
    """
    if policy not in SCHEDULING_POLICIES:
        raise NetworkError(f"unknown scheduling policy {policy!r}")
    cfg = config or SchedulerConfig()
    rng = rng_stream("scheduler-run", policy, seed)
    sizes = [spec.cache_bytes for spec in dataset]
    nodes = [
        _NodeState(LruCacheNode(cfg.cache_budget_bytes)) for _ in range(cfg.n_nodes)
    ]
    placements = np.zeros(cfg.n_nodes, dtype=np.int64)
    placed = rejected = hits = 0
    miss_bytes = 0

    for event in events:
        free = [
            i
            for i, node in enumerate(nodes)
            if node.free_slots(event.start, cfg.slots_per_node) > 0
        ]
        if not free:
            rejected += 1
            continue
        if policy == "random":
            choice = int(free[rng.integers(0, len(free))])
        elif policy == "cache-aware":
            warm = [
                i for i in free if event.image_id in nodes[i].cache._resident  # noqa: SLF001
            ]
            pool = warm or free
            choice = min(pool, key=lambda i: len(nodes[i].busy_until))
        else:  # squirrel
            choice = min(free, key=lambda i: len(nodes[i].busy_until))
        node = nodes[choice]
        node.occupy(event.start + event.duration)
        placements[choice] += 1
        placed += 1
        if policy == "squirrel":
            hits += 1  # full replication: every boot is local
        else:
            if node.cache.boot(event.image_id, sizes[event.image_id]):
                hits += 1
            else:
                miss_bytes += sizes[event.image_id]

    mean = placements.mean() if cfg.n_nodes else 0.0
    imbalance = float(placements.std() / mean) if mean else 0.0
    return PolicyOutcome(
        policy=policy,
        placed=placed,
        rejected=rejected,
        cache_hits=hits,
        miss_network_bytes=miss_bytes,
        load_imbalance=imbalance,
    )
