"""Adaptive Replacement Cache (ARC).

ZFS caches blocks in an ARC (Megiddo & Modha, FAST'03): two LRU lists — T1
(recently used once) and T2 (frequently used) — plus ghost lists B1/B2 that
remember recently evicted keys and adaptively steer the target size ``p`` of
T1. This is a faithful implementation of the original algorithm, generalised
to variable-sized entries by charging bytes instead of slots.

The boot simulator uses it for the ZFS read path; the pool charges its
resident bytes as memory consumption.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Generic, Hashable, TypeVar

__all__ = ["AdaptiveReplacementCache", "ArcStats"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class ArcStats:
    """Per-tier hit/miss/eviction counters.

    ``hits``/``misses`` stay the coarse totals earlier callers rely on; the
    tier counters split them the way latency attribution needs: a T1 hit is a
    recency win, a T2 hit a frequency win, a ghost hit a miss that still
    steered the adaptive target ``p``, and evictions say which list paid.
    """

    hits: int = 0
    misses: int = 0
    t1_hits: int = 0
    t2_hits: int = 0
    b1_ghost_hits: int = 0
    b2_ghost_hits: int = 0
    t1_evictions: int = 0
    t2_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def ghost_hits(self) -> int:
        return self.b1_ghost_hits + self.b2_ghost_hits

    @property
    def evictions(self) -> int:
        return self.t1_evictions + self.t2_evictions

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view with sorted-stable keys for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "t1_hits": self.t1_hits,
            "t2_hits": self.t2_hits,
            "b1_ghost_hits": self.b1_ghost_hits,
            "b2_ghost_hits": self.b2_ghost_hits,
            "t1_evictions": self.t1_evictions,
            "t2_evictions": self.t2_evictions,
        }


class AdaptiveReplacementCache(Generic[K, V]):
    """Byte-budgeted ARC.

    ``capacity`` is a byte budget; each entry carries its own size. Ghost
    lists hold keys only (no values) and are bounded to the same byte budget,
    mirroring the c-slot bound of the slot-based original.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ARC capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._p = 0  # adaptive target size (bytes) for T1
        self._t1: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._t2: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._b1: OrderedDict[K, int] = OrderedDict()  # key -> size
        self._b2: OrderedDict[K, int] = OrderedDict()
        self._t1_bytes = 0
        self._t2_bytes = 0
        self._b1_bytes = 0
        self._b2_bytes = 0
        self.stats = ArcStats()

    # -- public API ---------------------------------------------------------

    def get(self, key: K) -> V | None:
        """Look up ``key``; promotes hits to T2 (frequency list)."""
        if key in self._t1:
            value, size = self._t1.pop(key)
            self._t1_bytes -= size
            self._t2[key] = (value, size)
            self._t2_bytes += size
            self.stats.hits += 1
            self.stats.t1_hits += 1
            return value
        if key in self._t2:
            self._t2.move_to_end(key)
            self.stats.hits += 1
            self.stats.t2_hits += 1
            return self._t2[key][0]
        self.stats.misses += 1
        return None

    def put(self, key: K, value: V, size: int) -> None:
        """Insert ``key`` after a miss (the ARC 'on miss' path)."""
        if size <= 0:
            raise ValueError(f"entry size must be positive, got {size}")
        if size > self.capacity:
            return  # larger than the whole cache: bypass
        if key in self._t1 or key in self._t2:
            # overwrite in place (value refresh)
            self._remove_resident(key)
        if key in self._b1:
            # ghost hit in B1: favour recency — grow p
            self.stats.b1_ghost_hits += 1
            delta = max(1, self._b2_bytes // max(1, self._b1_bytes)) * size
            self._p = min(self.capacity, self._p + delta)
            self._b1_bytes -= self._b1.pop(key)
            self._replace(in_b2=False, incoming=size)
            self._t2[key] = (value, size)
            self._t2_bytes += size
            return
        if key in self._b2:
            # ghost hit in B2: favour frequency — shrink p
            self.stats.b2_ghost_hits += 1
            delta = max(1, self._b1_bytes // max(1, self._b2_bytes)) * size
            self._p = max(0, self._p - delta)
            self._b2_bytes -= self._b2.pop(key)
            self._replace(in_b2=True, incoming=size)
            self._t2[key] = (value, size)
            self._t2_bytes += size
            return
        # brand-new key
        l1_bytes = self._t1_bytes + self._b1_bytes
        if l1_bytes >= self.capacity:
            if self._t1_bytes < self.capacity:
                self._evict_ghost(self._b1, "_b1_bytes", l1_bytes - self.capacity + size)
                self._replace(in_b2=False, incoming=size)
            else:
                # T1 alone fills L1: evict its LRU entries, remembering them
                # in the B1 ghost list so an early re-reference still steers p
                self._evict_t1_to_ghost(needed=size)
        else:
            total = l1_bytes + self._t2_bytes + self._b2_bytes
            if total >= self.capacity:
                self._evict_ghost(
                    self._b2, "_b2_bytes", total - 2 * self.capacity + size
                )
            self._replace(in_b2=False, incoming=size)
        self._t1[key] = (value, size)
        self._t1_bytes += size

    def __contains__(self, key: K) -> bool:
        return key in self._t1 or key in self._t2

    @property
    def resident_bytes(self) -> int:
        """Bytes held by cached values (T1 + T2)."""
        return self._t1_bytes + self._t2_bytes

    @property
    def p(self) -> int:
        """Adaptive target size (bytes) of T1 — the recency/frequency dial;
        scenario drivers sample it as a gauge."""
        return self._p

    def tier_bytes(self) -> dict[str, int]:
        """Resident/ghost bytes per list, for telemetry."""
        return {
            "t1": self._t1_bytes,
            "t2": self._t2_bytes,
            "b1": self._b1_bytes,
            "b2": self._b2_bytes,
        }

    def copy(self) -> "AdaptiveReplacementCache[K, V]":
        """A cache with this one's lists, target and stats that evolves
        apart from it (the cached values are shared)."""
        clone = AdaptiveReplacementCache(self.capacity)
        clone._p = self._p
        clone._t1, clone._t2 = OrderedDict(self._t1), OrderedDict(self._t2)
        clone._b1, clone._b2 = OrderedDict(self._b1), OrderedDict(self._b2)
        clone._t1_bytes, clone._t2_bytes = self._t1_bytes, self._t2_bytes
        clone._b1_bytes, clone._b2_bytes = self._b1_bytes, self._b2_bytes
        clone.stats = replace(self.stats)
        return clone

    def clear(self) -> None:
        """Drop all cached data and ghosts (e.g. node reboot)."""
        self._t1.clear()
        self._t2.clear()
        self._b1.clear()
        self._b2.clear()
        self._t1_bytes = self._t2_bytes = self._b1_bytes = self._b2_bytes = 0
        self._p = 0

    # -- internals ----------------------------------------------------------

    def _remove_resident(self, key: K) -> None:
        if key in self._t1:
            _, size = self._t1.pop(key)
            self._t1_bytes -= size
        elif key in self._t2:
            _, size = self._t2.pop(key)
            self._t2_bytes -= size

    def _replace(self, *, in_b2: bool, incoming: int) -> None:
        """Make room for ``incoming`` bytes by demoting from T1 or T2."""
        while self._t1_bytes + self._t2_bytes + incoming > self.capacity:
            t1_nonempty = bool(self._t1)
            prefer_t1 = t1_nonempty and (
                self._t1_bytes > self._p or (in_b2 and self._t1_bytes == self._p)
            )
            if prefer_t1 or not self._t2:
                if not self._t1:
                    break
                key, (_, size) = self._t1.popitem(last=False)
                self._t1_bytes -= size
                self._b1[key] = size
                self._b1_bytes += size
                self.stats.t1_evictions += 1
            else:
                key, (_, size) = self._t2.popitem(last=False)
                self._t2_bytes -= size
                self._b2[key] = size
                self._b2_bytes += size
                self.stats.t2_evictions += 1

    def _evict_t1_to_ghost(self, needed: int) -> None:
        """Evict T1 LRU entries until ``needed`` bytes fit; evicted keys land
        in the B1 ghost list (ARC's |T1| = c case), so a prompt re-reference
        is recognised as a recency miss and grows ``p``."""
        while self._t1 and self._t1_bytes + self._t2_bytes + needed > self.capacity:
            key, (_, size) = self._t1.popitem(last=False)
            self._t1_bytes -= size
            self._b1[key] = size
            self._b1_bytes += size
            self.stats.t1_evictions += 1

    def _evict_ghost(self, ghost: OrderedDict, counter: str, overflow: int) -> None:
        shed = 0
        while ghost and shed < overflow:
            _, size = ghost.popitem(last=False)
            setattr(self, counter, getattr(self, counter) - size)
            shed += size
