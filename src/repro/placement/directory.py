"""The placement directory: who holds which image's cache slice.

`TimedSquirrel` consults this on every boot miss. Lookups are O(1) on
image id; :meth:`PlacementDirectory.nearest_holder` ranks live holders by
ring distance on the compute-node index (compute nodes are racked in name
order, so adjacent indices share a switch in the modelled topology) and
falls over to the next survivor when the closest holder is down.

Byte accounting is **logical** cache bytes per image — the same unit
:func:`repro.core.squirrel.cold_read_bytes` uses — so hoarded-bytes
comparisons between policies (and against full replication) are apples to
apples.
"""

from __future__ import annotations

from ..common.errors import ConfigError

__all__ = ["PlacementDirectory"]


class PlacementDirectory:
    """Tracks holder sets, supports adoption, and answers nearest-holder."""

    def __init__(self, nodes: tuple[str, ...] | list[str]) -> None:
        if not nodes:
            raise ConfigError("directory needs at least one compute node")
        #: the fleet, in ring order
        self.nodes = tuple(nodes)
        self._index = {name: i for i, name in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise ConfigError("duplicate compute node names")
        self._holders: dict[int, dict[str, None]] = {}
        self._cache_bytes: dict[int, int] = {}

    # -- registration ---------------------------------------------------------------

    def add_image(
        self, image_id: int, holders, cache_bytes: int
    ) -> None:
        """Record an image's holder set and its logical cache size."""
        holder_map: dict[str, None] = {}
        for name in holders:
            if name not in self._index:
                raise ConfigError(f"unknown compute node {name!r}")
            holder_map[name] = None
        if not holder_map:
            raise ConfigError(f"image {image_id} needs at least one holder")
        self._holders[image_id] = holder_map
        self._cache_bytes[image_id] = int(cache_bytes)

    def drop_image(self, image_id: int) -> None:
        """Forget an image (deregistration)."""
        self._holders.pop(image_id, None)
        self._cache_bytes.pop(image_id, None)

    def adopt(self, node_name: str, image_id: int) -> None:
        """Promote ``node_name`` into the image's holder set."""
        if node_name not in self._index:
            raise ConfigError(f"unknown compute node {node_name!r}")
        if image_id not in self._holders:
            raise ConfigError(f"image {image_id} is not tracked")
        self._holders[image_id][node_name] = None

    # -- queries --------------------------------------------------------------------

    def holders(self, image_id: int) -> tuple[str, ...]:
        """Holder names in insertion order (placement order, then adopters)."""
        return tuple(self._holders.get(image_id, ()))

    def holds(self, node_name: str, image_id: int) -> bool:
        """Whether ``node_name`` is assigned the image's cache."""
        return node_name in self._holders.get(image_id, {})

    def images(self) -> list[int]:
        """All tracked image ids, ascending."""
        return sorted(self._holders)

    def images_of(self, node_name: str) -> list[int]:
        """Image ids hoarded on a node, ascending."""
        return sorted(
            image_id
            for image_id, holder_map in self._holders.items()
            if node_name in holder_map
        )

    def cache_bytes_of(self, image_id: int) -> int:
        """Logical cache bytes of a tracked image."""
        return self._cache_bytes.get(image_id, 0)

    def hoarded_bytes(self, node_name: str) -> int:
        """Logical cache bytes hoarded on one node."""
        return sum(
            self._cache_bytes[image_id]
            for image_id, holder_map in self._holders.items()
            if node_name in holder_map
        )

    def total_hoarded_bytes(self) -> int:
        """Fleet-wide hoarded bytes: Σ cache_bytes × holder count."""
        return sum(
            self._cache_bytes[image_id] * len(holder_map)
            for image_id, holder_map in self._holders.items()
        )

    def total_replicas(self) -> int:
        """Total (image, holder) pairs across the fleet."""
        return sum(len(holder_map) for holder_map in self._holders.values())

    # -- peer selection -------------------------------------------------------------

    def nearest_holder(
        self, image_id: int, reader: str, *, is_up
    ) -> str | None:
        """Closest live holder to ``reader`` by ring distance, or None.

        ``is_up`` is a predicate on node names (the caller wires it to the
        cluster's ``online`` flags, which the fault injector drives). The
        reader itself is never returned — if it held the cache this would
        have been a hit. Ties in distance break toward the lower node index.
        """
        holder_map = self._holders.get(image_id)
        if not holder_map:
            return None
        n = len(self.nodes)
        reader_index = self._index.get(reader, 0)
        best: tuple[int, int] | None = None
        best_name: str | None = None
        for name in holder_map:
            if name == reader or not is_up(name):
                continue
            index = self._index[name]
            around = abs(index - reader_index)
            distance = min(around, n - around)
            key = (distance, index)
            if best is None or key < best:
                best = key
                best_name = name
        return best_name
