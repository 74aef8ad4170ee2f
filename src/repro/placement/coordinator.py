"""The placement coordinator: glue between policy, directory, and cluster.

One coordinator per :class:`~repro.core.squirrel.Squirrel` (attached as its
``placement`` field). It owns the policy's precomputed hoard map, installs
cache slices into holder ccVolumes at registration time, answers peer
lookups on boot misses, enforces the adoption budget, and re-seeds nodes
returning from downtime. All of its ledger traffic uses the dedicated
purposes :data:`~repro.placement.transport.SEED_PURPOSE` and
:data:`~repro.placement.transport.PEER_REDIRECT_PURPOSE`, so boot-read
accounting (Figure 18) and the glusterfs served-bytes tally are never
double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import ConfigError
from ..core.cluster import CCVOLUME
from ..core.replica import apply_to_nodes
from ..core.squirrel import cache_file_name
from .directory import PlacementDirectory
from .policy import (
    POLICY_NAMES,
    PlacementContext,
    PlacementPolicy,
    make_policy,
)
from .transport import (
    PEER_REDIRECT_PURPOSE,
    SEED_PURPOSE,
    TRANSPORT_NAMES,
    SeedResult,
    seed_transfer,
)

__all__ = ["PlacementSpec", "PlacementCoordinator", "build_coordinator"]


@dataclass(frozen=True)
class PlacementSpec:
    """Declarative placement configuration (what the experiment grids)."""

    policy: str = "full"
    transport: str = "multicast"
    top_k: int = 8
    replica_floor: int = 2
    #: per-node promote-on-miss budget in logical cache bytes (0 = off)
    adopt_budget_bytes: int = 0

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigError(
                f"unknown placement policy {self.policy!r}; "
                f"choose from {', '.join(POLICY_NAMES)}"
            )
        if self.transport not in TRANSPORT_NAMES:
            raise ConfigError(
                f"unknown transport {self.transport!r}; "
                f"choose from {', '.join(TRANSPORT_NAMES)}"
            )
        if self.adopt_budget_bytes < 0:
            raise ConfigError("adoption budget must be non-negative")

    def to_dict(self) -> dict:
        """Plain-type view embedded in experiment reports."""
        return {
            "adopt_budget_bytes": self.adopt_budget_bytes,
            "policy": self.policy,
            "replica_floor": self.replica_floor,
            "top_k": self.top_k,
            "transport": self.transport,
        }


@dataclass
class PlacementCoordinator:
    """Runtime placement state for one cluster."""

    spec: PlacementSpec
    policy: PlacementPolicy
    directory: PlacementDirectory
    assignments: dict[int, tuple[str, ...]]
    #: per-image cache rows (signature, lsize, psize, is_hole) for adoption
    _rows: dict[int, list] = field(default_factory=dict)
    #: per-node logical bytes spent from the adoption budget
    _adopted_by_node: dict[str, int] = field(default_factory=dict)

    # running tallies, surfaced via stats()
    peer_redirects: int = 0
    redirect_bytes: int = 0
    origin_fallbacks: int = 0
    adoptions: int = 0
    adopted_bytes: int = 0
    seed_rounds: int = 0
    seed_receiver_bytes: int = 0
    seed_origin_bytes: int = 0
    seed_peer_upload_bytes: int = 0
    seed_duration_s: float = 0.0
    reseed_bytes: int = 0

    def install(self, squirrel) -> None:
        """Attach to ``squirrel`` as its ``placement``; the fleet this
        coordinator places over must be ``squirrel``'s compute nodes."""
        node_names = tuple(node.name for node in squirrel.cluster.compute)
        if self.directory.nodes != node_names:
            raise ConfigError("placement context does not match the cluster fleet")
        squirrel.placement = self

    # -- registration ---------------------------------------------------------------

    def holders_for(self, image_id: int) -> tuple[str, ...]:
        """Assigned holder names for an image (policy map, post-adoption)."""
        placed = self.directory.holders(image_id)
        if placed:
            return placed
        assigned = self.assignments.get(image_id)
        if assigned is None:
            raise ConfigError(
                f"image {image_id} is outside the placed catalogue"
            )
        return assigned

    def seed_image(self, cluster, image_spec, cache_file: str, rows: list) -> SeedResult:
        """Install a freshly registered cache on its holders and charge it.

        Writes the cache rows into every *online* holder's ccVolume, records
        the transfer through the configured transport, and tracks the image
        in the directory. Offline holders catch up via :meth:`reseed_node`.
        """
        image_id = image_spec.image_id
        assigned = self.holders_for(image_id)
        self._rows[image_id] = rows
        self.directory.add_image(image_id, assigned, image_spec.cache_bytes)
        online = [
            cluster.node(name) for name in assigned
            if cluster.node(name).online
        ]
        # holders sharing a replica (same hoard history) install once
        apply_to_nodes(
            getattr(cluster, "replicas", None),
            online,
            ("install", cache_file),
            lambda pool: pool.dataset(CCVOLUME)
            .write_file_virtual(cache_file, rows),
        )
        result = seed_transfer(
            self.spec.transport,
            cluster.ledger,
            cluster.storage.primary,
            [holder.node for holder in online],
            image_spec.cache_bytes,
        )
        self.seed_rounds += 1
        self.seed_receiver_bytes += result.receiver_bytes
        self.seed_origin_bytes += result.origin_bytes
        self.seed_peer_upload_bytes += result.peer_upload_bytes
        self.seed_duration_s += result.duration_s
        return result

    def drop_image(self, cluster, image_id: int, cache_file: str) -> None:
        """Deregistration: remove the cache from every holder ccVolume."""
        holders = [
            cluster.node(name) for name in self.directory.holders(image_id)
        ]
        apply_to_nodes(
            getattr(cluster, "replicas", None),
            holders,
            ("del", cache_file),
            lambda pool: pool.dataset(CCVOLUME).delete_file(cache_file),
            when=lambda pool: pool.dataset(CCVOLUME).has_file(cache_file),
        )
        self.directory.drop_image(image_id)
        self._rows.pop(image_id, None)

    # -- boot-miss handling ---------------------------------------------------------

    def pick_peer(self, cluster, image_id: int, reader: str):
        """Nearest live holder (a ComputeNode), or None → origin fallback."""
        name = self.directory.nearest_holder(
            image_id, reader, is_up=lambda n: cluster.node(n).online
        )
        return cluster.node(name) if name is not None else None

    def payload_bytes(self, image_id: int) -> int:
        """Logical bytes a peer redirect moves (the cache slice itself)."""
        return self.directory.cache_bytes_of(image_id)

    def record_redirect(self, cluster, peer_name: str, reader: str, n_bytes: int) -> None:
        """Ledger + tallies for one redirected boot (peer → reader)."""
        cluster.ledger.record(peer_name, reader, n_bytes, PEER_REDIRECT_PURPOSE)
        self.peer_redirects += 1
        self.redirect_bytes += n_bytes

    def record_origin_fallback(self) -> None:
        """No live holder: the boot fell back to the glusterfs origin."""
        self.origin_fallbacks += 1

    def maybe_adopt(self, cluster, image_id: int, node) -> bool:
        """Promote-on-miss: install the cache on ``node`` if budget allows.

        The budget is per node, in logical cache bytes. Adoption makes the
        node a holder (future local hits *and* a redirect target for its
        neighbours) but costs hoarded bytes — the tradeoff the experiment
        measures.
        """
        budget = self.spec.adopt_budget_bytes
        if budget <= 0:
            return False
        size = self.directory.cache_bytes_of(image_id)
        spent = self._adopted_by_node.get(node.name, 0)
        if spent + size > budget:
            return False
        rows = self._rows.get(image_id)
        if rows is None:
            return False
        cache_file = cache_file_name(image_id)
        apply_to_nodes(
            getattr(cluster, "replicas", None),
            [node],
            ("install", cache_file),
            lambda pool: pool.dataset(CCVOLUME)
            .write_file_virtual(cache_file, rows),
            when=lambda pool: not pool.dataset(CCVOLUME).has_file(cache_file),
        )
        self.directory.adopt(node.name, image_id)
        self._adopted_by_node[node.name] = spent + size
        self.adoptions += 1
        self.adopted_bytes += size
        return True

    # -- offline propagation --------------------------------------------------------

    def reseed_node(self, cluster, node) -> int:
        """Re-install assigned-but-missing caches on a (re-)joining node.

        The placement analogue of snapshot-chain replay: instead of the
        scVolume diff stream, the node pulls exactly the cache slices the
        directory assigns it. Returns logical bytes moved.
        """
        origin = cluster.storage.primary
        moved = 0
        for image_id in self.directory.images_of(node.name):
            cache_file = cache_file_name(image_id)
            if node.ccvolume.has_file(cache_file):
                continue
            rows = self._rows.get(image_id)
            if rows is None:
                continue
            apply_to_nodes(
                getattr(cluster, "replicas", None),
                [node],
                ("install", cache_file),
                lambda pool, cache_file=cache_file, rows=rows: pool.dataset(
                    CCVOLUME
                ).write_file_virtual(cache_file, rows),
            )
            size = self.directory.cache_bytes_of(image_id)
            cluster.ledger.record(origin.name, node.name, size, SEED_PURPOSE)
            moved += size
        self.reseed_bytes += moved
        return moved

    # -- reporting ------------------------------------------------------------------

    def stats(self) -> dict:
        """Canonical plain-type tally block for reports and renderers."""
        return {
            "adopted_bytes": self.adopted_bytes,
            "adoptions": self.adoptions,
            "hoarded_bytes": self.directory.total_hoarded_bytes(),
            "hoarded_replicas": self.directory.total_replicas(),
            "images_tracked": len(self.directory.images()),
            "origin_fallbacks": self.origin_fallbacks,
            "peer_redirects": self.peer_redirects,
            "policy": self.spec.policy,
            "redirect_bytes": self.redirect_bytes,
            "reseed_bytes": self.reseed_bytes,
            "seed_duration_s": self.seed_duration_s,
            "seed_origin_bytes": self.seed_origin_bytes,
            "seed_peer_upload_bytes": self.seed_peer_upload_bytes,
            "seed_receiver_bytes": self.seed_receiver_bytes,
            "seed_rounds": self.seed_rounds,
            "transport": self.spec.transport,
        }


def build_coordinator(
    spec: PlacementSpec, context: PlacementContext
) -> PlacementCoordinator:
    """Materialise a coordinator for ``context``'s fleet from a spec.

    The policy's whole-catalogue hoard map is computed once, up front —
    placement never depends on arrival order, which is what keeps sweep
    merges byte-identical at any worker count.
    """
    policy = make_policy(
        spec.policy, top_k=spec.top_k, replica_floor=spec.replica_floor
    )
    assignments = policy.place(context)
    return PlacementCoordinator(
        spec=spec,
        policy=policy,
        directory=PlacementDirectory(context.nodes),
        assignments=assignments,
    )
