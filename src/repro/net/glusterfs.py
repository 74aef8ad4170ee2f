"""A glusterfs-like striped + replicated parallel file system.

The paper's storage backend (Section 4.4): 4 storage nodes, "two levels of
striping and two levels of replication" — files are striped over two
replica groups, each group mirroring across two nodes, giving random-access
parallelism over four disks and single-disk fault tolerance.

The model answers: which storage node serves each byte range of a file
(reads pick one replica round-robin), and records the resulting transfers in
the ledger. Writes fan out to every replica of the stripe's group.

Fault model (paper Section 6): a brick can fail and be restored
(:meth:`GlusterVolume.fail_node` / :meth:`GlusterVolume.restore_node`).
Degraded reads route around dead bricks — any surviving replica of a stripe
group serves its ranges — and only losing *every* replica of a group makes
that group's ranges unreadable. Writes during degradation land on the
surviving replicas only (self-healing of the stale replica on restore is
out of scope: the cVolume workload re-reads, never patches).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import NetworkError
from .topology import Node, NodeKind, TransferLedger

__all__ = ["GlusterVolume"]

#: glusterfs default stripe unit
STRIPE_UNIT = 128 * 1024


@dataclass
class _FileMeta:
    name: str
    size: int


class GlusterVolume:
    """One striped+replicated volume over a set of storage nodes."""

    def __init__(
        self,
        storage_nodes: list[Node],
        *,
        stripe_count: int = 2,
        replica_count: int = 2,
        stripe_unit: int = STRIPE_UNIT,
        ledger: TransferLedger | None = None,
    ) -> None:
        if stripe_count * replica_count != len(storage_nodes):
            raise NetworkError(
                f"{stripe_count}x striping with {replica_count}x replication needs "
                f"{stripe_count * replica_count} storage nodes, got {len(storage_nodes)}"
            )
        for node in storage_nodes:
            if node.kind is not NodeKind.STORAGE:
                raise NetworkError(f"{node.name} is not a storage node")
        self.stripe_count = stripe_count
        self.replica_count = replica_count
        self.stripe_unit = stripe_unit
        self.ledger = ledger or TransferLedger()
        #: replica groups: group g holds nodes [g*replica : (g+1)*replica]
        self.groups = [
            storage_nodes[g * replica_count : (g + 1) * replica_count]
            for g in range(stripe_count)
        ]
        self._files: dict[str, _FileMeta] = {}
        #: per-group round-robin cursors (a shared cursor would alias with
        #: the stripe alternation and starve one replica)
        self._read_rr = [0] * stripe_count
        #: names of failed bricks (degraded mode while non-empty)
        self._dead: set[str] = set()
        self._names = {node.name for group in self.groups for node in group}
        #: running bytes-served tally per brick, kept apart from the ledger
        #: (whose per-brick sums also count uploads and seeding) so gauges
        #: can scrape brick service alone every sampling tick
        self._served: dict[str, int] = {name: 0 for name in sorted(self._names)}
        #: purposes that have flowed through the brick read path; the
        #: served-bytes verifier filters the ledger to exactly these, so
        #: storage-sourced traffic that bypasses the bricks (snapshot
        #: multicast, placement seeding) never counts as brick service
        self._read_purposes: set[str] = set()

    # -- fault injection ----------------------------------------------------------

    def fail_node(self, name: str) -> None:
        """Take one brick down; reads degrade onto its group's survivors."""
        if name not in self._names:
            raise NetworkError(f"no storage node {name!r}")
        self._dead.add(name)

    def restore_node(self, name: str) -> None:
        """Bring a failed brick back into the read rotation."""
        if name not in self._names:
            raise NetworkError(f"no storage node {name!r}")
        self._dead.discard(name)

    def is_alive(self, name: str) -> bool:
        if name not in self._names:
            raise NetworkError(f"no storage node {name!r}")
        return name not in self._dead

    @property
    def degraded(self) -> bool:
        return bool(self._dead)

    # -- namespace ---------------------------------------------------------------

    def create_file(self, name: str, size: int, *, writer: str | None = None) -> None:
        """Create a file; when ``writer`` is given, records the upload traffic
        (size × replica_count leaves the writer)."""
        if name in self._files:
            raise NetworkError(f"file {name!r} already exists")
        self._files[name] = _FileMeta(name, size)
        if writer is not None:
            for group in self.groups:
                for replica in group:
                    if replica.name in self._dead:
                        continue  # degraded write: survivors only
                    share = size // self.stripe_count
                    self.ledger.record(writer, replica.name, share, "upload")

    def has_file(self, name: str) -> bool:
        return name in self._files

    def file_size(self, name: str) -> int:
        meta = self._files.get(name)
        if meta is None:
            raise NetworkError(f"no file {name!r}")
        return meta.size

    # -- data path ---------------------------------------------------------------

    def serving_node(self, offset: int) -> Node:
        """Storage node that serves a read at ``offset``: round-robin over
        the *alive* replicas of the owning stripe group (degraded reads fall
        onto the survivors; a fully dead group is unreadable)."""
        group_index = (offset // self.stripe_unit) % self.stripe_count
        group = self.groups[group_index]
        alive = [node for node in group if node.name not in self._dead]
        if not alive:
            raise NetworkError(
                f"stripe group {group_index} lost: every replica "
                f"({', '.join(n.name for n in group)}) has failed"
            )
        self._read_rr[group_index] += 1
        return alive[self._read_rr[group_index] % len(alive)]

    def read(self, name: str, offset: int, length: int, *, reader: str,
             purpose: str = "boot-read") -> int:
        """Read a byte range to ``reader``; returns bytes moved over the net."""
        moved, _plan = self.read_with_plan(
            name, offset, length, reader=reader, purpose=purpose
        )
        return moved

    def read_with_plan(
        self, name: str, offset: int, length: int, *, reader: str,
        purpose: str = "boot-read",
    ) -> tuple[int, list[tuple[Node, int]]]:
        """Read a byte range and also return the per-brick service plan.

        The plan aggregates the stripe-unit chunks by serving storage node —
        the service-time hook the event engine drives: each ``(node, bytes)``
        entry becomes a timed transfer through that brick's uplink pipe,
        while the ledger accounting stays identical to a plain :meth:`read`.
        """
        meta = self._files.get(name)
        if meta is None:
            raise NetworkError(f"no file {name!r}")
        if offset < 0 or offset + length > meta.size:
            raise NetworkError(f"read past end of {name!r}")
        moved = 0
        position = offset
        end = offset + length
        self._read_purposes.add(purpose)
        per_node: dict[str, int] = {}
        nodes: dict[str, Node] = {}
        while position < end:
            stripe_end = (position // self.stripe_unit + 1) * self.stripe_unit
            chunk = min(end, stripe_end) - position
            node = self.serving_node(position)
            self.ledger.record(node.name, reader, chunk, purpose)
            self._served[node.name] += chunk
            per_node[node.name] = per_node.get(node.name, 0) + chunk
            nodes[node.name] = node
            moved += chunk
            position += chunk
        plan = [(nodes[name_], per_node[name_]) for name_ in sorted(per_node)]
        return moved, plan

    def served_bytes(self, name: str) -> int:
        """Running bytes-served tally for one brick (O(1) — the gauge-scrape
        counterpart of :meth:`storage_read_load`)."""
        if name not in self._names:
            raise NetworkError(f"no storage node {name!r}")
        return self._served[name]

    def storage_read_load(self) -> dict[str, int]:
        """Bytes served per storage node through the brick read path (the
        storage-bottleneck view); uploads and storage-sourced multicasts or
        seeding do not count as read load."""
        return dict(self._served)

    def verify_served_accounting(self) -> dict[str, int]:
        """Cross-check the O(1) served tallies against the ledger.

        Recomputes each brick's service bytes from the ledger's sums — bytes
        sourced at a brick under a purpose that has flowed through
        :meth:`read_with_plan` — and raises
        :class:`~repro.common.errors.NetworkError` on any divergence. This
        pins two invariants at once: degraded reads re-route a dead brick's
        ranges onto its group's survivors exactly once (no loss, no double
        count), and storage-sourced traffic that bypasses the bricks
        (snapshot multicast, placement seeding) or never touches them
        (compute-to-compute peer redirects) cannot inflate a brick tally.
        """
        ledger = self.ledger
        computed = {
            name: sum(
                ledger.bytes_out_of(name, purpose=purpose)
                for purpose in self._read_purposes
            )
            for name in sorted(self._names)
        }
        if computed != self._served:
            drift = {
                name: (self._served[name], computed[name])
                for name in sorted(self._names)
                if self._served[name] != computed[name]
            }
            raise NetworkError(
                "served-bytes tallies diverge from the ledger "
                f"(tally, ledger): {drift}"
            )
        return computed
