"""Interned per-node replica state: flyweight ccVolume pools with CoW.

The paper's propagation model applies every registration diff to *every*
online compute node's local ZFS pool. Simulated naively that is
O(nodes × registrations) pool mutations — the wall that capped storms at
~64 nodes (a 10k-node fleet spends minutes just replaying receives).

The key observation: a node's ccVolume state is a pure function of the
*sequence of operations applied to it* — two nodes that applied the same
receives/installs/GC runs hold bit-identical pools. So the cluster keeps
one :class:`Replica` per *distinct operation history* and lets any number
of nodes point at it:

* each replica is identified by an interned **state id**, the hash-chain
  of ``(previous state, op token)`` transitions from the blank pool;
* applying an op to a group of nodes that covers *all* referents of a
  replica mutates the shared pool **once** — a 10k-node multicast receive
  costs the same as a 1-node one;
* when the op's target state is already interned (a rejoining node
  replaying a diff its peers already applied), the nodes are simply
  **repointed** — zero pool work;
* when only part of a replica's population applies the op (placement
  installs on a holder subset, GC racing an offline node), the group gets
  a **copy-on-write clone** — one :meth:`~repro.zfs.ZPool.clone` per
  divergence event, not per node — and diverges from there. The clone
  shares what no op mutates in place (block pointers, file views, frozen
  snapshot maps) and copies the rest (DDT entries, space map, block
  lists, deadlists, ARC).

Histories, not contents, are interned: two pools that became identical
through different op orders are conservatively kept separate, which can
only cost memory, never correctness. Everything a node's pool exposes
(files, snapshots, DDT counts, allocated bytes) reads exactly what a
private per-node pool would hold, so reports stay byte-identical.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from ..zfs import ZPool

__all__ = ["Replica", "ReplicaStore", "apply_to_nodes"]

#: an op token: hashable description of one replica mutation, e.g.
#: ``("recv", from_snap, to_snap)`` or ``("install", cache_file)``
Token = Hashable


class Replica:
    """One shared ccVolume pool + its interned state id and refcount."""

    __slots__ = ("pool", "state", "refs")

    def __init__(self, pool: ZPool, state: int = 0) -> None:
        self.pool = pool
        self.state = state
        #: number of nodes currently pointing at this replica
        self.refs = 0


class ReplicaStore:
    """Interning table for replica states (one per cluster)."""

    def __init__(self, blank_pool: ZPool) -> None:
        self._blank = Replica(blank_pool, state=0)
        #: state id -> the replica currently holding that state (if live)
        self._interned: dict[int, Replica] = {0: self._blank}
        #: (state id, token) -> successor state id
        self._transitions: dict[tuple[int, Token], int] = {}
        self._next_state = 1

    # -- membership -----------------------------------------------------------------

    def acquire_blank(self) -> Replica:
        """Point one more node at the shared blank-pool replica."""
        self._blank.refs += 1
        return self._blank

    @property
    def distinct_replicas(self) -> int:
        """Live replica count — the fleet's real pool-state cardinality."""
        return len({id(r) for r in self._interned.values() if r.refs > 0})

    # -- the one mutation path --------------------------------------------------------

    def apply(
        self,
        nodes: Iterable,
        token: Token,
        mutate: Callable[[ZPool], None],
        *,
        when: Callable[[ZPool], bool] | None = None,
    ) -> None:
        """Apply one op to ``nodes``' replicas, group-wise.

        ``mutate(pool)`` must be deterministic given the pool's state —
        the token *is* the op's identity, so equal tokens applied to equal
        states must produce equal pools. ``when(pool)`` (evaluated once
        per distinct replica, before anything moves) skips groups the op
        does not apply to, mirroring per-node ``if`` guards.
        """
        groups: dict[int, list] = {}
        replicas: dict[int, Replica] = {}
        for node in nodes:
            replica = node.replica
            key = id(replica)
            replicas[key] = replica
            groups.setdefault(key, []).append(node)
        for key, members in groups.items():
            replica = replicas[key]
            if when is not None and not when(replica.pool):
                continue
            self._transition(replica, members, token, mutate)

    def _transition(
        self,
        replica: Replica,
        members: list,
        token: Token,
        mutate: Callable[[ZPool], None],
    ) -> None:
        key = (replica.state, token)
        nxt = self._transitions.get(key)
        if nxt is None:
            nxt = self._next_state
            self._next_state += 1
            self._transitions[key] = nxt
        target = self._interned.get(nxt)
        if target is not None and target.refs > 0:
            # the successor state already exists: repoint, zero pool work
            for node in members:
                self._repoint(node, target)
            return
        if len(members) == replica.refs:
            # the whole population moves together: mutate in place
            if self._interned.get(replica.state) is replica:
                del self._interned[replica.state]
            mutate(replica.pool)
            replica.state = nxt
            self._interned[nxt] = replica
            return
        # partial group: CoW — one clone for the whole group, then diverge
        clone = Replica(replica.pool.clone(), state=replica.state)
        for node in members:
            self._repoint(node, clone)
        mutate(clone.pool)
        clone.state = nxt
        self._interned[nxt] = clone

    def _repoint(self, node, target: Replica) -> None:
        old = node.replica
        if old is target:
            return
        old.refs -= 1
        if old.refs <= 0 and self._interned.get(old.state) is old:
            del self._interned[old.state]
        node.replica = target
        target.refs += 1


def apply_to_nodes(
    store: ReplicaStore,
    nodes: Iterable,
    token: Token,
    mutate: Callable[[ZPool], None],
    *,
    when: Callable[[ZPool], bool] | None = None,
) -> None:
    """Apply one ccVolume op to ``nodes`` through their cluster's store.

    Every ccVolume mutation is one call here, so a run's replica work can
    be counted and timed at one seam.
    """
    store.apply(nodes, token, mutate, when=when)
