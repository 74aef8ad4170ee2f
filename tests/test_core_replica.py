"""Tests for interned replica state: flyweight pools with CoW divergence.

The invariant under test: whatever the sharing topology does internally
(in-place group mutation, repointing, copy-on-write splits), every node's
pool reads exactly what a private per-node pool would hold after the same
op sequence.
"""

import pytest

from repro.core import IaaSCluster, Squirrel
from repro.core.cluster import CCVOLUME
from repro.core.replica import Replica, ReplicaStore, apply_to_nodes
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator
from repro.zfs import ZPool


def blank_pool() -> ZPool:
    pool = ZPool("ccpool", capacity=1 << 40)
    pool.create_dataset(CCVOLUME, record_size=65536)
    return pool


def write(name: str, size: int = 100):
    def mutate(pool):
        pool.dataset(CCVOLUME).write_file_virtual(
            name, [(hash(name) & 0xFFFF, size, size, False)]
        )

    return mutate


class FakeNode:
    def __init__(self, replica):
        self.replica = replica

    @property
    def pool(self):
        return self.replica.pool


class TestReplicaStore:
    def test_blank_is_shared(self):
        store = ReplicaStore(blank_pool())
        nodes = [FakeNode(store.acquire_blank()) for _ in range(8)]
        assert len({id(n.replica) for n in nodes}) == 1
        assert store.distinct_replicas == 1
        assert nodes[0].replica.refs == 8

    def test_full_group_mutates_in_place(self):
        store = ReplicaStore(blank_pool())
        nodes = [FakeNode(store.acquire_blank()) for _ in range(8)]
        before = nodes[0].pool
        store.apply(nodes, ("w", "a"), write("a"))
        assert nodes[0].pool is before  # no clone
        assert store.distinct_replicas == 1
        assert all(n.pool.dataset(CCVOLUME).has_file("a") for n in nodes)

    def test_partial_group_forks_once(self):
        store = ReplicaStore(blank_pool())
        nodes = [FakeNode(store.acquire_blank()) for _ in range(8)]
        store.apply(nodes[:3], ("w", "a"), write("a"))
        assert store.distinct_replicas == 2
        assert len({id(n.replica) for n in nodes[:3]}) == 1
        assert all(n.pool.dataset(CCVOLUME).has_file("a") for n in nodes[:3])
        assert not any(n.pool.dataset(CCVOLUME).has_file("a") for n in nodes[3:])
        assert nodes[0].replica.refs == 3
        assert nodes[3].replica.refs == 5

    def test_replaying_history_repoints_to_mainline(self):
        """A rejoining node that replays the ops its peers already applied
        converges back onto the shared replica — zero pool work."""
        store = ReplicaStore(blank_pool())
        nodes = [FakeNode(store.acquire_blank()) for _ in range(4)]
        straggler = nodes[3]
        store.apply(nodes[:3], ("w", "a"), write("a"))
        store.apply(nodes[:3], ("w", "b"), write("b"))
        assert store.distinct_replicas == 2
        store.apply([straggler], ("w", "a"), write("a"))
        store.apply([straggler], ("w", "b"), write("b"))
        assert straggler.replica is nodes[0].replica
        assert store.distinct_replicas == 1

    def test_when_guard_is_per_replica(self):
        store = ReplicaStore(blank_pool())
        nodes = [FakeNode(store.acquire_blank()) for _ in range(4)]
        store.apply(nodes[:2], ("w", "a"), write("a"))
        # guarded delete: only the replica holding "a" is touched
        store.apply(
            nodes,
            ("del", "a"),
            lambda pool: pool.dataset(CCVOLUME).delete_file("a"),
            when=lambda pool: pool.dataset(CCVOLUME).has_file("a"),
        )
        assert not any(n.pool.dataset(CCVOLUME).has_file("a") for n in nodes)

    def test_same_history_same_pool_as_private_nodes(self):
        """Flyweight nodes read identically to naive one-pool-per-node."""
        store = ReplicaStore(blank_pool())
        shared = [FakeNode(store.acquire_blank()) for _ in range(3)]
        private = [FakeNode(Replica(blank_pool())) for _ in range(3)]
        for replica in (n.replica for n in private):
            replica.refs = 1
        script = [
            (slice(None), ("w", "a")),
            (slice(0, 2), ("w", "b")),
            (slice(2, 3), ("w", "c")),
            (slice(None), ("w", "d")),
        ]
        for subset, (op, name) in script:
            store.apply(shared[subset], (op, name), write(name))
            apply_to_nodes(None, private[subset], (op, name), write(name))
        for s_node, p_node in zip(shared, private):
            s_vol, p_vol = (
                n.pool.dataset(CCVOLUME) for n in (s_node, p_node)
            )
            for name in "abcd":
                assert s_vol.has_file(name) == p_vol.has_file(name)
            assert s_node.pool.ddt.entry_count == p_node.pool.ddt.entry_count


class TestClusterIntegration:
    def test_build_wires_store_and_shared_blank(self):
        cluster = IaaSCluster.build(n_compute=6, n_storage=4)
        assert cluster.replicas is not None
        assert cluster.replicas.distinct_replicas == 1
        assert len({id(n.replica) for n in cluster.compute}) == 1

    def test_fleet_register_keeps_one_replica(self):
        cluster = IaaSCluster.build(n_compute=12, n_storage=4)
        estimator = make_estimator("gzip6", (65536,), samples_per_point=2)
        squirrel = Squirrel(cluster=cluster, estimator=estimator)
        dataset = LazyImageCatalog(DatasetConfig(scale=1 / 4096))
        for spec in dataset.specs[:5]:
            squirrel.register(spec)
        assert cluster.replicas.distinct_replicas == 1
        cache = squirrel.cache_file_of(dataset.specs[0].image_id)
        assert all(
            node.ccvolume.has_file(cache) for node in cluster.compute
        )

    def test_offline_node_diverges_then_catches_up(self):
        cluster = IaaSCluster.build(n_compute=6, n_storage=4)
        estimator = make_estimator("gzip6", (65536,), samples_per_point=2)
        squirrel = Squirrel(cluster=cluster, estimator=estimator)
        dataset = LazyImageCatalog(DatasetConfig(scale=1 / 4096))
        squirrel.register(dataset.specs[0])
        straggler = cluster.compute[2]
        straggler.online = False
        squirrel.register(dataset.specs[1])
        assert cluster.replicas.distinct_replicas == 2
        straggler.online = True
        squirrel.resync_node(straggler.name)
        cache = squirrel.cache_file_of(dataset.specs[1].image_id)
        assert straggler.ccvolume.has_file(cache)
        # replaying the same receive chain repoints back onto the mainline
        assert cluster.replicas.distinct_replicas == 1
