"""Integration tests: Squirrel boots under a placement coordinator.

These pin the accounting contracts the placement subsystem promises: peer
redirects ride their own ledger purpose (never inflating boot-read ingress
or the glusterfs served-bytes tallies), adoption respects its per-node
budget, all-holders-down falls back to the origin, and a rejoining node is
re-seeded with exactly its assigned caches.
"""

import pytest

from repro.common.errors import ConfigError
from repro.core import IaaSCluster, Squirrel
from repro.core.cluster import compute_name
from repro.placement import (
    PEER_REDIRECT_PURPOSE,
    SEED_PURPOSE,
    PlacementContext,
    PlacementSpec,
    build_coordinator,
)
from repro.shard import ShardRouter, build_plan
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator
from repro.workload import StormConfig
from repro.workload.rig import _build_rig

SCALE = 1 / 1024
BLOCK = 65536
N_COMPUTE = 6
N_IMAGES = 4
#: Zipf(1) over the four images, image 0 hottest
POPULARITY = (0.48, 0.24, 0.16, 0.12)


@pytest.fixture(scope="module")
def dataset():
    return LazyImageCatalog(DatasetConfig(scale=SCALE))


def coordinator_for(spec=None, n_compute=N_COMPUTE):
    spec = spec or PlacementSpec(policy="top_k", top_k=1, replica_floor=2)
    context = PlacementContext(
        nodes=tuple(compute_name(i) for i in range(n_compute)),
        popularity=POPULARITY,
    )
    return build_coordinator(spec, context)


def bare_squirrel():
    cluster = IaaSCluster.build(
        n_compute=N_COMPUTE, n_storage=4, block_size=BLOCK
    )
    estimator = make_estimator("gzip6", (BLOCK,), samples_per_point=2)
    return Squirrel(cluster=cluster, estimator=estimator)


def make_rig(dataset, spec=None):
    squirrel = bare_squirrel()
    coordinator_for(spec).install(squirrel)
    return squirrel


class TestSeeding:
    def test_register_installs_on_holders_only(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[1]  # image 1 is tail: 2 scattered replicas
        squirrel.register(spec)
        coord = squirrel.placement
        holders = set(coord.directory.holders(spec.image_id))
        assert len(holders) == 2
        cache = squirrel.cache_file_of(spec.image_id)
        for node in squirrel.cluster.compute:
            assert node.ccvolume.has_file(cache) == (node.name in holders)

    def test_seed_traffic_has_its_own_purpose(self, dataset):
        squirrel = make_rig(dataset)
        squirrel.register(dataset.specs[0])
        ledger = squirrel.cluster.ledger
        assert ledger.total_bytes(purpose=SEED_PURPOSE) > 0
        assert (
            squirrel.cluster.compute_ingress_bytes(purpose="boot-read") == 0
        )

    def test_hot_image_is_fleet_wide(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[0]  # top_k=1: image 0 is the hot set
        squirrel.register(spec)
        assert len(squirrel.placement.directory.holders(spec.image_id)) == (
            N_COMPUTE
        )

    def test_deregister_removes_from_holders(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[1]
        squirrel.register(spec)
        cache = squirrel.cache_file_of(spec.image_id)
        squirrel.deregister(spec.image_id)
        assert squirrel.placement.directory.holders(spec.image_id) == ()
        for node in squirrel.cluster.compute:
            assert not node.ccvolume.has_file(cache)


class TestPeerRedirect:
    def test_miss_on_non_holder_redirects_to_peer(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[1]
        squirrel.register(spec)
        coord = squirrel.placement
        holders = set(coord.directory.holders(spec.image_id))
        reader = next(
            node.name
            for node in squirrel.cluster.compute
            if node.name not in holders
        )
        before = squirrel.cluster.compute_ingress_bytes(purpose="boot-read")
        outcome = squirrel.boot(spec.image_id, reader)
        assert outcome.source == "peer"
        assert outcome.peer in holders
        assert not outcome.cache_hit
        assert outcome.network_bytes == spec.cache_bytes
        assert coord.peer_redirects == 1
        assert coord.redirect_bytes == spec.cache_bytes
        # the redirect is not boot-read traffic and never touches a brick
        assert (
            squirrel.cluster.compute_ingress_bytes(purpose="boot-read")
            == before
        )
        gluster = squirrel.cluster.storage.gluster
        ledger = squirrel.cluster.ledger
        assert ledger.bytes_into(reader) == ledger.bytes_into(
            reader, purpose=PEER_REDIRECT_PURPOSE
        )
        gluster.verify_served_accounting()

    def test_boot_on_holder_is_local_hit(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[1]
        squirrel.register(spec)
        holder = squirrel.placement.directory.holders(spec.image_id)[0]
        outcome = squirrel.boot(spec.image_id, holder)
        assert outcome.cache_hit and outcome.source == "cache"
        assert outcome.network_bytes == 0

    def test_all_holders_down_falls_back_to_origin(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[1]
        squirrel.register(spec)
        coord = squirrel.placement
        holders = set(coord.directory.holders(spec.image_id))
        for name in holders:
            squirrel.cluster.node(name).online = False
        reader = next(
            node.name
            for node in squirrel.cluster.compute
            if node.name not in holders
        )
        outcome = squirrel.boot(spec.image_id, reader)
        assert outcome.source == "origin"
        assert coord.origin_fallbacks == 1
        assert coord.peer_redirects == 0
        assert outcome.network_bytes > 0
        squirrel.cluster.storage.gluster.verify_served_accounting()

    def test_dead_holder_fails_over_to_survivor(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[1]
        squirrel.register(spec)
        coord = squirrel.placement
        holders = coord.directory.holders(spec.image_id)
        squirrel.cluster.node(holders[0]).online = False
        reader = next(
            node.name
            for node in squirrel.cluster.compute
            if node.name not in holders
        )
        outcome = squirrel.boot(spec.image_id, reader)
        assert outcome.source == "peer"
        assert outcome.peer != holders[0]
        assert outcome.peer in holders


class TestAdoption:
    def test_budget_zero_never_adopts(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[1]
        squirrel.register(spec)
        holders = set(squirrel.placement.directory.holders(spec.image_id))
        reader = next(
            node.name
            for node in squirrel.cluster.compute
            if node.name not in holders
        )
        outcome = squirrel.boot(spec.image_id, reader)
        assert not outcome.adopted
        assert squirrel.placement.adoptions == 0

    def test_adoption_within_budget_makes_future_boots_local(self, dataset):
        placement_spec = PlacementSpec(
            policy="top_k", top_k=0, replica_floor=2,
            adopt_budget_bytes=1 << 30,
        )
        squirrel = make_rig(dataset, placement_spec)
        spec = dataset.specs[1]
        squirrel.register(spec)
        coord = squirrel.placement
        holders = set(coord.directory.holders(spec.image_id))
        reader = next(
            node.name
            for node in squirrel.cluster.compute
            if node.name not in holders
        )
        first = squirrel.boot(spec.image_id, reader)
        assert first.adopted
        assert coord.adoptions == 1
        assert coord.adopted_bytes == spec.cache_bytes
        assert coord.directory.holds(reader, spec.image_id)
        second = squirrel.boot(spec.image_id, reader)
        assert second.cache_hit and second.source == "cache"

    def test_budget_exhaustion_stops_adoption(self, dataset):
        spec0, spec1 = dataset.specs[1], dataset.specs[2]
        budget = spec0.cache_bytes + spec1.cache_bytes // 2
        placement_spec = PlacementSpec(
            policy="top_k", top_k=0, replica_floor=2,
            adopt_budget_bytes=budget,
        )
        squirrel = make_rig(dataset, placement_spec)
        squirrel.register(spec0)
        squirrel.register(spec1)
        coord = squirrel.placement
        reader = next(
            node.name
            for node in squirrel.cluster.compute
            if not coord.directory.holds(node.name, spec0.image_id)
            and not coord.directory.holds(node.name, spec1.image_id)
        )
        assert squirrel.boot(spec0.image_id, reader).adopted
        assert not squirrel.boot(spec1.image_id, reader).adopted
        assert coord.adoptions == 1


class TestReseed:
    def test_rejoining_holder_pulls_assigned_caches(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[0]  # hot: every node is a holder
        offline = squirrel.cluster.compute[3]
        offline.online = False
        squirrel.register(spec)
        cache = squirrel.cache_file_of(spec.image_id)
        assert not offline.ccvolume.has_file(cache)
        offline.online = True
        moved = squirrel.resync_node(offline.name)
        assert moved == spec.cache_bytes
        assert offline.ccvolume.has_file(cache)
        ledger = squirrel.cluster.ledger
        assert (
            ledger.bytes_into(offline.name, purpose=SEED_PURPOSE)
            == spec.cache_bytes
        )
        assert squirrel.placement.reseed_bytes == spec.cache_bytes

    def test_reseed_skips_non_holders(self, dataset):
        squirrel = make_rig(dataset)
        spec = dataset.specs[1]  # tail: 2 replicas
        squirrel.register(spec)
        holders = set(squirrel.placement.directory.holders(spec.image_id))
        outsider = next(
            node
            for node in squirrel.cluster.compute
            if node.name not in holders
        )
        assert squirrel.resync_node(outsider.name) == 0
        assert not outsider.ccvolume.has_file(
            squirrel.cache_file_of(spec.image_id)
        )


class TestInstall:
    def test_fleet_mismatch_is_rejected(self):
        squirrel = bare_squirrel()
        coordinator = coordinator_for(n_compute=N_COMPUTE - 1)
        with pytest.raises(ConfigError, match="does not match the cluster fleet"):
            coordinator.install(squirrel)
        assert squirrel.placement is None


class TestShardingGuard:
    def test_sharding_and_placement_cannot_combine(self, dataset):
        squirrel = make_rig(dataset)
        plan = build_plan(dataset.specs[:N_IMAGES], 2, "similarity")
        with pytest.raises(ConfigError, match="cannot be combined"):
            ShardRouter(plan).install(squirrel)


class TestTimedRegistration:
    def test_timed_register_under_placement_is_rejected(self, dataset):
        """The timed rig models the paper's fleet-wide multicast only: a
        timed registration under a coordinator would charge a multicast
        that never happened, so it is refused before anything runs."""
        config = StormConfig(
            n_nodes=N_COMPUTE, n_storage=4, block_size=BLOCK, scale=SCALE
        )
        rig = _build_rig(
            config, seed=0, dataset=dataset, attach=coordinator_for()
        )
        with pytest.raises(ConfigError, match="not modelled"):
            rig.timed.register(dataset.specs[0])
        assert rig.squirrel.registrations == []
