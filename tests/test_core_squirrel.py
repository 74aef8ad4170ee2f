"""Integration tests for the Squirrel core: register / boot / deregister,
garbage collection, offline propagation.

The register/boot/deregister/GC/resync classes run over the default
one-shard cVolume, and their ``*Sharded`` subclasses rerun them over a
one-shard :class:`~repro.shard.ShardRouter` adopting the global domain and
over a three-shard router. The three-shard plan homes every image the
shared tests touch (ids 0-11) in ``s01`` — a shard with its own storage
dataset, node dataset and dedup domain — so the shared chain expectations
hold verbatim; ids from 12 up fall back to ``id % 3`` and
:class:`TestThreeShards` spreads them over all three chains.
"""

import pytest

from repro.common.errors import ConfigError, RegistrationError
from repro.core import IaaSCluster, Squirrel, run_boot_storm
from repro.shard import ShardPlan, ShardRouter, shard_name
from repro.sim import Engine, Timeline
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator
from repro.workload.timed import TimedSquirrel
from repro.zfs import generate_send

SCALE = 1 / 1024
BLOCK = 65536
SHARDS3 = tuple(shard_name(i) for i in range(3))


@pytest.fixture(scope="module")
def dataset():
    return LazyImageCatalog(DatasetConfig(scale=SCALE))


def make_squirrel(layout: str) -> Squirrel:
    """``one-shard``: the default cVolume; ``one-shard-router``: a router
    adopting the global domain; ``three-shard``: three dedup domains."""
    cluster = IaaSCluster.build(n_compute=6, n_storage=4, block_size=BLOCK)
    estimator = make_estimator("gzip6", (BLOCK,), samples_per_point=2)
    squirrel = Squirrel(cluster=cluster, estimator=estimator, gc_window_days=7)
    if layout == "one-shard-router":
        plan = ShardPlan("tenant", SHARDS3[:1])
    elif layout == "three-shard":
        plan = ShardPlan(
            "tenant", SHARDS3, {i: SHARDS3[1] for i in range(12)}
        )
    else:
        return squirrel
    router = ShardRouter(plan)
    squirrel.sharding = router
    router.install(squirrel)
    return squirrel


@pytest.fixture
def rig(dataset):
    return make_squirrel("one-shard"), dataset


# -- shard-aware reads: where an image's chain and cache live ------------------


def scvol_of(squirrel, image_id: int):
    """Storage dataset holding ``image_id``'s snapshot chain."""
    return squirrel.cvolume.chain_of(image_id).dataset


def cc_of(squirrel, node, image_id: int):
    """Node dataset replicating ``image_id``'s chain."""
    return node.pool.dataset(squirrel.cvolume.chain_of(image_id).cc_name)


def synced(squirrel, node, image_id: int):
    """The node's sync point in ``image_id``'s chain."""
    return squirrel.cvolume.chain_of(image_id).synced.get(node.name)


def forget_sync(squirrel, node) -> None:
    """Make the node look brand new: no sync point in any chain."""
    for chain in squirrel.cvolume.chains.values():
        chain.synced[node.name] = None


class TestRegister:
    def test_register_propagates_to_all_online_nodes(self, rig):
        squirrel, dataset = rig
        spec = dataset.specs[0]
        record = squirrel.register(spec)
        assert record.receivers == 6
        cache = squirrel.cache_file_of(spec.image_id)
        for node in squirrel.cluster.compute:
            assert cc_of(squirrel, node, spec.image_id).has_file(cache)

    def test_register_creates_snapshot_chain(self, rig):
        squirrel, dataset = rig
        for spec in dataset.specs[:3]:
            squirrel.register(spec)
        snaps = scvol_of(squirrel, 0).snapshots()
        assert [s.name for s in snaps] == ["v00001", "v00002", "v00003"]

    def test_duplicate_registration_rejected(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.specs[0])
        with pytest.raises(RegistrationError):
            squirrel.register(dataset.specs[0])

    def test_diff_smaller_than_cache(self, rig):
        """The cVolume diff is O(10 MB) for an O(100 MB) cache (Section 5.3):
        dedup + compression shrink what actually travels."""
        squirrel, dataset = rig
        # register several images of the same release: later diffs dedup hard
        ubuntu = [
            s for s in dataset.specs
            if s.release.family == "ubuntu" and s.release.name == "13.10"
        ][:4]
        records = [squirrel.register(spec) for spec in ubuntu]
        for record in records:
            assert record.diff_bytes < record.cache_bytes
        # later registrations benefit from cross-cache dedup on the receiver
        assert records[-1].diff_bytes < records[-1].cache_bytes * 0.8

    def test_propagation_seconds_modest(self, rig):
        """Section 3.2: the whole workflow is not in the boot critical path
        and the diff multicast takes a couple of seconds at most."""
        squirrel, dataset = rig
        record = squirrel.register(dataset.specs[0])
        assert record.propagation_seconds < 2.0


class TestBoot:
    def test_warm_boot_moves_zero_bytes(self, rig):
        squirrel, dataset = rig
        spec = dataset.specs[0]
        squirrel.register(spec)
        before = squirrel.cluster.compute_ingress_bytes(purpose="boot-read")
        outcome = squirrel.boot(spec.image_id, "compute0")
        assert outcome.cache_hit
        assert outcome.network_bytes == 0
        assert squirrel.cluster.compute_ingress_bytes(purpose="boot-read") == before

    def test_unregistered_boot_rejected(self, rig):
        squirrel, _ = rig
        with pytest.raises(RegistrationError):
            squirrel.boot(42, "compute0")

    def test_cold_boot_reads_boot_set_over_network(self, rig):
        squirrel, dataset = rig
        spec = dataset.specs[0]
        squirrel.cluster.node("compute3").online = False
        squirrel.register(spec)
        squirrel.cluster.node("compute3").online = True
        outcome = squirrel.boot(spec.image_id, "compute3")
        assert not outcome.cache_hit
        assert outcome.network_bytes >= min(spec.cache_bytes, spec.nonzero_bytes)


class TestDeregisterAndGC:
    def test_deregister_removes_cache(self, rig):
        squirrel, dataset = rig
        spec = dataset.specs[0]
        squirrel.register(spec)
        squirrel.deregister(spec.image_id)
        assert not scvol_of(squirrel, spec.image_id).has_file(
            squirrel.cache_file_of(spec.image_id)
        )

    def test_deregistration_propagates_with_next_snapshot(self, rig):
        """Section 3.4: no snapshot on delete; the unlink rides the next
        registration's diff."""
        squirrel, dataset = rig
        first, second = dataset.specs[0], dataset.specs[1]
        squirrel.register(first)
        squirrel.deregister(first.image_id)
        node = squirrel.cluster.compute[0]
        cc = cc_of(squirrel, node, first.image_id)
        assert cc.has_file(squirrel.cache_file_of(first.image_id))
        squirrel.register(second)  # new snapshot carries the unlink
        cc = cc_of(squirrel, node, first.image_id)
        assert not cc.has_file(squirrel.cache_file_of(first.image_id))

    def test_gc_keeps_window_and_latest(self, rig):
        squirrel, dataset = rig
        for day, spec in enumerate(dataset.specs[:5]):
            squirrel.register(spec)
            squirrel.advance_time(3)
        victims = squirrel.collect_garbage()  # clock=15, window=7 => cutoff=8
        scvol = scvol_of(squirrel, 0)
        names = [s.name for s in scvol.snapshots()]
        assert "v00005" in names  # latest always kept
        assert victims  # something old was collected
        for victim in victims:
            assert victim not in names

    def test_gc_frees_space_of_dead_caches(self, rig):
        squirrel, dataset = rig
        spec = dataset.specs[0]
        squirrel.register(spec)
        squirrel.deregister(spec.image_id)
        squirrel.advance_time(30)
        squirrel.register(dataset.specs[1])  # snapshot carrying the unlink
        pool = squirrel.cluster.storage.pool
        used_before_gc = pool.data_bytes
        squirrel.collect_garbage()
        assert pool.data_bytes < used_before_gc


class TestOfflinePropagation:
    def test_incremental_resync_within_window(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.specs[0])
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.register(dataset.specs[1])
        squirrel.register(dataset.specs[2])
        moved = squirrel.resync_node("compute2")
        assert moved > 0
        for spec in dataset.specs[:3]:
            cc = cc_of(squirrel, node, spec.image_id)
            assert cc.has_file(squirrel.cache_file_of(spec.image_id))

    def test_resync_is_noop_when_in_sync(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.specs[0])
        assert squirrel.resync_node("compute1") == 0

    def test_full_replication_after_window_expires(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.specs[0])
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.advance_time(30)  # node misses a whole month
        squirrel.register(dataset.specs[1])
        squirrel.collect_garbage()  # v00001 falls out of the window
        moved = squirrel.resync_node("compute2")
        assert moved > 0
        assert cc_of(squirrel, node, 0).has_file(squirrel.cache_file_of(0))
        assert cc_of(squirrel, node, 1).has_file(squirrel.cache_file_of(1))
        assert synced(squirrel, node, 1) == "v00002"

    def test_new_node_receives_everything(self, rig):
        squirrel, dataset = rig
        node = squirrel.cluster.node("compute5")
        node.online = False
        forget_sync(squirrel, node)
        for spec in dataset.specs[:3]:
            squirrel.register(spec)
        squirrel.resync_node("compute5")
        for spec in dataset.specs[:3]:
            cc = cc_of(squirrel, node, spec.image_id)
            assert cc.has_file(squirrel.cache_file_of(spec.image_id))


class TestOfflineCatchupReplay:
    """Regression: catch-up must replay *all* missed incremental sends in
    snapshot order, leaving the replica's snapshot chain identical to the
    scVolume's — a node that misses two registration rounds used to receive
    one jump diff and end up without the intermediate snapshot."""

    def test_two_missed_rounds_replayed_in_order(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.specs[0])
        node = squirrel.cluster.node("compute3")
        node.online = False
        squirrel.register(dataset.specs[1])  # v00002 — missed
        squirrel.register(dataset.specs[2])  # v00003 — missed
        moved = squirrel.resync_node("compute3")
        assert moved > 0
        scvol_names = [s.name for s in scvol_of(squirrel, 0).snapshots()]
        cc_names = [s.name for s in cc_of(squirrel, node, 0).snapshots()]
        assert scvol_names == ["v00001", "v00002", "v00003"]
        assert cc_names == scvol_names
        assert synced(squirrel, node, 0) == "v00003"
        # replica content identical to a never-offline peer's
        peer = squirrel.cluster.node("compute1")
        assert sorted(cc_of(squirrel, node, 0).file_names()) == sorted(
            cc_of(squirrel, peer, 0).file_names()
        )
        # and the next multicast diff applies cleanly to the caught-up node
        squirrel.register(dataset.specs[3])
        assert cc_of(squirrel, node, 3).has_file(squirrel.cache_file_of(3))

    def test_stale_online_node_is_skipped_not_corrupted(self, rig):
        squirrel, dataset = rig
        squirrel.register(dataset.specs[0])
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.register(dataset.specs[1])
        node.online = True  # re-onlined without resync: stale synced_snapshot
        record = squirrel.register(dataset.specs[2])
        assert record.receivers == 5  # the stale node is skipped, not crashed
        assert not cc_of(squirrel, node, 2).has_file(squirrel.cache_file_of(2))
        squirrel.resync_node("compute2")
        for image_id in (0, 1, 2):
            cc = cc_of(squirrel, node, image_id)
            assert cc.has_file(squirrel.cache_file_of(image_id))


class _RouterLayouts:
    """Rerun a test class over a one-shard router and three shards."""

    @pytest.fixture(params=["one-shard-router", "three-shard"])
    def rig(self, request, dataset):
        return make_squirrel(request.param), dataset


class TestRegisterSharded(_RouterLayouts, TestRegister):
    pass


class TestBootSharded(_RouterLayouts, TestBoot):
    pass


class TestDeregisterAndGCSharded(_RouterLayouts, TestDeregisterAndGC):
    pass


class TestOfflinePropagationSharded(_RouterLayouts, TestOfflinePropagation):
    pass


class TestOfflineCatchupReplaySharded(
    _RouterLayouts, TestOfflineCatchupReplay
):
    pass


class TestThreeShards:
    """Cross-shard cases: every shard keeps its own snapshot chain, GC
    window and per-node sync point. Images 12-19 map to ``s0{id % 3}``."""

    @pytest.fixture
    def squirrel(self):
        return make_squirrel("three-shard")

    @staticmethod
    def chain(dataset) -> list[str]:
        return [snap.name for snap in dataset.snapshots()]

    def test_each_shard_keeps_its_own_chain(self, squirrel, dataset):
        for spec in dataset.specs[12:18]:
            squirrel.register(spec)
        for image_id in (12, 13, 14):
            assert self.chain(scvol_of(squirrel, image_id)) == [
                "v00001", "v00002",
            ]
            for node in squirrel.cluster.compute:
                assert synced(squirrel, node, image_id) == "v00002"

    def test_resync_replays_every_shard_chain(self, squirrel, dataset):
        for spec in dataset.specs[12:15]:
            squirrel.register(spec)
        node = squirrel.cluster.node("compute4")
        node.online = False
        missed = [squirrel.register(spec) for spec in dataset.specs[15:19]]
        moved = squirrel.resync_node("compute4")
        # the replayed incrementals are exactly the multicasts it missed
        assert moved == sum(record.diff_bytes for record in missed)
        peer = squirrel.cluster.node("compute0")
        expected = {
            12: ["v00001", "v00002", "v00003"],
            13: ["v00001", "v00002"],
            14: ["v00001", "v00002"],
        }
        for image_id, chain in expected.items():
            assert self.chain(scvol_of(squirrel, image_id)) == chain
            assert self.chain(cc_of(squirrel, node, image_id)) == chain
            assert synced(squirrel, node, image_id) == chain[-1]
            assert sorted(cc_of(squirrel, node, image_id).file_names()) == (
                sorted(cc_of(squirrel, peer, image_id).file_names())
            )
        record = squirrel.register(dataset.specs[19])
        assert record.receivers == 6

    def test_gc_collects_each_chain_and_qualifies_victims(
        self, squirrel, dataset
    ):
        for spec in dataset.specs[12:18]:
            squirrel.register(spec)
            squirrel.advance_time(3)
        # clock 18, cutoff 11: every shard's v00001 (days 0/3/6) expires,
        # every shard's latest v00002 (days 9/12/15) survives
        victims = squirrel.collect_garbage()
        assert victims == ["s00@v00001", "s01@v00001", "s02@v00001"]
        for image_id in (12, 13, 14):
            assert self.chain(scvol_of(squirrel, image_id)) == ["v00002"]
            for node in squirrel.cluster.compute:
                assert self.chain(cc_of(squirrel, node, image_id)) == [
                    "v00002"
                ]

    def test_expired_shard_is_rereplicated_alone(self, squirrel, dataset):
        for spec in dataset.specs[12:15]:
            squirrel.register(spec)
        node = squirrel.cluster.node("compute2")
        node.online = False
        squirrel.advance_time(30)
        squirrel.register(dataset.specs[15])  # s00 -> v00002
        assert squirrel.collect_garbage() == ["s00@v00001"]
        moved = squirrel.resync_node("compute2")
        full = generate_send(
            scvol_of(squirrel, 15), "v00002"
        )
        assert moved == full.size_bytes  # s01/s02 were already in sync
        assert self.chain(cc_of(squirrel, node, 15)) == ["v00002"]
        assert synced(squirrel, node, 15) == "v00002"
        for image_id in (12, 15):
            assert cc_of(squirrel, node, image_id).has_file(
                squirrel.cache_file_of(image_id)
            )
        for image_id in (13, 14):
            assert self.chain(cc_of(squirrel, node, image_id)) == ["v00001"]
            assert synced(squirrel, node, image_id) == "v00001"

    def test_unlink_rides_its_own_shards_next_snapshot(
        self, squirrel, dataset
    ):
        squirrel.register(dataset.specs[12])  # s00
        squirrel.deregister(12)
        node = squirrel.cluster.compute[0]
        cache = squirrel.cache_file_of(12)
        squirrel.register(dataset.specs[13])  # s01's diff: not s00's unlink
        assert cc_of(squirrel, node, 12).has_file(cache)
        squirrel.register(dataset.specs[15])  # s00's next snapshot
        assert not cc_of(squirrel, node, 12).has_file(cache)


class TestBootStorm:
    def test_squirrel_eliminates_boot_traffic(self, rig):
        squirrel, dataset = rig
        for spec in dataset.specs[:12]:
            squirrel.register(spec)
        result = run_boot_storm(
            squirrel, dataset, n_nodes=4, vms_per_node=3, with_caches=True
        )
        assert result.compute_ingress_bytes == 0
        assert result.cache_hits == result.boots == 12

    def test_baseline_traffic_grows_with_vms(self, rig):
        squirrel, dataset = rig
        for spec in dataset.specs[:12]:
            squirrel.register(spec)
        one = run_boot_storm(
            squirrel, dataset, n_nodes=4, vms_per_node=1, with_caches=False
        )
        many = run_boot_storm(
            squirrel, dataset, n_nodes=4, vms_per_node=3, with_caches=False
        )
        assert many.compute_ingress_bytes > 2 * one.compute_ingress_bytes


class TestRegistrationWorkflowTime:
    def test_workflow_under_a_minute(self, rig):
        """Section 3.2: the registration workflow takes no more than a
        minute (boot once + snapshot + multicast the diff), timed through
        the rig's links."""
        squirrel, dataset = rig
        engine = Engine(seed=0)
        timed = TimedSquirrel(squirrel, dataset, engine, Timeline(engine))
        timed.register(dataset.specs[0])
        engine.run()
        latency = timed.timeline.stats("register_latency_s")
        assert latency.count == 1
        assert latency.maximum < 60.0


class _StubCatalog:
    """A catalog that owns ``specs``: ``spec`` raises the real catalog's
    ``ConfigError`` for any other id, and every ``block_view`` call fails."""

    def __init__(self, *specs):
        self._by_id = {spec.image_id: spec for spec in specs}

    def spec(self, image_id):
        if image_id not in self._by_id:
            raise ConfigError(f"image {image_id} is not in the catalog")
        return self._by_id[image_id]

    def block_view(self, image_id, block_size, subject="caches"):
        raise RuntimeError("memoised view failed")


class TestCatalogViews:
    def test_view_failure_propagates_out_of_register(self, rig):
        """A failure inside the catalog's memoised view is not swallowed
        by an inline rebuild."""
        squirrel, dataset = rig
        squirrel.catalog = _StubCatalog(dataset.specs[0])
        with pytest.raises(RuntimeError, match="memoised view failed"):
            squirrel.register(dataset.specs[0])

    def test_unknown_id_builds_inline(self, rig):
        squirrel, dataset = rig
        squirrel.catalog = _StubCatalog()
        record = squirrel.register(dataset.specs[0])
        assert record.cache_bytes == dataset.specs[0].cache_bytes

