"""Unit tests for the striped+replicated parallel FS."""

import pytest

from repro.common.errors import NetworkError
from repro.net import GlusterVolume, Node, NodeKind, TransferLedger


def storage_nodes(n=4):
    return [Node(f"st{i}", NodeKind.STORAGE) for i in range(n)]


@pytest.fixture
def volume():
    ledger = TransferLedger()
    return GlusterVolume(storage_nodes(), stripe_count=2, replica_count=2,
                         ledger=ledger)


class TestConfiguration:
    def test_paper_configuration(self, volume):
        """Section 4.4: two levels of striping, two of replication, 4 nodes."""
        assert len(volume.groups) == 2
        assert all(len(g) == 2 for g in volume.groups)

    def test_node_count_must_match(self):
        with pytest.raises(NetworkError, match="needs"):
            GlusterVolume(storage_nodes(3), stripe_count=2, replica_count=2)

    def test_compute_nodes_rejected(self):
        nodes = storage_nodes(3) + [Node("c0", NodeKind.COMPUTE)]
        with pytest.raises(NetworkError, match="not a storage node"):
            GlusterVolume(nodes, stripe_count=2, replica_count=2)


class TestNamespace:
    def test_create_and_size(self, volume):
        volume.create_file("vmi-1", 1 << 30)
        assert volume.has_file("vmi-1")
        assert volume.file_size("vmi-1") == 1 << 30

    def test_duplicate_rejected(self, volume):
        volume.create_file("vmi-1", 100)
        with pytest.raises(NetworkError):
            volume.create_file("vmi-1", 100)

    def test_upload_records_replicated_traffic(self, volume):
        volume.create_file("vmi-1", 1 << 20, writer="uploader")
        # stripe share of each group is size/2, written to 2 replicas each
        assert volume.ledger.bytes_out_of("uploader") == 2 * (1 << 20)

    def test_missing_file(self, volume):
        with pytest.raises(NetworkError):
            volume.file_size("nope")


class TestReads:
    def test_read_records_compute_ingress(self, volume):
        volume.create_file("vmi-1", 1 << 20)
        moved = volume.read("vmi-1", 0, 256 * 1024, reader="c0")
        assert moved == 256 * 1024
        assert volume.ledger.bytes_into("c0") == 256 * 1024

    def test_reads_split_on_stripe_boundaries(self, volume):
        volume.create_file("vmi-1", 1 << 20)
        volume.read("vmi-1", 0, 256 * 1024, reader="c0")  # two stripe units
        # both replica groups must have served one unit each
        for group in volume.groups:
            served = sum(volume.ledger.bytes_out_of(node.name) for node in group)
            assert served == 128 * 1024

    def test_replica_round_robin_spreads_load(self, volume):
        volume.create_file("vmi-1", 8 << 20)
        for _ in range(8):
            volume.read("vmi-1", 0, 4 << 20, reader="c0")
        load = volume.storage_read_load()
        assert all(v > 0 for v in load.values()), f"idle replica: {load}"

    def test_read_past_end_rejected(self, volume):
        volume.create_file("vmi-1", 1000)
        with pytest.raises(NetworkError):
            volume.read("vmi-1", 900, 200, reader="c0")

    def test_read_unknown_file(self, volume):
        with pytest.raises(NetworkError):
            volume.read("nope", 0, 10, reader="c0")


class TestServedAccounting:
    """The O(1) served tallies must agree with the ledger — including on
    the degraded path, where survivors absorb a dead brick's ranges."""

    def test_healthy_path_tallies_match_ledger(self, volume):
        volume.create_file("vmi-1", 4 << 20)
        volume.read("vmi-1", 0, 2 << 20, reader="c0")
        computed = volume.verify_served_accounting()
        assert sum(computed.values()) == 2 << 20

    def test_degraded_reads_route_onto_survivor_once(self, volume):
        volume.create_file("vmi-1", 4 << 20)
        dead = volume.groups[0][0].name
        survivor = volume.groups[0][1].name
        volume.fail_node(dead)
        volume.read("vmi-1", 0, 2 << 20, reader="c0")
        # group 0's ranges all land on the survivor, exactly once
        assert volume.served_bytes(dead) == 0
        assert volume.served_bytes(survivor) == 1 << 20
        computed = volume.verify_served_accounting()
        assert sum(computed.values()) == 2 << 20

    def test_restore_rejoins_the_rotation(self, volume):
        volume.create_file("vmi-1", 8 << 20)
        dead = volume.groups[0][0].name
        volume.fail_node(dead)
        volume.read("vmi-1", 0, 4 << 20, reader="c0")
        volume.restore_node(dead)
        for _ in range(4):
            volume.read("vmi-1", 0, 4 << 20, reader="c0")
        assert volume.served_bytes(dead) > 0
        volume.verify_served_accounting()

    def test_upload_traffic_never_counts_as_service(self, volume):
        volume.create_file("vmi-1", 1 << 20, writer="uploader")
        volume.read("vmi-1", 0, 256 * 1024, reader="c0")
        computed = volume.verify_served_accounting()
        assert sum(computed.values()) == 256 * 1024

    def test_non_read_storage_traffic_excluded(self, volume):
        """Storage-sourced ledger records that bypass the bricks (placement
        seeding, snapshot multicast, peer redirects) must not count."""
        volume.create_file("vmi-1", 1 << 20)
        volume.read("vmi-1", 0, 256 * 1024, reader="c0")
        brick = volume.groups[0][0].name
        volume.ledger.record(brick, "c1", 999, "placement-seed")
        volume.ledger.record("c2", "c1", 999, "peer-redirect")
        computed = volume.verify_served_accounting()
        assert sum(computed.values()) == 256 * 1024

    def test_read_load_after_registrations_is_brick_service(self):
        """Registration multicasts leave the primary brick but are not brick
        reads: read load equals the served tallies, cold boots included."""
        from repro.core import IaaSCluster, Squirrel
        from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator

        dataset = LazyImageCatalog(DatasetConfig(scale=1 / 2048))
        cluster = IaaSCluster.build(n_compute=4, n_storage=4, block_size=65536)
        squirrel = Squirrel(
            cluster=cluster,
            estimator=make_estimator("gzip6", (65536,), samples_per_point=2),
        )
        late = cluster.node("compute3")
        late.online = False
        for spec in dataset.specs[:4]:
            squirrel.register(spec)
        late.online = True
        squirrel.boot(dataset.specs[0].image_id, "compute3")  # cold: no cache
        gluster = cluster.storage.gluster
        load = gluster.storage_read_load()
        assert load == {name: gluster.served_bytes(name) for name in load}
        assert sum(load.values()) > 0
        assert sum(load.values()) == sum(gluster.verify_served_accounting().values())
        egress = {name: cluster.ledger.bytes_out_of(name) for name in load}
        assert any(egress[name] > load[name] for name in load)  # the multicasts

    def test_divergence_is_detected(self, volume):
        volume.create_file("vmi-1", 1 << 20)
        volume.read("vmi-1", 0, 256 * 1024, reader="c0")
        # a stray record under a read purpose fakes brick service
        brick = volume.groups[0][0].name
        volume.ledger.record(brick, "c9", 123, "boot-read")
        with pytest.raises(NetworkError, match="diverge"):
            volume.verify_served_accounting()
