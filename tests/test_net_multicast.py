"""Unit tests for multicast / unicast / swarm distribution."""

import pytest

from repro.net import (
    GBE_1,
    Node,
    NodeKind,
    TransferLedger,
    multicast,
    swarm_distribute,
    unicast_fanout,
)


def cluster(n_compute=8):
    sender = Node("storage0", NodeKind.STORAGE)
    receivers = [Node(f"c{i}", NodeKind.COMPUTE) for i in range(n_compute)]
    return sender, receivers


class TestMulticast:
    def test_every_receiver_ingests_payload(self):
        ledger = TransferLedger()
        sender, receivers = cluster(8)
        result = multicast(ledger, sender, receivers, 100 << 20)
        for r in receivers:
            assert ledger.bytes_into(r.name) == 100 << 20
        assert result.n_receivers == 8

    def test_sender_pays_once(self):
        ledger = TransferLedger()
        sender, receivers = cluster(64)
        result = multicast(ledger, sender, receivers, 100 << 20)
        assert result.sender_bytes < 1.1 * (100 << 20)

    def test_duration_independent_of_receiver_count(self):
        ledger = TransferLedger()
        sender, receivers = cluster(64)
        few = multicast(ledger, sender, receivers[:2], 100 << 20)
        many = multicast(ledger, sender, receivers, 100 << 20)
        assert many.duration_s == pytest.approx(few.duration_s)

    def test_100mb_in_couple_of_seconds(self):
        """Section 3.2's claim for commodity 1 GbE."""
        ledger = TransferLedger()
        sender, receivers = cluster(64)
        result = multicast(ledger, sender, receivers, 100 << 20)
        assert result.duration_s < 2.0

    def test_empty_receivers(self):
        ledger = TransferLedger()
        sender, _ = cluster()
        result = multicast(ledger, sender, [], 1000)
        assert result.duration_s == 0.0
        assert ledger.total_bytes() == 0


class TestUnicastFanout:
    def test_sender_pays_n_times(self):
        ledger = TransferLedger()
        sender, receivers = cluster(8)
        result = unicast_fanout(ledger, sender, receivers, 10 << 20)
        assert result.sender_bytes == 8 * (10 << 20)

    def test_slower_than_multicast(self):
        ledger = TransferLedger()
        sender, receivers = cluster(16)
        uni = unicast_fanout(ledger, sender, receivers, 50 << 20)
        multi = multicast(ledger, sender, receivers, 50 << 20)
        assert uni.duration_s > 4 * multi.duration_s


class TestSwarm:
    def test_receivers_ingest_full_payload(self):
        ledger = TransferLedger()
        sender, receivers = cluster(16)
        swarm_distribute(ledger, sender, receivers, 10 << 20)
        for r in receivers:
            assert ledger.bytes_into(r.name) == 10 << 20

    def test_origin_relieved_vs_unicast(self):
        ledger = TransferLedger()
        sender, receivers = cluster(64)
        result = swarm_distribute(ledger, sender, receivers, 10 << 20)
        assert result.origin_bytes < 64 * (10 << 20) / 4

    def test_peers_upload(self):
        ledger = TransferLedger()
        sender, receivers = cluster(32)
        result = swarm_distribute(ledger, sender, receivers, 10 << 20)
        assert result.peer_upload_bytes > 0
        # compute-node egress is the cost Squirrel avoids
        peer_egress = sum(ledger.bytes_out_of(r.name) for r in receivers)
        assert peer_egress == result.peer_upload_bytes

    def test_total_conservation(self):
        """Bytes sourced (origin + peers) equal bytes ingested."""
        ledger = TransferLedger()
        sender, receivers = cluster(8)
        result = swarm_distribute(ledger, sender, receivers, 10 << 20)
        assert result.origin_bytes + result.peer_upload_bytes == 8 * (10 << 20)

    @pytest.mark.parametrize(
        "n_receivers, n_bytes", [(3, 1_000), (64, 123_457), (7, 1)]
    )
    def test_ledger_conserves_origin_and_peer_bytes(self, n_receivers, n_bytes):
        """The ledger's origin and peer egress match the result exactly,
        whatever the payload's remainder over the receivers."""
        ledger = TransferLedger()
        sender, receivers = cluster(n_receivers)
        result = swarm_distribute(ledger, sender, receivers, n_bytes)
        assert ledger.bytes_out_of(sender.name) == result.origin_bytes
        peer_egress = sum(ledger.bytes_out_of(r.name) for r in receivers)
        assert peer_egress == result.peer_upload_bytes
        for r in receivers:
            assert ledger.bytes_into(r.name) == n_bytes
