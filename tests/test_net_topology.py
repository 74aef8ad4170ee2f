"""Unit tests for topology, links, and the transfer ledger."""

import pytest

from repro.common.errors import NetworkError
from repro.net import GBE_1, IB_QDR, Node, NodeKind, TransferLedger


class TestLinkProfiles:
    def test_gbe_payload_rate(self):
        # 1 Gb/s at 90% efficiency = 112.5 MB/s
        assert GBE_1.bytes_per_s == pytest.approx(112.5e6)

    def test_ib_faster_than_gbe(self):
        assert IB_QDR.bytes_per_s > 10 * GBE_1.bytes_per_s

    def test_transfer_time_scales_with_bytes(self):
        assert GBE_1.transfer_time(2_000_000) > GBE_1.transfer_time(1_000_000)

    def test_transfer_time_includes_latency(self):
        assert GBE_1.transfer_time(0) == pytest.approx(GBE_1.latency_s)

    def test_streams_share_bandwidth(self):
        one = GBE_1.transfer_time(10_000_000, streams=1)
        four = GBE_1.transfer_time(10_000_000, streams=4)
        assert four > 3 * one

    def test_negative_size_rejected(self):
        with pytest.raises(NetworkError):
            GBE_1.transfer_time(-1)

    def test_100mb_diff_multicasts_in_seconds_on_gbe(self):
        """Section 3.2: an O(100 MB) diff takes no more than a couple of
        seconds on commodity 1 GbE."""
        assert GBE_1.transfer_time(100 << 20) < 2.0


class TestLedger:
    def test_record_and_query(self):
        ledger = TransferLedger()
        ledger.record("s1", "c1", 1000, "boot-read")
        ledger.record("s1", "c2", 500, "boot-read")
        ledger.record("c1", "s1", 200, "upload")
        assert ledger.bytes_into("c1") == 1000
        assert ledger.bytes_out_of("s1") == 1500
        assert ledger.total_bytes() == 1700

    def test_purpose_filter(self):
        ledger = TransferLedger()
        ledger.record("s1", "c1", 1000, "boot-read")
        ledger.record("s1", "c1", 111, "cache-propagation")
        assert ledger.bytes_into("c1", purpose="boot-read") == 1000
        assert ledger.bytes_into("c1", purpose="cache-propagation") == 111

    def test_compute_ingress(self):
        ledger = TransferLedger()
        compute = [Node(f"c{i}", NodeKind.COMPUTE) for i in range(3)]
        for node in compute:
            ledger.record("s1", node.name, 100, "boot-read")
        ledger.record("s1", "other", 999, "boot-read")
        assert ledger.compute_ingress_bytes(compute) == 300

    def test_compute_ingress_accepts_names(self):
        ledger = TransferLedger()
        ledger.record("s1", "c0", 100, "boot-read")
        assert ledger.compute_ingress_bytes(["c0"]) == 100

    def test_negative_rejected(self):
        ledger = TransferLedger()
        with pytest.raises(NetworkError):
            ledger.record("a", "b", -1, "x")

    def test_fanout_matches_per_receiver_record(self):
        # a fan-out must leave exactly the sums one record() per receiver
        # leaves, across every endpoint, purpose and total
        fanout, scalar = TransferLedger(), TransferLedger()
        dsts = [f"c{i}" for i in range(5)]
        fanout.record("c0", "s1", 7, "upload")
        scalar.record("c0", "s1", 7, "upload")
        fanout.record_fanout("s1", dsts, 1000, "cache-propagation")
        for dst in dsts:
            scalar.record("s1", dst, 1000, "cache-propagation")
        assert fanout._into == scalar._into
        assert fanout._out_of == scalar._out_of
        assert fanout._totals == scalar._totals
        assert fanout.bytes_out_of("s1") == 5000
        assert fanout.total_bytes(purpose="cache-propagation") == 5000

    def test_fanout_negative_rejected(self):
        ledger = TransferLedger()
        with pytest.raises(NetworkError):
            ledger.record_fanout("a", ["b"], -1, "x")
