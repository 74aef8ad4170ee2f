"""Peer-to-peer distribution baseline (BitTorrent/VMTorrent-style).

Related-work comparators (Section 5.2.1) move VMI content between compute
nodes in a swarm. For the network-transfer analysis the relevant property is
that every receiver still *ingests* the full payload, and peers additionally
*upload* shares of it — so compute-node traffic is at least ``n × size``
even though the origin's uplink is relieved. Squirrel's claim (Figure 18) is
zero boot-time traffic, which no swarm can match.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import NetworkError
from .topology import Node, TransferLedger

__all__ = ["SwarmResult", "swarm_distribute"]


@dataclass(frozen=True)
class SwarmResult:
    n_bytes: int
    n_receivers: int
    duration_s: float
    origin_bytes: int  #: bytes served by the origin (seed)
    peer_upload_bytes: int  #: bytes served peer-to-peer


def swarm_distribute(
    ledger: TransferLedger,
    origin: Node,
    receivers: list[Node],
    n_bytes: int,
    *,
    purpose: str = "p2p-distribution",
    origin_share: float | None = None,
) -> SwarmResult:
    """Distribute ``n_bytes`` to ``receivers`` through a swarm.

    The origin seeds roughly ``size × (1 + log2 n)`` pieces (each piece must
    leave the seed once, and early pieces fan out through the swarm); peers
    source the rest from each other. Per receiver the ingress is always the
    full payload. Completion time approximates the classic flash-crowd
    bound: pipelined piece exchange finishes in ``O(size/bw × (1 + log n /
    pieces))`` ≈ one payload time once the swarm is warm.
    """
    import math

    if n_bytes < 0:
        raise NetworkError("negative swarm size")
    n = len(receivers)
    if n == 0:
        return SwarmResult(n_bytes, 0, 0.0, 0, 0)
    if origin_share is None:
        origin_share = min(1.0, (1.0 + math.log2(max(1, n))) / n)
    origin_bytes = int(n_bytes * max(1.0, origin_share * n) / n * n) if n else 0
    origin_bytes = min(origin_bytes, n_bytes * n)
    peer_bytes = n_bytes * n - origin_bytes
    duration = origin.link.transfer_time(n_bytes) * (1.0 + math.log2(max(1, n)) / 16.0)
    # ledger: each receiver ingests the payload; the origin's bytes split
    # exactly across receivers (the remainder to the first ones), so origin
    # and peer egress sum to origin_bytes and peer_bytes
    base, remainder = divmod(origin_bytes, n)
    for index, receiver in enumerate(receivers):
        from_origin = base + (index < remainder)
        from_peers = n_bytes - from_origin
        ledger.record(origin.name, receiver.name, from_origin, purpose)
        if from_peers > 0:
            peer = receivers[(index + 1) % n]
            ledger.record(peer.name, receiver.name, from_peers, purpose)
    return SwarmResult(
        n_bytes=n_bytes,
        n_receivers=n,
        duration_s=duration,
        origin_bytes=origin_bytes,
        peer_upload_bytes=peer_bytes,
    )
