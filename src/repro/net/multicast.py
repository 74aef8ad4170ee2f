"""One-to-many distribution: IP multicast and unicast fan-out baselines.

Squirrel propagates each new cache's snapshot diff from a storage node to
every online compute node (Section 3.2). With IP multicast the payload
crosses the sender's link once and arrives at every receiver; with naive
unicast the sender pays ``n_receivers × size``. The paper notes a diff of
O(100 MB) multicasts in a couple of seconds on 1 GbE.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import NetworkError
from .topology import LinkProfile, Node, TransferLedger

__all__ = ["MulticastResult", "multicast", "unicast_fanout"]


@dataclass(frozen=True)
class MulticastResult:
    n_bytes: int
    n_receivers: int
    duration_s: float
    sender_bytes: int  #: bytes that crossed the sender's uplink


def multicast(
    ledger: TransferLedger,
    sender: Node,
    receivers: list[Node],
    n_bytes: int,
    *,
    purpose: str = "cache-propagation",
    loss_retransmit_factor: float = 1.02,
) -> MulticastResult:
    """Multicast ``n_bytes`` from ``sender`` to ``receivers``.

    Every receiver ingests the payload (recorded in the ledger); the sender
    transmits it once (plus a small NACK/retransmit overhead). The duration
    is bounded by the slowest link in the group — multicast runs at the rate
    of its slowest member.
    """
    if n_bytes < 0:
        raise NetworkError("negative multicast size")
    if not receivers:
        return MulticastResult(n_bytes, 0, 0.0, 0)
    wire_bytes = int(n_bytes * loss_retransmit_factor)
    # a fleet usually shares one LinkProfile object; dedup by identity
    # (keeping first-occurrence order, so ties resolve as before) instead
    # of evaluating the bytes_per_s property once per receiver
    links: dict[int, LinkProfile] = {id(sender.link): sender.link}
    for r in receivers:
        link = r.link
        if id(link) not in links:
            links[id(link)] = link
    slowest: LinkProfile = min(links.values(), key=lambda l: l.bytes_per_s)
    duration = slowest.transfer_time(wire_bytes)
    ledger.record_fanout(sender.name, [r.name for r in receivers], n_bytes, purpose)
    return MulticastResult(
        n_bytes=n_bytes,
        n_receivers=len(receivers),
        duration_s=duration,
        sender_bytes=wire_bytes,
    )


def unicast_fanout(
    ledger: TransferLedger,
    sender: Node,
    receivers: list[Node],
    n_bytes: int,
    *,
    purpose: str = "cache-propagation",
) -> MulticastResult:
    """Baseline: send the payload to each receiver separately (e.g. rsync).

    The sender's uplink serialises the copies — the many-to-one bottleneck
    Section 3.5 argues against.
    """
    if not receivers:
        return MulticastResult(n_bytes, 0, 0.0, 0)
    duration = sender.link.transfer_time(n_bytes, streams=len(receivers))
    ledger.record_fanout(sender.name, [r.name for r in receivers], n_bytes, purpose)
    return MulticastResult(
        n_bytes=n_bytes,
        n_receivers=len(receivers),
        duration_s=duration * len(receivers),
        sender_bytes=n_bytes * len(receivers),
    )
