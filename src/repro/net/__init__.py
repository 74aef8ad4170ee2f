"""Data-center network substrate: topology, parallel FS, multicast, P2P."""

from .glusterfs import GlusterVolume
from .multicast import MulticastResult, multicast, unicast_fanout
from .p2p import SwarmResult, swarm_distribute
from .topology import (
    GBE_1,
    IB_QDR,
    LinkProfile,
    Node,
    NodeKind,
    TransferLedger,
)

__all__ = [
    "GBE_1",
    "IB_QDR",
    "GlusterVolume",
    "LinkProfile",
    "MulticastResult",
    "Node",
    "NodeKind",
    "SwarmResult",
    "TransferLedger",
    "multicast",
    "swarm_distribute",
    "unicast_fanout",
]
