"""Cluster topology: nodes, NICs, and the transfer ledger.

The evaluation cluster (DAS-4/VU, Section 4) is a star: up to 68 nodes on a
commodity 1 GbE switch plus QDR InfiniBand. Figure 18's metric is *bytes
moved to compute nodes*, so the first-class object here is the
:class:`TransferLedger` — every simulated byte movement adds to running
sums per endpoint and purpose, and the figure queries those sums.

Timing is intentionally coarse (bandwidth/latency bounds with a many-to-one
contention factor): the paper's network experiment reports transfer *sizes*,
and timing only needs to be plausible for the propagation examples.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from ..common.errors import NetworkError

__all__ = [
    "LinkProfile",
    "GBE_1",
    "IB_QDR",
    "NodeKind",
    "Node",
    "TransferLedger",
]


@dataclass(frozen=True)
class LinkProfile:
    """A NIC/link technology."""

    name: str
    bandwidth_bps: float  #: payload bandwidth, bits per second
    latency_s: float
    #: protocol efficiency (headers, TCP dynamics): fraction of raw bandwidth
    efficiency: float = 0.9

    @property
    def bytes_per_s(self) -> float:
        return self.bandwidth_bps * self.efficiency / 8.0

    def transfer_time(self, n_bytes: int, *, streams: int = 1) -> float:
        """Seconds to move ``n_bytes`` when ``streams`` flows share the link."""
        if n_bytes < 0:
            raise NetworkError("negative transfer size")
        return self.latency_s + n_bytes * max(1, streams) / self.bytes_per_s

    def make_pipe(self, engine, *, name: str | None = None, timeline=None):
        """Service-time hook for the event engine: this link as a shared
        :class:`repro.sim.Pipe` (processor-sharing at the NIC's payload
        rate), so concurrent timed transfers contend realistically instead
        of using the closed-form ``transfer_time`` bound. With a
        ``timeline``, the pipe observes per-flow contention overhead."""
        from ..sim import Pipe  # local import: keep repro.net importable alone

        return Pipe(
            engine, self.bytes_per_s, latency_s=self.latency_s,
            name=name or self.name, timeline=timeline,
        )


#: commodity gigabit Ethernet (DAS-4's default fabric)
GBE_1 = LinkProfile("1GbE", 1e9, 120e-6)
#: QDR InfiniBand, 32 Gb/s theoretical (Section 4)
IB_QDR = LinkProfile("QDR-IB", 32e9, 2e-6, efficiency=0.8)


class NodeKind(Enum):
    """Role of a cluster node."""

    COMPUTE = "compute"
    STORAGE = "storage"


@dataclass(frozen=True)
class Node:
    """One cluster node."""

    name: str
    kind: NodeKind
    link: LinkProfile = GBE_1


@dataclass
class TransferLedger:
    """Running byte sums of every network transfer in an experiment.

    Each transfer adds its bytes to per-endpoint sums keyed on
    ``(name, purpose)`` (and ``(name, None)`` across purposes) and to
    per-purpose totals; no per-transfer rows are kept, so the ledger grows
    with endpoints × purposes, not with transfers — Squirrel multicasts
    every cache to every node, so per-transfer state would grow with
    fleet × registrations. The sums cover the ledger's whole life: a
    measurement of one phase is the difference of a query taken before
    and after it.
    """

    #: (dst, purpose) -> bytes; and (dst, None) -> bytes across purposes
    _into: dict[tuple[str, str | None], int] = field(default_factory=dict)
    _out_of: dict[tuple[str, str | None], int] = field(default_factory=dict)
    _totals: dict[str | None, int] = field(default_factory=dict)

    def record(self, src: str, dst: str, n_bytes: int, purpose: str) -> None:
        """One sender, one receiver."""
        self.record_fanout(src, (dst,), n_bytes, purpose)

    def record_fanout(
        self, src: str, dsts: Sequence[str], n_bytes: int, purpose: str
    ) -> None:
        """One sender sends the same ``n_bytes`` to each of ``dsts`` (a
        multicast, or a unicast fan-out of one payload)."""
        if n_bytes < 0:
            raise NetworkError("negative transfer size")
        into = self._into
        for dst in dsts:
            key = (dst, purpose)
            into[key] = into.get(key, 0) + n_bytes
            key = (dst, None)
            into[key] = into.get(key, 0) + n_bytes
        total = n_bytes * len(dsts)
        out_of, totals = self._out_of, self._totals
        for key in ((src, purpose), (src, None)):
            out_of[key] = out_of.get(key, 0) + total
        for key in (purpose, None):
            totals[key] = totals.get(key, 0) + total

    # -- queries (Figure 18's metrics) ----------------------------------------

    def bytes_into(self, node_name: str, *, purpose: str | None = None) -> int:
        return self._into.get((node_name, purpose), 0)

    def bytes_out_of(self, node_name: str, *, purpose: str | None = None) -> int:
        return self._out_of.get((node_name, purpose), 0)

    def total_bytes(self, *, purpose: str | None = None) -> int:
        return self._totals.get(purpose, 0)

    def compute_ingress_bytes(
        self, compute_nodes: list[Node] | list[str], *, purpose: str | None = None
    ) -> int:
        """Cumulative bytes received by compute nodes — Figure 18's y-axis."""
        into = self._into
        names = {n.name if isinstance(n, Node) else n for n in compute_nodes}
        return sum(into.get((name, purpose), 0) for name in names)
