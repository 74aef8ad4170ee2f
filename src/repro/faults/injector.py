"""The fault injector: a :class:`FaultPlan` as engine processes.

One process per scheduled fault, running against a
:class:`~repro.workload.TimedSquirrel` rig:

* **node crash** — the compute node goes offline (registrations skip it),
  its NIC blocks, and every boot in flight on it is preempted
  (:meth:`repro.sim.Process.interrupt`). After the outage the NIC unblocks
  and the node rejoins through Squirrel's offline catch-up
  (:meth:`~repro.core.Squirrel.resync_node` replays every missed
  incremental in snapshot order); only then are the waiting boots released.
* **link flap** — the target's pipe (compute NIC or storage brick uplink)
  blocks for the duration: in-flight transfers stall in place and resume,
  nothing is lost.
* **brick failure** — the brick leaves the glusterfs read rotation
  (degraded reads route onto its group's survivors), its uplink blocks, and
  boots with a fetch in flight *from that brick* are preempted so their
  retry re-plans around the dead brick.

Every state change is recorded through the rig's instrument table
(:meth:`~repro.workload.TimedSquirrel.record`): ``node_crashes`` /
``node_rejoins`` / ``link_flaps`` / ``brick_failures`` Timeline counters
(the fired ones also count in ``faults_injected_total{kind}``) and the
``node_recovery_s`` histogram (crash → resynced), which scenario reports
surface next to boot latency. Each fault also opens a span
(``fault.crash`` / ``fault.flap`` / ``fault.brick``) on the rig's tracer,
so the outage window renders right above the boots it preempted; a node
crash additionally wipes the node's in-memory ARC — the reboot loses it.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from ..sim import Engine, Event
from .plan import FaultKind, FaultPlan, FaultSpec

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives one fault plan through a timed rig; also the down-state oracle
    boots consult (``is_down`` / ``rejoin_event``)."""

    def __init__(self, timed, plan: FaultPlan) -> None:
        self.timed = timed
        self.plan = plan
        self.engine: Engine = timed.engine
        #: crashed nodes -> event triggered once the node is back *and* resynced
        self._rejoin: dict[str, Event] = {}
        self._validate()
        timed.faults = self
        # fault telemetry: the sampler tracks the down-node count through
        # every outage window, and per-kind counters record how much of the
        # plan actually fired (overlaps are skipped)
        timed.declare("faults")

    def _validate(self) -> None:
        cluster = self.timed.squirrel.cluster
        compute = {node.name for node in cluster.compute}
        storage = {node.name for node in cluster.storage.nodes}
        for fault in self.plan:
            if fault.kind is FaultKind.NODE_CRASH and fault.target not in compute:
                raise ConfigError(f"crash target {fault.target!r} is not a compute node")
            if fault.kind is FaultKind.BRICK_FAIL and fault.target not in storage:
                raise ConfigError(f"brick target {fault.target!r} is not a storage node")
            if fault.kind is FaultKind.LINK_FLAP and fault.target not in compute | storage:
                raise ConfigError(f"flap target {fault.target!r} is not a cluster node")

    def start(self) -> None:
        """Spawn one engine process per scheduled fault."""
        runners = {
            FaultKind.NODE_CRASH: self._node_crash,
            FaultKind.LINK_FLAP: self._link_flap,
            FaultKind.BRICK_FAIL: self._brick_fail,
        }
        for fault in self.plan:
            self.engine.process(
                runners[fault.kind](fault), label=f"fault:{fault.render()}"
            )

    # -- the down-state oracle (consulted by TimedSquirrel boots) ------------------

    def is_down(self, node_name: str) -> bool:
        return node_name in self._rejoin

    @property
    def nodes_down(self) -> int:
        """Compute nodes currently crashed (not yet rejoined)."""
        return len(self._rejoin)

    def rejoin_event(self, node_name: str) -> Event:
        """Event triggered when the crashed node has rebooted *and* caught
        up via offline propagation; boots delayed by the crash wait on it."""
        return self._rejoin[node_name]

    # -- fault processes -----------------------------------------------------------

    def _node_crash(self, fault: FaultSpec):
        engine, timed = self.engine, self.timed
        yield engine.timeout(fault.at_s)
        if fault.target in self._rejoin:
            timed.record("faults_skipped")  # already down: overlap
            return
        crashed_at = engine.now
        timed.record("node_crashes")
        span = timed.tracer.span(
            "fault.crash", track=fault.target, node=fault.target,
            duration_s=fault.duration_s,
        )
        self._rejoin[fault.target] = engine.event(f"rejoin:{fault.target}")
        node = timed.squirrel.cluster.node(fault.target)
        node.online = False
        timed.nic[fault.target].block()
        # the reboot loses the node's in-memory ARC (every shard slice)
        # along with the boots
        for arc in timed.arcs[fault.target].values():
            arc.clear()
        # preempt every boot in flight on the dead host; each retries after
        # the rejoin event (and cancels its own half-done transfers)
        preempted = 0
        for boot in timed.inflight(fault.target):
            boot.process.interrupt("node-crash")
            preempted += 1
        # placement redirects streaming *from* this host die with it too;
        # their retry re-picks a surviving holder from the directory
        for boot in timed.inflight_from(fault.target):
            boot.process.interrupt("peer-crash")
            preempted += 1
        yield engine.timeout(fault.duration_s)
        timed.nic[fault.target].unblock()
        # reboot done; catch up on everything registered while away (replays
        # ALL missed incrementals in snapshot order, or re-replicates when
        # the base snapshot fell out of the GC window)
        yield timed.resync(fault.target)
        timed.record("node_rejoins")
        timed.observe("node_recovery_s", engine.now - crashed_at)
        span.end(preempted_boots=preempted)
        self._rejoin.pop(fault.target).succeed()

    def _link_flap(self, fault: FaultSpec):
        engine, timed = self.engine, self.timed
        yield engine.timeout(fault.at_s)
        pipe = (
            timed.nic[fault.target]
            if fault.target in timed.nic
            else timed.brick[fault.target]
        )
        timed.record("link_flaps")
        span = timed.tracer.span(
            "fault.flap", track=fault.target, link=fault.target,
            duration_s=fault.duration_s,
        )
        pipe.block()
        yield engine.timeout(fault.duration_s)
        pipe.unblock()
        span.end()
        timed.record("link_restores")

    def _brick_fail(self, fault: FaultSpec):
        engine, timed = self.engine, self.timed
        gluster = timed.squirrel.cluster.storage.gluster
        yield engine.timeout(fault.at_s)
        if not gluster.is_alive(fault.target):
            timed.record("faults_skipped")
            return
        timed.record("brick_failures")
        span = timed.tracer.span(
            "fault.brick", track=fault.target, brick=fault.target,
            duration_s=fault.duration_s,
        )
        gluster.fail_node(fault.target)
        timed.brick[fault.target].block()
        # fetches being served by the dead brick are lost mid-stream; the
        # preempted boots re-read immediately through the degraded plan
        preempted = 0
        for boot in timed.inflight_from(fault.target):
            boot.process.interrupt("brick-failure")
            preempted += 1
        yield engine.timeout(fault.duration_s)
        gluster.restore_node(fault.target)
        timed.brick[fault.target].unblock()
        span.end(preempted_boots=preempted)
        timed.record("brick_restores")
