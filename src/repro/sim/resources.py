"""Shared contention primitives for the event engine.

* :class:`Resource` — a counted, FIFO-queued resource (CPU cores for
  decompression, a disk's single actuator, VM slots).
* :class:`Pipe` — a processor-sharing bandwidth channel (a NIC, a glusterfs
  brick's uplink): ``n`` concurrent flows each progress at ``rate / n``, and
  completion times are re-computed whenever a flow joins or leaves — the
  classic fluid model of fair-shared TCP flows on one link, which is exactly
  the contention a boot storm exercises.

Both record their interesting moments into an optional
:class:`~repro.sim.timeline.Timeline`: a named Resource observes per-grant
queue wait (``res_wait_s:<name>``), a named Pipe observes per-flow
contention overhead over the uncontended transfer time
(``pipe_wait_s:<name>``) — the raw material of queue-wait vs. service-time
attribution. Recording never schedules events, so it cannot perturb the
simulation's event order.
"""

from __future__ import annotations

from collections import deque
from itertools import compress

import numpy as np

from ..common.errors import SimulationError
from .engine import Engine, Event

__all__ = ["Resource", "Pipe"]


class Resource:
    """``capacity`` slots, granted strictly in request order."""

    def __init__(
        self,
        engine: Engine,
        capacity: int = 1,
        *,
        name: str | None = None,
        timeline=None,
    ) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.timeline = timeline
        self.in_use = 0
        self._waiting: deque[Event] = deque()
        #: request timestamps of queued grants (queue-wait telemetry)
        self._queued_at: dict[Event, float] = {}
        #: grants handed out, for utilisation reporting
        self.total_grants = 0

    def _observe_wait(self, wait_s: float) -> None:
        if self.timeline is not None and self.name is not None:
            self.timeline.observe(f"res_wait_s:{self.name}", wait_s)

    def request(self) -> Event:
        """Event that triggers when a slot is granted (yield it)."""
        grant = self.engine.event(self.name and f"{self.name}:grant")
        if self.in_use < self.capacity:
            self.in_use += 1
            self.total_grants += 1
            self._observe_wait(0.0)
            grant.succeed()
        else:
            self._waiting.append(grant)
            self._queued_at[grant] = self.engine.now
        return grant

    def release(self) -> None:
        """Return one slot; the longest-waiting request (if any) gets it."""
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiting:
            grant = self._waiting.popleft()
            self.total_grants += 1
            self._observe_wait(self.engine.now - self._queued_at.pop(grant))
            grant.succeed()
        else:
            self.in_use -= 1

    def cancel(self, grant: Event) -> None:
        """Withdraw a request (preempted holder/waiter — e.g. its process
        was interrupted by a fault). A still-queued request is removed; a
        granted one has its slot released on its behalf.
        """
        try:
            self._waiting.remove(grant)
            self._queued_at.pop(grant, None)
        except ValueError:
            self.release()

    @property
    def queue_length(self) -> int:
        return len(self._waiting)


class _Flow:
    __slots__ = ("event", "n_bytes", "started_s", "ideal_s")

    def __init__(self, n_bytes: float, event: Event, started_s: float,
                 ideal_s: float) -> None:
        self.n_bytes = n_bytes
        self.event = event
        #: admission time and uncontended drain time, for contention telemetry
        self.started_s = started_s
        self.ideal_s = ideal_s


class Pipe:
    """Fair-shared bandwidth channel: the fluid flow model.

    A transfer of ``n`` bytes on an otherwise idle pipe of rate ``r``
    completes after ``latency + n/r`` seconds; with ``k`` concurrent flows
    every flow drains at ``r/k``. Joins and departures trigger a re-plan of
    the next departure (lazy wake tokens make superseded plans inert).

    Fault hooks: :meth:`set_rate` changes the drain rate mid-flight (down to
    zero — a link flap stalls every flow until the rate comes back),
    :meth:`block`/:meth:`unblock` nest flap-on-crash cleanly, and
    :meth:`cancel` withdraws one in-flight flow (its bytes are lost; the
    remaining flows speed up) — the drain side of preempting a transfer.
    """

    def __init__(
        self,
        engine: Engine,
        rate_bytes_per_s: float,
        *,
        latency_s: float = 0.0,
        name: str | None = None,
        timeline=None,
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise SimulationError("pipe rate must be positive")
        self.engine = engine
        self.rate = float(rate_bytes_per_s)
        self.latency_s = latency_s
        self.name = name
        self.timeline = timeline
        self._flows: list[_Flow] = []
        #: per-flow undrained bytes, parallel to ``_flows`` — a numpy array
        #: so the fluid updates (every flow drains by the same share) and
        #: the next-departure scan are one vectorised op each instead of a
        #: python loop; element-wise float64 arithmetic is bit-identical to
        #: the scalar loop, so this is purely a constant-factor change. At
        #: 10k nodes a boot storm holds thousands of concurrent flows per
        #: brick pipe, and the per-event python loop was quadratic overall.
        self._remaining = np.empty(0, dtype=np.float64)
        self._last_update = 0.0
        self._plan_version = 0
        #: positions of the flows the current plan expects to depart at the
        #: next wake; they are force-completed then, so float residue (a
        #: planned drain can miss zero by an ulp of a multi-GB count) can
        #: never stall the pipe. Positions are stable while the plan is
        #: valid: any join/leave bumps the version and replans.
        self._plan_head_idx: np.ndarray | tuple = ()
        #: lifetime accounting for utilisation reports
        self.total_bytes = 0
        self.total_flows = 0
        self.busy_seconds = 0.0
        #: nested block() depth and the rate to restore at depth zero
        self._blocks = 0
        self._saved_rate = self.rate

    # -- public API ---------------------------------------------------------------

    def transfer(self, n_bytes: int, label: str | None = None) -> Event:
        """Event that triggers when ``n_bytes`` have drained through the
        shared pipe (plus the fixed link latency)."""
        if n_bytes < 0:
            raise SimulationError("negative transfer size")
        done = self.engine.event(label or (self.name and f"{self.name}:done"))
        self.total_bytes += n_bytes
        self.total_flows += 1
        if n_bytes == 0:
            done.succeed(0, delay=self.latency_s)
            return done
        self._advance()
        #: uncontended drain time at the link's nominal rate (the saved rate
        #: while a fault holds the pipe blocked)
        nominal = self._saved_rate if self._blocks else self.rate
        ideal_s = n_bytes / nominal if nominal > 0 else 0.0
        self._flows.append(_Flow(n_bytes, done, self.engine.now, ideal_s))
        self._remaining = np.append(self._remaining, float(n_bytes))
        self._replan()
        return done

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def blocked(self) -> bool:
        return self._blocks > 0

    def busy_fraction(self, now: float | None = None) -> float:
        """Lifetime utilisation in [0, 1]: busy seconds (including the
        in-progress stretch since the last fluid update) over elapsed
        simulated time. Cheap — O(1), no ledger walk — so the metrics
        sampler can scrape it every tick."""
        if now is None:
            now = self.engine.now
        if now <= 0.0:
            return 0.0
        busy = self.busy_seconds
        if self._flows and self.rate > 0.0:
            busy += max(0.0, now - self._last_update)
        return min(1.0, busy / now)

    # -- fault hooks --------------------------------------------------------------

    def set_rate(self, rate_bytes_per_s: float) -> None:
        """Change the drain rate mid-flight. Flows keep the bytes already
        drained at the old rate; a rate of zero stalls them in place until
        the rate comes back (no wake is planned while stalled)."""
        if rate_bytes_per_s < 0:
            raise SimulationError("pipe rate must be non-negative")
        self._advance()
        self.rate = float(rate_bytes_per_s)
        self._replan()

    def block(self) -> None:
        """Drop the rate to zero (a link going dark). Nests: overlapping
        faults each block once, and the pipe only resumes when every one of
        them has unblocked."""
        if self._blocks == 0:
            self._saved_rate = self.rate
            self.set_rate(0.0)
        self._blocks += 1

    def unblock(self) -> None:
        """Undo one :meth:`block`; restores the saved rate at depth zero."""
        if self._blocks <= 0:
            raise SimulationError(f"unblock of unblocked pipe {self.name!r}")
        self._blocks -= 1
        if self._blocks == 0:
            self.set_rate(self._saved_rate)

    def cancel(self, event: Event) -> bool:
        """Withdraw the flow whose completion event is ``event`` (preempted
        transfer: a crashed node's fetch). Returns False if no such flow is
        active (already completed, or never started)."""
        for i, flow in enumerate(self._flows):
            if flow.event is event:
                self._advance()
                del self._flows[i]
                self._remaining = np.delete(self._remaining, i)
                self._replan()
                return True
        return False

    # -- fluid bookkeeping --------------------------------------------------------

    def _advance(self) -> None:
        """Drain all active flows by the time elapsed since the last event."""
        now = self.engine.now
        elapsed = now - self._last_update
        self._last_update = now
        if not self._flows or elapsed <= 0.0 or self.rate <= 0.0:
            return  # a stalled pipe is not busy and drains nothing
        share = elapsed * self.rate / len(self._flows)
        self._remaining -= share
        self.busy_seconds += elapsed

    def _replan(self) -> None:
        """Schedule a wake at the next departure; invalidate older plans."""
        self._plan_version += 1
        if not self._flows or self.rate <= 0.0:
            self._plan_head_idx = ()
            return  # stalled: the next set_rate/join replans
        version = self._plan_version
        remaining = self._remaining
        head = float(remaining.min())
        tolerance = head * 1e-12 + 1e-12
        self._plan_head_idx = np.flatnonzero(remaining <= head + tolerance)
        dt = max(0.0, head * len(self._flows) / self.rate)
        wake = self.engine.event(self.name and f"{self.name}:wake")
        wake.callbacks.append(lambda _e: self._on_wake(version))
        wake.succeed(delay=dt)

    def _on_wake(self, version: int) -> None:
        if version != self._plan_version:
            return  # superseded by a join/leave since this was planned
        self._advance()
        remaining = self._remaining
        if len(self._plan_head_idx):
            remaining[self._plan_head_idx] = 0.0  # this wake IS their departure
        done_mask = remaining <= 0.0
        keep = ~done_mask
        finished = list(compress(self._flows, done_mask.tolist()))
        self._flows = list(compress(self._flows, keep.tolist()))
        self._remaining = remaining[keep]
        for flow in finished:
            if self.timeline is not None and self.name is not None:
                overhead = (self.engine.now - flow.started_s) - flow.ideal_s
                self.timeline.observe(
                    f"pipe_wait_s:{self.name}", max(0.0, overhead)
                )
            flow.event.succeed(flow.n_bytes, delay=self.latency_s)
        self._replan()
