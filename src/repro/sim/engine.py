"""Discrete-event simulation kernel.

The accounting layer (`repro.core`, `repro.net`) answers *how many bytes*
move; this engine answers *when*. It is a from-scratch, dependency-free
kernel in the SimPy mould, specialised for what the cluster model needs:

* a monotonic simulated clock (:attr:`Engine.now`, seconds),
* a binary-heap event queue with **deterministic tie-breaking**: events
  scheduled for the same instant are ordered by a pseudo-random draw from a
  dedicated :mod:`repro.common.rng` stream keyed by the engine seed (so the
  order is reproducible bit-for-bit per seed, yet decorrelated from
  scheduling order), with a monotonic sequence number as the final word,
* lightweight generator-based processes: a process is a plain generator
  that ``yield``\\ s :class:`Event` objects and is resumed with their values,
* preemption: :meth:`Process.interrupt` throws :class:`Interrupted` into a
  process at its current yield point (the fault injector's hook — a node
  crash preempts every boot in flight on that node),
* an optional event trace for determinism tests and debugging.

Contention primitives (:class:`~repro.sim.resources.Resource`,
:class:`~repro.sim.resources.Pipe`) and metrics
(:class:`~repro.sim.timeline.Timeline`) live in sibling modules.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from ..common.errors import SimulationError
from ..common.rng import stream as rng_stream
from .queueing import HeapEventQueue

__all__ = ["Engine", "Event", "Interrupted", "Process", "all_of"]

#: tie-break draws are taken from the rng in blocks — one vectorised call
#: per this many pushes. The block is consumed in draw order, so the
#: sequence of tie-breaks is bit-identical to one scalar draw per push.
_TIEBREAK_BLOCK = 1024


class Interrupted(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` names what preempted the process (e.g. ``"node-crash"``);
    handlers use it to pick a recovery strategy.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """One future occurrence; processes wait on it by ``yield``-ing it."""

    __slots__ = ("engine", "label", "callbacks", "_triggered", "_scheduled", "_value")

    def __init__(self, engine: "Engine", label: str | None = None) -> None:
        self.engine = engine
        self.label = label
        self.callbacks: list = []
        self._triggered = False
        self._scheduled = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.label or id(self)} not yet triggered")
        return self._value

    def succeed(self, value: Any = None, *, delay: float = 0.0) -> "Event":
        """Trigger this event ``delay`` seconds from now (default: now)."""
        self.engine._schedule_trigger(self, value, delay)
        return self

    # -- engine internals ---------------------------------------------------------

    def _fire(self, value: Any) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.label or id(self)} triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def _wait(self, callback) -> None:
        """Register ``callback``; runs immediately if already triggered."""
        if self._triggered:
            callback(self)
        else:
            self.callbacks.append(callback)


class Process(Event):
    """A running generator; itself an event that triggers on return.

    The generator yields :class:`Event` objects; each resume sends the
    triggered event's value back into the generator. ``return value`` inside
    the generator becomes the process event's value.
    """

    __slots__ = ("_generator", "_target")

    def __init__(
        self, engine: "Engine", generator: Generator, label: str | None = None
    ) -> None:
        super().__init__(engine, label)
        self._generator = generator
        self._target: Event | None = None

    def _step(self, fired: Event | None) -> None:
        if fired is not None and fired is not self._target:
            return  # stale wake: interrupted away from this event mid-fire
        self._target = None
        try:
            if fired is None:
                target = next(self._generator)
            else:
                target = self._generator.send(fired.value)
        except StopIteration as stop:
            self._fire(stop.value)
            return
        self._watch(target)

    def _watch(self, target: Event) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.label or id(self)} yielded {type(target).__name__}; "
                "processes may only yield Event objects"
            )
        self._target = target
        target._wait(self._step)

    def interrupt(self, cause: Any = None) -> None:
        """Preempt this process: throw :class:`Interrupted` at its current
        yield point, synchronously. The event it was waiting on is left to
        fire on its own (with this process detached); the generator's
        ``except``/``finally`` blocks run immediately, and whatever it
        yields next is waited on as usual. No-op on a finished process.
        """
        if self._triggered:
            return
        target = self._target
        if target is None:
            # not yet stepped (its start event is still queued): nothing is
            # in flight to preempt — the process observes the fault's state
            # change when it does start
            return
        if not target._triggered:
            try:
                target.callbacks.remove(self._step)
            except ValueError:
                pass
        self._target = None
        try:
            follow_up = self._generator.throw(Interrupted(cause))
        except StopIteration as stop:
            self._fire(stop.value)
            return
        self._watch(follow_up)


def all_of(engine: "Engine", events: Iterable[Event], label: str | None = None) -> Event:
    """Event triggering once every event in ``events`` has; value is the
    list of their values, in input order."""
    pending = list(events)
    gathered = Event(engine, label)
    remaining = len(pending)
    if remaining == 0:
        gathered.succeed([])
        return gathered
    counter = [remaining]

    def on_done(_event: Event) -> None:
        counter[0] -= 1
        if counter[0] == 0:
            gathered._fire([e.value for e in pending])

    for event in pending:
        event._wait(on_done)
    return gathered


class Engine:
    """The event loop: clock + heap event queue + process scheduler.

    The total event order ``(time, seeded tie-break, sequence)`` replays
    the same schedule bit-for-bit at equal seed.
    """

    def __init__(self, *, seed: int | str = 0, trace: bool = False) -> None:
        self.seed = seed
        self._now = 0.0
        self._queue = HeapEventQueue()
        self._seq = 0
        #: dedicated tie-break stream: same seed -> same total event order
        self._tiebreak = rng_stream("sim-engine-tiebreak", seed)
        self._tiebreak_block: list[int] = []
        self._tiebreak_next = 0
        self.trace: list[tuple[float, str]] | None = [] if trace else None
        self._events_processed = 0
        #: runtime-telemetry hook (see :mod:`repro.obs.runtime`): an object
        #: with ``tick_every``/``run_started``/``tick``/``run_ended``. It
        #: only *reads* engine state, so attaching one cannot change the
        #: event order or any simulation result.
        self.observer: Any = None

    # -- clock --------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self._now

    # -- event construction -------------------------------------------------------

    def event(self, label: str | None = None) -> Event:
        return Event(self, label)

    def timeout(self, delay: float, value: Any = None, label: str | None = None) -> Event:
        """Event that triggers ``delay`` seconds from now."""
        return Event(self, label).succeed(value, delay=delay)

    def process(self, generator: Generator, label: str | None = None) -> Process:
        """Start a generator as a process (first step runs at the current
        instant, through the queue, so creation order does not leak into
        execution order beyond the tie-break rule)."""
        proc = Process(self, generator, label)
        start = Event(self, label and f"start:{label}")
        start.callbacks.append(lambda _e: proc._step(None))
        self._push(start, None, 0.0)
        return proc

    def all_of(self, events: Iterable[Event], label: str | None = None) -> Event:
        return all_of(self, events, label)

    # -- scheduling ---------------------------------------------------------------

    def _schedule_trigger(self, event: Event, value: Any, delay: float) -> None:
        if delay < 0:
            raise SimulationError("cannot schedule into the past")
        if event._triggered or event._scheduled:
            raise SimulationError(f"event {event.label or id(event)} triggered twice")
        event._scheduled = True
        self._push(event, value, delay)

    def _push(self, event: Event, value: Any, delay: float) -> None:
        self._seq += 1
        if self._tiebreak_next >= len(self._tiebreak_block):
            self._tiebreak_block = self._tiebreak.integers(
                0, 1 << 62, size=_TIEBREAK_BLOCK
            ).tolist()
            self._tiebreak_next = 0
        tiebreak = self._tiebreak_block[self._tiebreak_next]
        self._tiebreak_next += 1
        self._queue.push((self._now + delay, tiebreak, self._seq, event, value))

    # -- the loop -----------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Drain the queue (or stop once the clock would pass ``until``);
        returns the final simulated time. :attr:`drained` afterwards tells
        whether the queue emptied or the run stopped at ``until`` with
        events still pending. An attached :attr:`observer` is notified
        around and periodically during the drain (read-only: it cannot
        perturb the schedule)."""
        observer = self.observer
        if observer is not None:
            observer.run_started(self)
        try:
            return self._drain(until, observer)
        finally:
            if observer is not None:
                observer.run_ended(self)

    def _drain(self, until: float | None, observer: Any) -> float:
        queue = self._queue
        trace = self.trace
        tick_every = int(getattr(observer, "tick_every", 0) or 0)
        countdown = tick_every if tick_every > 0 else -1
        processed = self._events_processed
        try:
            while len(queue):
                time = queue.peek_time()
                if until is not None and time > until:
                    self._now = until
                    return self._now
                time, _tiebreak, _seq, event, value = queue.pop()
                if time < self._now:
                    raise SimulationError("event queue went backwards in time")
                self._now = time
                if trace is not None and event.label is not None:
                    trace.append((time, event.label))
                event._fire(value)
                processed += 1
                countdown -= 1
                if countdown == 0:
                    self._events_processed = processed
                    observer.tick(self)
                    countdown = tick_every
            return self._now
        finally:
            self._events_processed = processed

    @property
    def events_processed(self) -> int:
        """Events fired by :meth:`run` so far (host-profiler fodder:
        events/second is this over wall time). Updated at run exit and at
        every observer tick, not per event."""
        return self._events_processed

    @property
    def drained(self) -> bool:
        """True when no event remains queued — :meth:`run` ran out of
        work rather than stopping at an ``until`` horizon. Inside a
        running process it answers "is anything else pending?", which is
        what periodic re-arming loops (the metrics sampler) key off."""
        return len(self._queue) == 0

    def peek(self) -> float | None:
        """Time of the next queued event, or None when drained."""
        return self._queue.peek_time()
