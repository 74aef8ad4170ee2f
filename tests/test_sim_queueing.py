"""Tests for the engine's event queue: the heap's total-order contract.

The engine's determinism contract is a total order on (time, seeded
tiebreak, seq); :class:`~repro.sim.HeapEventQueue` must pop entries in
exactly that order, under ties and interleaved pushes and pops.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.sim import Engine, HeapEventQueue


def drain(queue) -> list[tuple]:
    out = []
    while len(queue):
        out.append(queue.pop())
    return out


class TestQueueContract:
    @given(
        times=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.5]), max_size=64
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_heavy_ties_pop_in_key_order(self, times):
        queue = HeapEventQueue()
        for i, time in enumerate(times):
            queue.push((time, i * 7919 % 13, i))
        assert drain(queue) == sorted(
            (time, i * 7919 % 13, i) for i, time in enumerate(times)
        )

    def test_interleaved_push_pop(self):
        queue = HeapEventQueue()
        feed = [(float(i % 5), i) for i in range(40)]
        out = []
        for j, key in enumerate(feed):
            queue.push(key)
            if j % 3 == 2:
                out.append(queue.pop())
        out.extend(drain(queue))
        # every pop returns the smallest key pushed so far
        expected, pending = [], []
        for j, key in enumerate(feed):
            pending.append(key)
            if j % 3 == 2:
                pending.sort()
                expected.append(pending.pop(0))
        expected.extend(sorted(pending))
        assert out == expected

    def test_peek_time(self):
        queue = HeapEventQueue()
        assert queue.peek_time() is None
        queue.push((3.0, 0, 0))
        queue.push((1.0, 0, 1))
        assert queue.peek_time() == 1.0
        queue.pop()
        assert queue.peek_time() == 3.0

    def test_infinite_times_pop_last(self):
        queue = HeapEventQueue()
        queue.push((float("inf"), 0, 0))
        queue.push((1.0, 0, 1))
        assert queue.pop() == (1.0, 0, 1)
        assert queue.pop() == (float("inf"), 0, 0)


class TestEngineQueueEquivalence:
    def test_engine_rejects_unknown_queue(self):
        """The engine has one queue: there is no ``queue=`` option."""
        with pytest.raises(TypeError):
            Engine(queue="fibonacci")

    def test_drained_reflects_pending_work(self):
        engine = Engine()
        assert engine.drained

        def proc():
            yield engine.timeout(1.0)
            yield engine.timeout(1.0)

        engine.process(proc())
        assert not engine.drained
        engine.run(until=1.5)
        assert not engine.drained  # second timeout still queued
        engine.run()
        assert engine.drained
