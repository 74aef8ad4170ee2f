"""Columnar ring-buffer storage for sampled time series.

One :class:`TimeSeriesStore` per run holds every series the
:class:`~repro.metrics.sampler.Sampler` scrapes: a series is identified by
``(metric name, label assignment)``. A scrape writes one family's column
at a time, one value per child, as one *row* of float64 columns.

Each label column a family is appended with gets one segment: a time
column plus a rows × series value block, grown by doubling up to the ring
capacity. A family's children are never removed and every scrape writes
every child, so a family's columns only grow and each series' samples
are a suffix of its family's rows. The ring runs over those rows: once a
family holds ``capacity`` rows, each new row evicts the oldest row of its
oldest non-empty segment, which keeps every series' newest
``min(count, capacity)`` samples. Each series records how many of its
samples were dropped, so a truncated trajectory is visible instead of
silently passing for a complete one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..common.errors import ConfigError

__all__ = ["TimeSeriesStore"]

#: one series of a family: its label pairs, sorted
SeriesKey = tuple[tuple[str, str], ...]


class _Segment:
    """The rows a family wrote under one label column: a ring over a time
    column and a rows × series value block."""

    __slots__ = ("keys", "index", "order", "t", "v", "head", "rows", "evicted")

    def __init__(self, keys: tuple[SeriesKey, ...]) -> None:
        self.keys = keys
        #: series -> its column, and the columns in series order
        self.index = {key: j for j, key in enumerate(keys)}
        self.order = sorted(range(len(keys)), key=keys.__getitem__)
        self.t = np.empty(1)
        self.v = np.empty((1, len(keys)))
        self.head = 0  #: slot of the oldest resident row
        self.rows = 0  #: resident rows
        self.evicted = 0  #: rows evicted so far

    def push(self, t: float, values: list[float], capacity: int) -> None:
        if self.rows == len(self.t):
            self._grow(min(2 * self.rows, capacity))
        slot = (self.head + self.rows) % len(self.t)
        self.t[slot] = t
        self.v[slot] = values
        self.rows += 1

    def evict(self) -> None:
        self.head = (self.head + 1) % len(self.t)
        self.rows -= 1
        self.evicted += 1

    def _grow(self, size: int) -> None:
        t, v = np.empty(size), np.empty((size, len(self.keys)))
        t[: self.rows] = self._resident(self.t)
        v[: self.rows] = self._resident(self.v)
        self.t, self.v, self.head = t, v, 0

    def _resident(self, column: np.ndarray) -> np.ndarray:
        """The resident rows of ``column``, oldest first (a view unless
        the ring has wrapped)."""
        end = self.head + self.rows
        if end <= len(column):
            return column[self.head:end]
        return np.concatenate((column[self.head:], column[: end - len(column)]))

    def columns(
        self, clock: dict[bytes, list[float]]
    ) -> tuple[list[float], list[list[float]]]:
        """The resident time column and one value column per series.

        Equal time columns share their floats (``clock``, keyed by the
        column's bytes), as families scraped together shared one clock
        reading; a bit-constant value column repeats one float, as a gauge
        that never moved appended one object."""
        t = self._resident(self.t)
        raw = t.tobytes()
        times = clock.get(raw)
        if times is None:
            times = clock[raw] = t.tolist()
        block = self._resident(self.v)
        if not self.rows:
            return times, [[] for _ in self.keys]
        bits = block.view(np.uint64)
        constant = (bits == bits[0]).all(axis=0).tolist()
        first = block[0].tolist()
        return times, [
            [first[j]] * self.rows if constant[j] else column.tolist()
            for j, column in enumerate(block.T)
        ]


class _Family:
    """One metric's segments, oldest first, and its row count."""

    __slots__ = ("labels", "segments", "rows")

    def __init__(self) -> None:
        #: the label column last appended (compared by identity)
        self.labels: tuple | None = None
        self.segments: list[_Segment] = []
        self.rows = 0


class TimeSeriesStore:
    """Bounded, deterministic storage for every sampled series of a run."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._families: dict[str, _Family] = {}

    def append(
        self,
        name: str,
        labels: tuple[tuple[tuple[str, str], ...], ...],
        t: float,
        values: Sequence[float],
    ) -> None:
        """Record one column of one family at simulated time ``t``:
        ``values[i]`` is the sample of the series labelled ``labels[i]``.

        The column is resolved once per ``labels`` object: a caller that
        passes the same column again pays no per-series lookup. A column
        must keep every series of the family's previous column."""
        if len(values) != len(labels):
            raise ConfigError(
                f"{name}: {len(values)} values for {len(labels)} series"
            )
        family = self._families.get(name)
        if family is None or family.labels is not labels:
            family = self._resolve(name, labels)
        row = [float(value) for value in values]
        if family.rows == self.capacity:
            next(seg for seg in family.segments if seg.rows).evict()
        else:
            family.rows += 1
        family.segments[-1].push(float(t), row, self.capacity)

    def _resolve(self, name: str, labels: tuple) -> _Family:
        """Point family ``name`` at the segment of ``labels``, opening a new
        one when the column differs from the last."""
        keys = tuple(tuple(sorted(one)) for one in labels)
        if len(set(keys)) != len(keys):
            raise ConfigError(f"{name}: a series appears twice in one column")
        family = self._families.get(name)
        last = family.segments[-1] if family is not None else None
        if last is None or last.keys != keys:
            if last is not None and not last.index.keys() <= set(keys):
                raise ConfigError(f"{name}: a column drops a series of the last")
            if family is None:
                family = self._families[name] = _Family()
            family.segments.append(_Segment(keys))
        family.labels = labels
        return family

    def series(self) -> list[dict]:
        """Every series as a JSON-able dict, sorted by (name, labels) —
        the deterministic order the JSONL exporter and the canonical block
        rely on. Columns come out as plain lists of floats: a series is
        the concatenation of the segments it appears in, which are the
        last ones of its family."""
        out = []
        clock: dict[bytes, list[float]] = {}
        for name in sorted(self._families):
            segments = self._families[name].segments
            columns = [segment.columns(clock) for segment in segments]
            last = segments[-1]
            for j in last.order:
                key = last.keys[j]
                t: list[float] = []
                v: list[float] = []
                dropped = 0
                for segment, (times, values) in zip(segments, columns):
                    i = segment.index.get(key)
                    if i is not None:
                        t += times
                        v += values[i]
                        dropped += segment.evicted
                out.append(
                    {"name": name, "labels": dict(key), "t": t, "v": v,
                     "dropped": dropped}
                )
        return out
