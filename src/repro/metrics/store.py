"""Columnar ring-buffer storage for sampled time series.

One :class:`TimeSeriesStore` per run holds every series the
:class:`~repro.metrics.sampler.Sampler` scrapes: a series is identified by
``(metric name, label assignment)`` and stored as two parallel columns —
sample times (simulated seconds) and values — bounded by a ring capacity.
A scrape writes one family's column at a time: one value per child.
When the ring wraps, the *oldest* samples fall off and the series records
how many were dropped, so a truncated trajectory is visible instead of
silently passing for a complete one.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..common.errors import ConfigError

__all__ = ["TimeSeriesStore"]


class _Series:
    """One (name, labels) series: parallel time/value ring columns."""

    __slots__ = ("t", "v", "dropped")

    def __init__(self, capacity: int) -> None:
        self.t: deque[float] = deque(maxlen=capacity)
        self.v: deque[float] = deque(maxlen=capacity)
        self.dropped = 0


class TimeSeriesStore:
    """Bounded, deterministic storage for every sampled series of a run."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], _Series] = {}
        #: name -> (the label column last appended, its resolved series)
        self._columns: dict[str, tuple[tuple, list[_Series]]] = {}

    def append(
        self,
        name: str,
        labels: tuple[tuple[tuple[str, str], ...], ...],
        t: float,
        values: Sequence[float],
    ) -> None:
        """Record one column of one family at simulated time ``t``:
        ``values[i]`` is the sample of the series labelled ``labels[i]``.

        The series are resolved once per ``labels`` object: a caller that
        passes the same column again pays no per-series lookup."""
        if len(values) != len(labels):
            raise ConfigError(
                f"{name}: {len(values)} values for {len(labels)} series"
            )
        cached = self._columns.get(name)
        if cached is None or cached[0] is not labels:
            cached = self._columns[name] = (
                labels, [self._resolve(name, one) for one in labels]
            )
        t = float(t)
        capacity = self.capacity
        for series, value in zip(cached[1], values):
            if len(series.t) == capacity:
                series.dropped += 1
            series.t.append(t)
            series.v.append(float(value))

    def _resolve(self, name: str, labels: tuple[tuple[str, str], ...]) -> _Series:
        key = (name, tuple(sorted(labels)))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series(self.capacity)
        return series

    @property
    def n_series(self) -> int:
        return len(self._series)

    @property
    def n_samples(self) -> int:
        """Samples currently resident (drops excluded)."""
        return sum(len(series.t) for series in self._series.values())

    def series(self) -> list[dict]:
        """Every series as a JSON-able dict, sorted by (name, labels) —
        the deterministic order the JSONL exporter and the canonical block
        rely on. Columns come out as plain lists."""
        out = []
        for (name, labels), series in sorted(self._series.items()):
            out.append(
                {
                    "name": name,
                    "labels": dict(labels),
                    "t": list(series.t),
                    "v": list(series.v),
                    "dropped": series.dropped,
                }
            )
        return out

    def get(self, name: str, **labels: str) -> dict | None:
        """One series dict (or None) — convenience for tests/rollups."""
        key = (name, tuple((k, str(v)) for k, v in sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            return None
        return {
            "name": name,
            "labels": dict(key[1]),
            "t": list(series.t),
            "v": list(series.v),
            "dropped": series.dropped,
        }
