"""Timeline — the metrics recorder of the simulation kernel.

Three instrument families, all keyed by name:

* **counters** — monotonically accumulated event counts/sums,
* **gauges**   — time-stamped samples of an instantaneous value,
* **histograms** — latency/size observations with p50/p95/p99 summaries.

Everything is deterministic: :meth:`Timeline.summary` renders the complete
state with sorted keys and exact floats, so two runs with the same seed must
produce byte-identical summaries (the determinism property tests diff them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Engine

__all__ = ["Timeline", "HistogramStats"]

PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class HistogramStats:
    """Summary of one observation series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class Timeline:
    """Per-run metrics store, stamped with the engine clock."""

    def __init__(self, engine: Engine | None = None) -> None:
        self.engine = engine
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, list[tuple[float, float]]] = {}
        self._observations: dict[str, list[float]] = {}

    @property
    def now(self) -> float:
        return self.engine.now if self.engine is not None else 0.0

    # -- instruments --------------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self._gauges.setdefault(name, []).append((self.now, float(value)))

    def observe(self, name: str, value: float) -> None:
        self._observations.setdefault(name, []).append(float(value))

    # -- queries ------------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge_series(self, name: str) -> list[tuple[float, float]]:
        return list(self._gauges.get(name, []))

    def observations(self, name: str) -> list[float]:
        return list(self._observations.get(name, []))

    def stats(self, name: str) -> HistogramStats:
        samples = self._observations.get(name)
        if not samples:
            return HistogramStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        arr = np.asarray(samples, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, PERCENTILES)
        return HistogramStats(
            count=len(samples),
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
        )

    # -- deterministic rendering --------------------------------------------------

    def summary(self) -> dict:
        """Full state with sorted keys — the determinism fingerprint."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: tuple(self._gauges[k]) for k in sorted(self._gauges)},
            "histograms": {
                k: self.stats(k).as_dict() for k in sorted(self._observations)
            },
        }
