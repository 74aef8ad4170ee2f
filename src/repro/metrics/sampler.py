"""The sampler: a simulation process that scrapes gauges on a cadence.

A :class:`Sampler` runs *inside* the event engine: every ``interval_s``
simulated seconds it reads every gauge of its registry (callback gauges
evaluate live simulation state) and appends one column per gauge family,
one sample per child, into the :class:`~repro.metrics.store.TimeSeriesStore`.
Scraping is a pure read — it never mutates simulation state — so enabling
it cannot change any byte-accounting result, and because its wake-ups go
through the engine's deterministic queue the sampled trajectories are
bit-reproducible per seed.

Termination: the sampler scrapes once at start, then re-arms only while
other events are pending; the tick that finds the queue otherwise drained
takes the final snapshot and exits, so ``Engine.run()`` still terminates.
This also means the cadence *persists through faults*: a crashed node
stops producing boot events but the fleet keeps getting sampled for as
long as anything (the outage timer included) is still in flight.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from ..sim import Engine, Process
from .instruments import Gauge, MetricsRegistry
from .store import TimeSeriesStore

__all__ = ["Sampler"]


class Sampler:
    """Periodically scrapes a registry's gauges into a time-series store."""

    def __init__(
        self,
        engine: Engine,
        registry: MetricsRegistry,
        store: TimeSeriesStore,
        *,
        interval_s: float = 5.0,
    ) -> None:
        if interval_s <= 0:
            raise ConfigError(f"sample interval must be > 0, got {interval_s}")
        self.engine = engine
        self.registry = registry
        self.store = store
        self.interval_s = float(interval_s)
        #: scrape rounds completed (each touches every gauge once)
        self.scrapes = 0
        #: family name -> its resolved (label column, gauges); re-resolved
        #: only when the family gains children
        self._columns: dict[str, tuple[tuple, list[Gauge]]] = {}

    def scrape(self) -> None:
        """One scrape round: read every gauge, stamp with the sim clock,
        and append one column per gauge family that has children."""
        now = self.engine.now
        for family in self.registry.families():
            if family.kind != "gauge" or not family.n_children:
                continue
            column = self._columns.get(family.name)
            if column is None or len(column[0]) != family.n_children:
                column = self._columns[family.name] = self._resolve(family)
            labels, gauges = column
            self.store.append(family.name, labels, now, [g.read() for g in gauges])
        self.scrapes += 1

    @staticmethod
    def _resolve(family) -> tuple[tuple, list[Gauge]]:
        """A family's label column and gauges, in sorted label order."""
        samples = family.samples()
        labels = tuple(
            tuple(zip(family.label_names, values)) for values, _ in samples
        )
        return labels, [gauge for _, gauge in samples]

    def start(self) -> Process:
        """Spawn the sampling process (call before ``engine.run()``)."""
        return self.engine.process(self._run(), label="metrics.sampler")

    def _run(self):
        while True:
            self.scrape()
            if self.engine.drained:
                return self.scrapes  # everything else settled: final snapshot
            yield self.engine.timeout(self.interval_s)
