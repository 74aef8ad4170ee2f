"""Fleet-wide deterministic time-series metrics.

The scenario engine answers *what happened*; this package records *how the
cluster evolved while it happened*. Four pieces:

* :mod:`.instruments` — typed instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram` with fixed, declared bucket layouts)
  grouped into labelled families on a per-run :class:`MetricsRegistry`,
* :mod:`.store` — the columnar :class:`TimeSeriesStore` ring buffer the
  sampler writes into,
* :mod:`.sampler` — the :class:`Sampler` engine process scraping every
  registered gauge each N *simulated* seconds,
* :mod:`.export` — Prometheus text exposition, JSONL series dumps, and the
  canonical JSON block reports embed,
* :mod:`.summarize` — health rollups (``python -m repro metrics``) over a
  stored run or sweep.

Everything is deterministic by construction: instruments iterate in sorted
order, bucket layouts are declared up front, samples are stamped with the
simulated clock, and all serialisation funnels through
:func:`repro.common.report.dumps_canonical` — so two same-seed runs (and a
sweep at any ``--workers`` count) emit byte-identical exports.
"""

from .export import (
    collect_metric_blocks,
    ensure_export_dir,
    export_name,
    exported,
    metrics_block,
    prometheus_text,
    series_jsonl,
    write_run_exports,
)
from .instruments import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    format_number,
)
from .sampler import Sampler
from .store import TimeSeriesStore
from .summarize import render_rollups, rollup, summarize_path

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Sampler",
    "TimeSeriesStore",
    "collect_metric_blocks",
    "ensure_export_dir",
    "export_name",
    "exported",
    "format_number",
    "metrics_block",
    "prometheus_text",
    "render_rollups",
    "rollup",
    "series_jsonl",
    "summarize_path",
    "write_run_exports",
]
