"""Exporters: Prometheus text, JSONL series, and the canonical JSON block.

All three render from the same source of truth — the **canonical metrics
block** (:func:`metrics_block`): a plain JSON-able dict with the end-of-run
instrument snapshot plus every sampled series. Reports embed the block
(``StormSide.metrics``, ``DayReport.metrics``, …), which makes it ride
through ``--json``, the sweep manifest and the result store for free; the
text exporters (:func:`prometheus_text`, :func:`series_jsonl`) re-render it
on demand, so an export written from a stored run is byte-identical to one
written live.

Determinism: family/sample/series ordering is sorted at block-build time,
numbers render through one canonical formatter, and the JSON side funnels
through :func:`repro.common.report.dumps_canonical`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from ..common.errors import ConfigError
from ..common.report import dumps_canonical
from ..obs import runtime as obs_runtime
from .instruments import MetricsRegistry, format_number
from .store import TimeSeriesStore

__all__ = [
    "collect_metric_blocks",
    "ensure_export_dir",
    "exported",
    "metrics_block",
    "prometheus_text",
    "series_jsonl",
    "write_run_exports",
]


def ensure_export_dir(path: str | Path, *, flag: str) -> Path:
    """Validate an export directory named by CLI ``flag`` *before* a run.

    Creates the directory (parents included) and checks writability, so a
    bad ``--metrics``/``--store``/``--out`` target fails up front with a
    :class:`~repro.common.errors.ConfigError` naming the flag — not after
    minutes of simulation when the exporter first touches the path.
    """
    target = Path(path)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise ConfigError(
            f"{flag} {str(target)!r}: cannot create export directory "
            f"({error})"
        ) from error
    if not os.access(target, os.W_OK):
        raise ConfigError(
            f"{flag} {str(target)!r}: export directory is not writable"
        )
    return target


def metrics_block(
    registry: MetricsRegistry,
    store: TimeSeriesStore | None = None,
    *,
    interval_s: float | None = None,
    scrapes: int | None = None,
) -> dict:
    """The canonical JSON block for one run's metrics.

    ``instruments`` is the end-of-run snapshot (counters/gauges as values,
    histograms as cumulative bucket rows); ``series`` is the sampled
    trajectory data from the store. Both are fully sorted.
    """
    instruments = []
    for family in registry.families():
        samples = []
        for label_values, child in family.samples():
            labels = dict(zip(family.label_names, label_values))
            if family.kind == "histogram":
                samples.append(
                    {
                        "labels": labels,
                        "buckets": [list(row) for row in child.cumulative()],
                        "sum": child.sum,
                        "count": child.count,
                    }
                )
            elif family.kind == "gauge":
                samples.append({"labels": labels, "value": child.read()})
            else:
                samples.append({"labels": labels, "value": child.value})
        instruments.append(
            {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "samples": samples,
            }
        )
    block: dict[str, Any] = {
        "instruments": instruments,
        "series": store.series() if store is not None else [],
    }
    if interval_s is not None:
        block["interval_s"] = float(interval_s)
    if scrapes is not None:
        block["scrapes"] = int(scrapes)
    return block


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


def prometheus_text(block: dict) -> str:
    """Render a metrics block as Prometheus text exposition format."""
    lines: list[str] = []
    for family in block["instruments"]:
        name = family["name"]
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['kind']}")
        for sample in family["samples"]:
            labels = dict(sample["labels"])
            if family["kind"] == "histogram":
                for le, cum in sample["buckets"]:
                    lines.append(
                        f"{name}_bucket{_label_str({**labels, 'le': le})} {cum}"
                    )
                lines.append(
                    f"{name}_sum{_label_str(labels)} "
                    f"{format_number(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_str(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_label_str(labels)} "
                    f"{format_number(sample['value'])}"
                )
    return "\n".join(lines) + "\n"


def series_jsonl(block: dict) -> str:
    """Render a metrics block's sampled series as canonical JSONL — one
    line per series, columns as parallel ``t``/``v`` arrays."""
    lines = [dumps_canonical(series) for series in block["series"]]
    return "\n".join(lines) + ("\n" if lines else "")


def _is_block(node: Any) -> bool:
    return (
        isinstance(node, dict) and "instruments" in node and "series" in node
    )


def collect_metric_blocks(payload: Any, prefix: str = "") -> dict[str, dict]:
    """Find every embedded metrics block in a JSON-able report payload.

    Returns ``{dotted path: block}`` — e.g. a storm report yields
    ``{"report.squirrel.metrics": …, "report.baseline.metrics": …}``.
    """
    found: dict[str, dict] = {}
    if _is_block(payload):
        found[prefix] = payload
        return found
    if isinstance(payload, dict):
        for key in sorted(payload):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            found.update(collect_metric_blocks(payload[key], child_prefix))
    return found


def export_name(path: str) -> str:
    """Filename stem for one block path: strip the ``report``/``metrics``
    scaffolding (``report.squirrel.metrics`` → ``squirrel``); a bare
    ``report.metrics`` (single-sided scenarios) becomes ``run``."""
    parts = [
        part
        for part in path.split(".")
        if part not in ("report", "metrics", "result")
    ]
    return "-".join(parts) if parts else "run"


def write_run_exports(out_dir: str | Path, result: Any) -> dict[str, Path]:
    """Persist one run under ``out_dir`` (the ``--metrics PATH`` surface).

    Writes, per embedded metrics block, ``<side>.prom`` (Prometheus text)
    and ``<side>.jsonl`` (series dump), plus ``report.json`` — the full
    canonical report the ``python -m repro metrics`` summarizer reads.
    ``result`` is a Report or an already plain payload; either way the
    payload is not converted a second time.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = result.to_dict() if hasattr(result, "to_dict") else result
    blocks = collect_metric_blocks(payload, "report")
    written: dict[str, Path] = {}
    for path, block in blocks.items():
        stem = export_name(path)
        prom = out / f"{stem}.prom"
        prom.write_text(prometheus_text(block), encoding="utf-8")
        written[f"{stem}.prom"] = prom
        jsonl = out / f"{stem}.jsonl"
        jsonl.write_text(series_jsonl(block), encoding="utf-8")
        written[f"{stem}.jsonl"] = jsonl
    report = out / "report.json"
    report.write_text(dumps_canonical(payload) + "\n", encoding="utf-8")
    written["report.json"] = report
    profiler = obs_runtime.current()
    if profiler is not None:
        # host telemetry lands *next to* the canonical exports, never in
        # them: runtime.json carries wall-clock measurements and is
        # excluded from byte-identity comparisons (CI diffs the run
        # directories with --exclude=runtime.json)
        runtime_path = out / "runtime.json"
        runtime_path.write_text(
            dumps_canonical(profiler.block()) + "\n",
            encoding="utf-8",
        )
        written["runtime.json"] = runtime_path
    return written


def exported(result: Any, out_dir: str | Path | None) -> Any:
    """Write ``result``'s run exports into ``out_dir`` when one is given
    (the ``--metrics`` tail of every timed experiment); return ``result``."""
    if out_dir is not None:
        write_run_exports(out_dir, result)
    return result
