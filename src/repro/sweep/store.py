"""The persistent sweep result store.

``python -m repro sweep … --store NAME`` (or ``--out DIR``) lands every
sweep under one directory — by convention
``benchmarks/results/<sweep-name>/`` next to the spec file — holding:

* ``spec.json`` — the expanded sweep definition (experiment, grid, fixed
  overrides), enough to re-run or extend the sweep,
* ``report.json`` — the merged :class:`~repro.sweep.runner.SweepResult`
  payload in canonical JSON (what ``python -m repro metrics`` summarises),
* ``metrics.jsonl`` — one line per point (index, params, derived seed, and
  every metrics block extracted from that point's result), the
  grep/jq-friendly view of the per-point time series,
* ``manifest.jsonl`` — written by the runner itself when the CLI defaults
  the manifest into the store directory (resume-able),
* ``runtime.json`` — host-side runtime telemetry (wall clock, engine
  throughput, RSS high-water; see :mod:`repro.obs.runtime`), written only
  when a profiler is active (CLI runs). It is the one file with
  non-deterministic *values* and is excluded from every byte-identity
  comparison.

Everything funnels through :func:`~repro.common.report.dumps_canonical`,
so a stored sweep is byte-identical across same-seed re-runs and across
``--workers`` counts.
"""

from __future__ import annotations

from pathlib import Path

from ..common.report import dumps_canonical
from ..metrics import collect_metric_blocks
from ..obs import runtime as obs_runtime
from .runner import SweepResult
from .spec import SweepSpec

__all__ = ["persist_sweep"]


def persist_sweep(
    out_dir: str | Path, spec: SweepSpec, result: SweepResult
) -> dict[str, Path]:
    """Write one sweep's spec/report/metrics files under ``out_dir``.

    Returns ``{filename: path}`` for what was written. The directory is
    created if needed; existing files are overwritten (a re-run replaces
    the stored result wholesale, never merges into it).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = result.to_dict()
    written: dict[str, Path] = {}

    spec_payload = {
        "experiment": spec.experiment,
        "grid": {axis: list(values) for axis, values in spec.grid.items()},
        "fixed": dict(spec.fixed),
    }
    spec_path = out / "spec.json"
    spec_path.write_text(dumps_canonical(spec_payload) + "\n", encoding="utf-8")
    written["spec.json"] = spec_path

    report_path = out / "report.json"
    report_path.write_text(dumps_canonical(payload) + "\n", encoding="utf-8")
    written["report.json"] = report_path

    lines = []
    for index, point in enumerate(payload.get("points", ())):
        blocks = collect_metric_blocks(point.get("result"), "result")
        lines.append(
            dumps_canonical(
                {
                    "index": index,
                    "params": point.get("params", {}),
                    "seed": point.get("seed"),
                    "metrics": blocks,
                }
            )
        )
    metrics_path = out / "metrics.jsonl"
    metrics_path.write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )
    written["metrics.jsonl"] = metrics_path

    profiler = obs_runtime.current()
    if profiler is not None:
        # host telemetry rides next to the canonical files, never inside
        # them: runtime.json holds wall-clock measurements and sits
        # outside every byte-identity comparison
        runtime_path = out / "runtime.json"
        runtime_path.write_text(
            dumps_canonical(profiler.block()) + "\n",
            encoding="utf-8",
        )
        written["runtime.json"] = runtime_path
    return written
