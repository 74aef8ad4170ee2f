"""Registration churn — offline propagation under time, as an experiment.

The :func:`repro.workload.register_churn` scenario, promoted into the
registry: a week of Poisson registration pressure while compute nodes take
planned downtime windows, forcing incremental catch-ups — or, when the GC
window has swallowed a node's base snapshot, full re-replications. Sweeps
can grid over the horizon, churn rate, downtime pressure and fault plan::

    python -m repro churn --days 14 --registrations-per-day 12
    python -m repro sweep churn --grid "registrations_per_day=3,12 seed=0,1" --workers 2

``--metrics DIR`` persists the run's Prometheus/JSONL exports; the sampler
scrapes the fleet every 30 simulated minutes either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError
from ..common.report import ReportBase
from ..common.units import GiB
from ..metrics import exported
from ..workload import ChurnConfig, ChurnReport, register_churn
from .context import ExperimentContext
from .params import ParamSpec
from .registry import register
from .storm_timeline import fault_param, obs_params

__all__ = [
    "ChurnTimelineResult",
    "churn_params",
    "run",
    "render",
    "EXPERIMENT_ID",
    "CHURN_METRICS",
]

EXPERIMENT_ID = "churn"

#: sweep-summary metrics for the registration-churn scenario
CHURN_METRICS = (
    "report.registrations",
    "report.resyncs",
    "report.incremental_resyncs",
    "report.full_replications",
    "report.resync_latency.p50",
)


def _positive(name: str):
    """A ``check=`` validator rejecting values <= 0, naming the param."""

    def check(value: float) -> None:
        if value <= 0:
            raise ConfigError(f"param {name!r}: must be > 0, got {value}")

    return check


def churn_params() -> tuple[ParamSpec, ...]:
    """The churn scenario's declarative parameters."""
    return (
        ParamSpec("nodes", int, 8, "compute nodes", gridable=True),
        ParamSpec(
            "days", float, 7.0, "simulated horizon in days", gridable=True,
            check=_positive("days"),
        ),
        ParamSpec(
            "registrations_per_day",
            float,
            6.0,
            "mean registration rate",
            gridable=True,
            check=_positive("registrations_per_day"),
        ),
        ParamSpec(
            "downtimes_per_node",
            float,
            2.0,
            "expected downtime windows per node over the horizon",
            gridable=True,
        ),
        ParamSpec("seed", int, 0, "workload seed", gridable=True),
        fault_param(),
    ) + obs_params()


@dataclass(frozen=True)
class ChurnTimelineResult(ReportBase):
    """One churn horizon plus the config that produced it."""

    config: ChurnConfig
    report: ChurnReport


@register(
    EXPERIMENT_ID,
    "Registration churn: resyncs under node downtime",
    params=churn_params(),
    metrics=CHURN_METRICS,
)
def run(
    ctx: ExperimentContext | None = None,
    *,
    nodes: int = 8,
    days: float = 7.0,
    registrations_per_day: float = 6.0,
    downtimes_per_node: float = 2.0,
    seed: int = 0,
    faults: str | None = None,
    trace: str | None = None,
    metrics: str | None = None,
) -> ChurnTimelineResult:
    """Run the churn horizon over the process-wide catalog at its own
    scale; the context is accepted for interface uniformity but unused.
    ``trace``/``metrics`` export spans and metrics."""
    config = ChurnConfig.from_params(
        nodes=nodes,
        days=days,
        registrations_per_day=registrations_per_day,
        downtimes_per_node=downtimes_per_node,
        seed=seed,
        faults=faults,
    )
    return exported(
        ChurnTimelineResult(
            config=config, report=register_churn(config, trace_path=trace)
        ),
        metrics,
    )


def render(result: ChurnTimelineResult) -> str:
    """Summary table for the churn horizon."""
    config, report = result.config, result.report
    moved = report.resync_bytes / config.scale / GiB
    lines = [
        f"Registration churn: {config.n_nodes} nodes, "
        f"{config.horizon_days:.0f} days, "
        f"{config.registrations_per_day:.1f} regs/day, "
        f"{config.downtimes_per_node:.1f} downtimes/node, seed {config.seed}",
        f"{'regs':>5} {'resyncs':>8} {'incr':>5} {'full':>5} "
        f"{'moved GB':>9} {'reg p50 s':>10} {'resync p50 s':>13}",
        f"{report.registrations:>5} {report.resyncs:>8} "
        f"{report.incremental_resyncs:>5} {report.full_replications:>5} "
        f"{moved:>9.2f} {report.register_latency.p50:>10.1f} "
        f"{report.resync_latency.p50:>13.1f}",
    ]
    if config.faults is not None:
        lines.append(f"fault plan: {config.faults.render()}")
    return "\n".join(lines)
