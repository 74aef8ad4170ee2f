"""Steady-state day — diurnal multi-tenant load as a first-class experiment.

The :func:`repro.workload.steady_state_day` scenario, promoted into the
registry: 24 simulated hours of diurnal boot arrivals from a Zipf tenant
population against one cluster, with a trickle of new registrations and a
nightly GC. Sweeps can grid over the tenant count, boot volume,
registration pressure and fault plan::

    python -m repro day --tenants 32 --faults "crash:compute2@7200+600"
    python -m repro sweep day --grid "tenants=8,32 boots=200,800" --workers 2

``--metrics DIR`` persists the run's Prometheus/JSONL exports; the sampler
scrapes the fleet every 5 simulated minutes either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.report import ReportBase
from ..common.units import GiB
from ..metrics import exported
from ..workload import DayConfig, DayReport, steady_state_day
from .context import ExperimentContext
from .params import ParamSpec
from .registry import register
from .storm_timeline import fault_param, obs_params

__all__ = [
    "DayTimelineResult",
    "day_params",
    "run",
    "render",
    "EXPERIMENT_ID",
    "DAY_METRICS",
]

EXPERIMENT_ID = "day"

#: sweep-summary metrics for the steady-state day
DAY_METRICS = (
    "report.boots",
    "report.cache_hits",
    "report.registrations",
    "report.boot_latency.p50",
    "report.boot_latency.p95",
)


def day_params() -> tuple[ParamSpec, ...]:
    """The day scenario's declarative parameters."""
    return (
        ParamSpec("nodes", int, 16, "compute nodes", gridable=True),
        ParamSpec(
            "boots", int, 400, "expected boots over the day", gridable=True
        ),
        ParamSpec("tenants", int, 16, "tenant population", gridable=True),
        ParamSpec(
            "registrations",
            int,
            8,
            "new images registered during the day",
            gridable=True,
        ),
        ParamSpec("seed", int, 0, "workload seed", gridable=True),
        fault_param(),
    ) + obs_params()


@dataclass(frozen=True)
class DayTimelineResult(ReportBase):
    """One simulated day plus the config that produced it."""

    config: DayConfig
    report: DayReport


@register(
    EXPERIMENT_ID,
    "Steady-state day: diurnal multi-tenant load",
    params=day_params(),
    metrics=DAY_METRICS,
)
def run(
    ctx: ExperimentContext | None = None,
    *,
    nodes: int = 16,
    boots: int = 400,
    tenants: int = 16,
    registrations: int = 8,
    seed: int = 0,
    faults: str | None = None,
    trace: str | None = None,
    metrics: str | None = None,
) -> DayTimelineResult:
    """Run the day. The scenario owns its dataset (the day's catalogue is
    small), so the shared context is accepted for interface uniformity but
    unused. ``trace``/``metrics`` export spans and metrics."""
    config = DayConfig.from_params(
        nodes=nodes,
        boots=boots,
        tenants=tenants,
        registrations=registrations,
        seed=seed,
        faults=faults,
    )
    return exported(
        DayTimelineResult(
            config=config, report=steady_state_day(config, trace_path=trace)
        ),
        metrics,
    )


def render(result: DayTimelineResult) -> str:
    """Summary table for the simulated day."""
    config, report = result.config, result.report
    scale_up = 1.0 / config.scale
    ingress = report.compute_ingress_bytes * scale_up / GiB
    hit_pct = 100 * report.cache_hits / report.boots if report.boots else 0.0
    lines = [
        f"Steady-state day: {config.n_nodes} nodes, "
        f"{config.n_tenants} tenants (zipf {config.zipf_exponent}), "
        f"~{config.n_boots} boots, "
        f"{config.n_new_registrations} new images, seed {config.seed}",
        f"{'boots':>6} {'hits':>6} {'hit %':>6} {'regs':>5} "
        f"{'ingress GB':>11} {'boot p50 s':>11} {'boot p95 s':>11} "
        f"{'reg p50 s':>10}",
        f"{report.boots:>6} {report.cache_hits:>6} {hit_pct:>6.1f} "
        f"{report.registrations:>5} {ingress:>11.2f} "
        f"{report.boot_latency.p50:>11.2f} {report.boot_latency.p95:>11.2f} "
        f"{report.register_latency.p50:>10.1f}",
    ]
    if config.faults is not None:
        lines.append(f"fault plan: {config.faults.render()}")
    return "\n".join(lines)
