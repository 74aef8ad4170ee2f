"""One module per paper table/figure, over a shared memoising context.

Each experiment module exposes ``run(ctx) -> result`` and
``render(result) -> str`` printing the same rows/series the paper reports,
and registers itself with :mod:`.registry` — importing this package
populates the registry the CLI dispatches from.
"""

from . import (
    churn_timeline,
    day_timeline,
    fig02_compression_ratio,
    fig03_codecs,
    fig04_ccr,
    fig08_disk_consumption,
    fig09_ddt_disk,
    fig10_ddt_memory,
    fig11_boot_time,
    fig12_cross_similarity,
    fig13_incremental,
    fig18_network_transfer,
    fits,
    storm_timeline,
    tab01_storage_chain,
    tab02_os_diversity,
)
from .context import ExperimentConfig, ExperimentContext, default_context
from .params import ParamSpec, validate_params
from .registry import Experiment, all_experiments, register
from .zfs_consumption import ConsumptionTrajectory, consumption

__all__ = [
    "ConsumptionTrajectory",
    "Experiment",
    "ExperimentConfig",
    "ExperimentContext",
    "ParamSpec",
    "validate_params",
    "all_experiments",
    "churn_timeline",
    "consumption",
    "day_timeline",
    "default_context",
    "register",
    "fig02_compression_ratio",
    "fig03_codecs",
    "fig04_ccr",
    "fig08_disk_consumption",
    "fig09_ddt_disk",
    "fig10_ddt_memory",
    "fig11_boot_time",
    "fig12_cross_similarity",
    "fig13_incremental",
    "fig18_network_transfer",
    "fits",
    "storm_timeline",
    "tab01_storage_chain",
    "tab02_os_diversity",
]
