"""Figure 9 — dedup-table size on disk vs block size.

Expected shape: the DDT's on-disk footprint grows steeply as blocks shrink
(more unique blocks, one ZAP entry each), and images dwarf caches.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import Series, render_series
from ..common.units import ZFS_BLOCK_SIZES, GiB
from ..common.report import ReportBase
from .context import ExperimentContext, default_context
from .registry import register
from .zfs_consumption import consumption

__all__ = ["Fig09Result", "run", "render"]

EXPERIMENT_ID = "fig09"


@dataclass(frozen=True)
class Fig09Result(ReportBase):
    block_sizes: tuple[int, ...]
    images_ddt_gb: tuple[float, ...]
    caches_ddt_gb: tuple[float, ...]


@register(EXPERIMENT_ID, "Figure 9: DDT size on disk")
def run(ctx: ExperimentContext | None = None) -> Fig09Result:
    """Compute this experiment's data points (see module docstring)."""
    ctx = ctx or default_context()
    scale_up = ctx.catalog().scaled_up
    images, caches = [], []
    for block_size in ZFS_BLOCK_SIZES:
        images.append(
            scale_up(int(consumption("images", block_size, ctx).ddt_disk_bytes[-1]))
            / GiB
        )
        caches.append(
            scale_up(int(consumption("caches", block_size, ctx).ddt_disk_bytes[-1]))
            / GiB
        )
    return Fig09Result(
        block_sizes=ZFS_BLOCK_SIZES,
        images_ddt_gb=tuple(images),
        caches_ddt_gb=tuple(caches),
    )


def render(result: Fig09Result) -> str:
    """Render the paper-style table/series for this experiment."""
    series = []
    for name, values in (
        ("images", result.images_ddt_gb),
        ("caches", result.caches_ddt_gb),
    ):
        line = Series(name)
        for bs, value in zip(result.block_sizes, values):
            line.add(bs // 1024, value)
        series.append(line)
    return render_series(
        "Figure 9: deduplication table size on disk (GB, scaled up)",
        series,
        x_label="block KB",
        y_format="{:.3f}",
    )
