"""Figure 8 — ZFS disk consumption (dedup + gzip6) vs block size.

Expected shape: measured-in-the-filesystem disk consumption turns upward at
*larger* block sizes than the pure CCR analysis predicts (the paper saw the
optimum shift from 4 KB to 16 KB for images / 8 KB to 32 KB for caches)
because the on-disk DDT grows as blocks shrink (Figure 9's overhead).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import Series, render_series
from ..common.units import ZFS_BLOCK_SIZES, GiB
from ..common.report import ReportBase
from .context import ExperimentContext, default_context
from .registry import register
from .zfs_consumption import consumption

__all__ = ["Fig08Result", "run", "render"]

EXPERIMENT_ID = "fig08"


@dataclass(frozen=True)
class Fig08Result(ReportBase):
    """Scaled-up GB per block size."""

    block_sizes: tuple[int, ...]
    images_disk_gb: tuple[float, ...]
    caches_disk_gb: tuple[float, ...]


@register(EXPERIMENT_ID, "Figure 8: ZFS disk consumption")
def run(ctx: ExperimentContext | None = None) -> Fig08Result:
    """Compute this experiment's data points (see module docstring)."""
    ctx = ctx or default_context()
    scale_up = ctx.catalog().scaled_up
    images, caches = [], []
    for block_size in ZFS_BLOCK_SIZES:
        images.append(scale_up(consumption("images", block_size, ctx).final_disk()) / GiB)
        caches.append(scale_up(consumption("caches", block_size, ctx).final_disk()) / GiB)
    return Fig08Result(
        block_sizes=ZFS_BLOCK_SIZES,
        images_disk_gb=tuple(images),
        caches_disk_gb=tuple(caches),
    )


def render(result: Fig08Result) -> str:
    """Render the paper-style table/series for this experiment."""
    series = []
    for name, values in (
        ("images: dedup+gzip6", result.images_disk_gb),
        ("caches: dedup+gzip6", result.caches_disk_gb),
    ):
        line = Series(name)
        for bs, value in zip(result.block_sizes, values):
            line.add(bs // 1024, value)
        series.append(line)
    return render_series(
        "Figure 8: disk consumption with dedup and compression (GB, scaled up)",
        series,
        x_label="block KB",
    )
