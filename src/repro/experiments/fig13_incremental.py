"""Figure 13 — ZFS disk + memory while iteratively adding VMIs or caches
(64 KB block size).

Expected shape: image slopes are much steeper than cache slopes — each image
adds far more new hashes than its cache does (the cross-similarity theorem
of Section 4.3.1, verified in practice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import Series, render_series
from ..common.units import GiB, MiB, SQUIRREL_BLOCK_SIZE
from ..common.report import ReportBase
from .context import ExperimentContext, default_context
from .registry import register
from .zfs_consumption import consumption

__all__ = ["Fig13Result", "run", "render"]

EXPERIMENT_ID = "fig13"


@dataclass(frozen=True)
class Fig13Result(ReportBase):
    """Scaled-up trajectories at 64 KB (index i = i+1 files stored)."""

    caches_disk_gb: np.ndarray
    images_disk_gb: np.ndarray
    caches_memory_mb: np.ndarray
    images_memory_mb: np.ndarray

    def slope_ratio_disk(self) -> float:
        """Mean per-file disk growth: images over caches."""
        image_slope = self.images_disk_gb[-1] / self.images_disk_gb.size
        cache_slope = self.caches_disk_gb[-1] / self.caches_disk_gb.size
        return float(image_slope / cache_slope)


@register(EXPERIMENT_ID, "Figure 13: incremental consumption")
def run(ctx: ExperimentContext | None = None) -> Fig13Result:
    """Compute this experiment's data points (see module docstring)."""
    ctx = ctx or default_context()
    scale_up = ctx.catalog().scaled_up
    caches = consumption("caches", SQUIRREL_BLOCK_SIZE, ctx)
    images = consumption("images", SQUIRREL_BLOCK_SIZE, ctx)
    return Fig13Result(
        caches_disk_gb=scale_up(caches.disk_bytes.astype(np.float64)) / GiB,
        images_disk_gb=scale_up(images.disk_bytes.astype(np.float64)) / GiB,
        caches_memory_mb=scale_up(caches.memory_bytes.astype(np.float64)) / MiB,
        images_memory_mb=scale_up(images.memory_bytes.astype(np.float64)) / MiB,
    )


def render(result: Fig13Result) -> str:
    """Render the paper-style table/series for this experiment."""
    sample_points = [0, 99, 199, 299, 399, 499, len(result.caches_disk_gb) - 1]
    sample_points = sorted({min(p, len(result.caches_disk_gb) - 1) for p in sample_points})
    series = []
    for name, values in (
        ("disk caches GB", result.caches_disk_gb),
        ("disk images GB", result.images_disk_gb),
        ("mem caches MB", result.caches_memory_mb),
        ("mem images MB", result.images_memory_mb),
    ):
        line = Series(name)
        for point in sample_points:
            line.add(point + 1, float(values[point]))
        series.append(line)
    rendered = render_series(
        "Figure 13: resource consumption when iteratively adding files (bs=64 KB)",
        series,
        x_label="file #",
    )
    return rendered + (
        f"\nimages grow {result.slope_ratio_disk():.1f}x faster on disk than caches"
    )
