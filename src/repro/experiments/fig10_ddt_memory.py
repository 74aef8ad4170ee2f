"""Figure 10 — memory consumption of the dedup tables vs block size.

Expected shape: cache DDTs stay small (well under ~100 MB above 32 KB);
image DDTs blow up at small block sizes — the scalability argument for
storing caches, not images (Section 4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import Series, render_series
from ..common.units import ZFS_BLOCK_SIZES, GiB, MiB
from ..common.report import ReportBase
from .context import ExperimentContext, default_context
from .registry import register
from .zfs_consumption import consumption

__all__ = ["Fig10Result", "run", "render"]

EXPERIMENT_ID = "fig10"


@dataclass(frozen=True)
class Fig10Result(ReportBase):
    block_sizes: tuple[int, ...]
    images_memory_gb: tuple[float, ...]
    caches_memory_gb: tuple[float, ...]

    def cache_memory_mb_at(self, block_size: int) -> float:
        index = self.block_sizes.index(block_size)
        return self.caches_memory_gb[index] * GiB / MiB


@register(EXPERIMENT_ID, "Figure 10: DDT memory")
def run(ctx: ExperimentContext | None = None) -> Fig10Result:
    """Compute this experiment's data points (see module docstring)."""
    ctx = ctx or default_context()
    scale_up = ctx.catalog().scaled_up
    images, caches = [], []
    for block_size in ZFS_BLOCK_SIZES:
        images.append(
            scale_up(consumption("images", block_size, ctx).final_memory()) / GiB
        )
        caches.append(
            scale_up(consumption("caches", block_size, ctx).final_memory()) / GiB
        )
    return Fig10Result(
        block_sizes=ZFS_BLOCK_SIZES,
        images_memory_gb=tuple(images),
        caches_memory_gb=tuple(caches),
    )


def render(result: Fig10Result) -> str:
    """Render the paper-style table/series for this experiment."""
    series = []
    for name, values in (
        ("images", result.images_memory_gb),
        ("caches", result.caches_memory_gb),
    ):
        line = Series(name)
        for bs, value in zip(result.block_sizes, values):
            line.add(bs // 1024, value)
        series.append(line)
    rendered = render_series(
        "Figure 10: memory consumption for deduplication tables (GB, scaled up)",
        series,
        x_label="block KB",
        y_format="{:.3f}",
    )
    return rendered + (
        f"\ncache DDT memory @64 KB = {result.cache_memory_mb_at(65536):.0f} MB"
        " (paper: ~60 MB)"
    )
