"""Table 1 — attained storage efficiency with 128 KB block size.

The paper's reduction chain: 16.4 TB raw → 1.4 TB nonzero → 78.5 GB caches
(nonzero) → 15.1 GB after dedup + compression (CCR). The first three columns
are dataset inputs (normalised at build time, so they reproduce by
construction); the last column is *computed* by dividing the caches'
nonzero bytes by the measured CCR at 128 KB.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import TextTable
from ..common.units import ZFS_DEFAULT_BLOCK_SIZE, format_bytes
from ..common.report import ReportBase
from .context import ExperimentContext, default_context
from .registry import register

__all__ = ["Tab01Result", "run", "render"]

EXPERIMENT_ID = "tab01"


@dataclass(frozen=True)
class Tab01Result(ReportBase):
    """All byte values reported scaled-up (paper-comparable)."""

    original_bytes: float
    nonzero_bytes: float
    caches_nonzero_bytes: float
    caches_ccr_bytes: float
    ccr_at_128k: float


@register(EXPERIMENT_ID, "Table 1: storage reduction chain @128 KB")
def run(ctx: ExperimentContext | None = None) -> Tab01Result:
    """Compute this experiment's data points (see module docstring)."""
    ctx = ctx or default_context()
    scale_up = ctx.catalog().scaled_up
    metrics = ctx.metrics("caches", ZFS_DEFAULT_BLOCK_SIZE)
    caches_nonzero = sum(spec.cache_bytes for spec in ctx.specs)
    return Tab01Result(
        original_bytes=scale_up(sum(spec.raw_bytes for spec in ctx.specs)),
        nonzero_bytes=scale_up(sum(spec.nonzero_bytes for spec in ctx.specs)),
        caches_nonzero_bytes=scale_up(caches_nonzero),
        caches_ccr_bytes=scale_up(caches_nonzero / metrics.ccr),
        ccr_at_128k=metrics.ccr,
    )


def render(result: Tab01Result) -> str:
    """Render the paper-style table/series for this experiment."""
    table = TextTable(
        "Table 1: attained storage efficiency with 128 KB block size",
        ["Original", "Nonzero", "Caches (Nonzero)", "Caches/CCR"],
    )
    table.add_row(
        format_bytes(result.original_bytes),
        format_bytes(result.nonzero_bytes),
        format_bytes(result.caches_nonzero_bytes),
        format_bytes(result.caches_ccr_bytes),
    )
    return table.render() + f"\n(measured cache CCR @128 KB = {result.ccr_at_128k:.2f})"
