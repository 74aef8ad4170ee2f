"""Figures 14-17 and Tables 3-4 — curve fitting and extrapolation of cache
resource consumption (Section 4.3.2).

The paper's protocol per (metric, block size): train linear/MMF/Hoerl on the
first half of the per-cache consumption points, score each by RMSE over all
points (Tables 3 & 4, after normalising the data the way CurveExpert does),
then fit the winner on all points and extrapolate to 3000 caches (Figures
15 & 17). Expected outcome: **linear** wins disk, **MMF** wins memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import (
    CURVE_FITTERS,
    FittedCurve,
    Series,
    TextTable,
    rmse,
    render_series,
)
from ..common.report import ReportBase, to_jsonable
from ..common.units import GiB, MiB
from .context import ExperimentContext, default_context
from .registry import register
from .zfs_consumption import consumption

__all__ = [
    "FIT_BLOCK_SIZES",
    "EXTRAPOLATION_CACHES",
    "FitOutcome",
    "MetricFits",
    "run_disk",
    "run_memory",
    "render_fit_quality",
    "render_rmse_table",
    "render_extrapolation",
]

#: Tables 3/4 sweep these block sizes (KB): 16, 32, 64, 128
FIT_BLOCK_SIZES = (16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024)
EXTRAPOLATION_CACHES = 3000


@dataclass(frozen=True)
class FitOutcome:
    """Fits for one (metric, block size)."""

    block_size: int
    x: np.ndarray  #: cache count (1..n)
    y: np.ndarray  #: consumption (GB disk / MB memory, scaled up)
    half_fits: dict[str, FittedCurve]
    rmse_all: dict[str, float]
    winner_name: str
    winner_full_fit: FittedCurve  #: winner refit on all points

    def extrapolate(self, n_caches: int) -> float:
        return float(self.winner_full_fit.predict(float(n_caches)))


@dataclass(frozen=True)
class MetricFits(ReportBase):
    metric: str  #: "disk" or "memory"
    unit: str
    outcomes: dict[int, FitOutcome]  #: keyed by block size

    def outcome_64k(self) -> FitOutcome:
        return self.outcomes[64 * 1024]

    def to_dict(self) -> dict:
        """Fitted curves are callables; emit their identity + quality +
        extrapolation instead of the generic field dump."""
        return {
            "metric": self.metric,
            "unit": self.unit,
            "outcomes": {
                str(block_size): {
                    "winner": outcome.winner_name,
                    "winner_params": to_jsonable(outcome.winner_full_fit.params),
                    "rmse_all": to_jsonable(outcome.rmse_all),
                    "points": to_jsonable(outcome.y),
                    "extrapolated_3000": outcome.extrapolate(EXTRAPOLATION_CACHES),
                }
                for block_size, outcome in self.outcomes.items()
            },
        }


def _series_for(metric: str, block_size: int, ctx: ExperimentContext) -> np.ndarray:
    trajectory = consumption("caches", block_size, ctx)
    scale_up = ctx.catalog().scaled_up
    if metric == "disk":
        return scale_up(trajectory.disk_bytes.astype(np.float64)) / GiB
    return scale_up(trajectory.memory_bytes.astype(np.float64)) / MiB


def _fit_one(metric: str, block_size: int, ctx: ExperimentContext) -> FitOutcome:
    from ..common.errors import FitError

    y = _series_for(metric, block_size, ctx)
    x = np.arange(1, y.size + 1, dtype=np.float64)
    half = max(2, x.size // 2)
    half_fits: dict[str, FittedCurve] = {}
    scores: dict[str, float] = {}
    for name, fitter in CURVE_FITTERS.items():
        try:
            fit = fitter(x[:half], y[:half])
        except FitError:
            continue
        half_fits[name] = fit
        scores[name] = rmse(fit, x, y)
    winner_name = min(scores, key=scores.get)
    winner_full = CURVE_FITTERS[winner_name](x, y)
    return FitOutcome(
        block_size=block_size,
        x=x,
        y=y,
        half_fits=half_fits,
        rmse_all=scores,
        winner_name=winner_name,
        winner_full_fit=winner_full,
    )


def run_disk(ctx: ExperimentContext | None = None) -> MetricFits:
    """Figure 14 + Table 3 + Figure 15 inputs (disk, linear expected)."""
    ctx = ctx or default_context()
    outcomes = {bs: _fit_one("disk", bs, ctx) for bs in FIT_BLOCK_SIZES}
    return MetricFits(metric="disk", unit="GB", outcomes=outcomes)


def run_memory(ctx: ExperimentContext | None = None) -> MetricFits:
    """Figure 16 + Table 4 + Figure 17 inputs (memory, MMF expected)."""
    ctx = ctx or default_context()
    outcomes = {bs: _fit_one("memory", bs, ctx) for bs in FIT_BLOCK_SIZES}
    return MetricFits(metric="memory", unit="MB", outcomes=outcomes)


# -- renderings -------------------------------------------------------------------


def render_fit_quality(fits: MetricFits, *, figure: str) -> str:
    """Figures 14 / 16: the three half-trained curves against real data."""
    outcome = fits.outcome_64k()
    sample = np.unique(
        np.clip(np.linspace(0, outcome.x.size - 1, 7).astype(int), 0, outcome.x.size - 1)
    )
    series = []
    real = Series("real")
    for index in sample:
        real.add(outcome.x[index], outcome.y[index])
    series.append(real)
    for name, fit in outcome.half_fits.items():
        line = Series(name)
        for index in sample:
            line.add(outcome.x[index], float(fit.predict(outcome.x[index])))
        series.append(line)
    return render_series(
        f"{figure}: {fits.metric} consumption curve-fitting quality (BS = 64 KB, "
        f"{fits.unit})",
        series,
        x_label="caches",
    )


def render_rmse_table(fits: MetricFits, *, table: str) -> str:
    """Tables 3 / 4: RMSE per candidate per block size.

    Like the paper (which fitted with CurveExpert), RMSE is reported on
    normalised data (y scaled to [0, 1]) so values are comparable across
    block sizes.
    """
    text = TextTable(
        f"{table}: RMSE of curves estimating {fits.metric} consumption",
        ["Block size", "Linear", "MMF", "Hoerl", "winner"],
    )
    for bs in sorted(fits.outcomes, reverse=True):
        outcome = fits.outcomes[bs]
        span = float(outcome.y.max() - outcome.y.min()) or 1.0
        cells = []
        for name in ("linear", "MMF", "hoerl"):
            score = outcome.rmse_all.get(name)
            cells.append(f"{score / span:.2f}" if score is not None else "-")
        text.add_row(f"{bs // 1024} KB", *cells, outcome.winner_name)
    return text.render()


def render_extrapolation(fits: MetricFits, *, figure: str) -> str:
    """Figures 15 / 17: winner fit (all points) extrapolated to 3000 caches."""
    series = []
    for bs in sorted(fits.outcomes, reverse=True):
        outcome = fits.outcomes[bs]
        line = Series(f"{outcome.winner_name} - bs = {bs // 1024}kb")
        for count in (100, 500, 607, 1200, 2000, 3000):
            line.add(count, outcome.extrapolate(count))
        series.append(line)
    rendered = render_series(
        f"{figure}: extrapolation of {fits.metric} consumption ({fits.unit})",
        series,
        x_label="caches",
    )
    at_1200 = fits.outcome_64k().extrapolate(1214)
    return rendered + (
        f"\n64 KB extrapolation at 1214 caches: {at_1200:.1f} {fits.unit}"
    )


def render_disk(fits: MetricFits) -> str:
    """Figures 14/15 + Table 3 in one report."""
    return "\n\n".join(
        [
            render_fit_quality(fits, figure="Figure 14"),
            render_rmse_table(fits, table="Table 3"),
            render_extrapolation(fits, figure="Figure 15"),
        ]
    )


def render_memory(fits: MetricFits) -> str:
    """Figures 16/17 + Table 4 in one report."""
    return "\n\n".join(
        [
            render_fit_quality(fits, figure="Figure 16"),
            render_rmse_table(fits, table="Table 4"),
            render_extrapolation(fits, figure="Figure 17"),
        ]
    )


register(
    "fig14",
    "Figures 14/15 + Table 3: disk fits",
    aliases=("fig15", "tab03"),
    renderer=render_disk,
)(run_disk)
register(
    "fig16",
    "Figures 16/17 + Table 4: memory fits",
    aliases=("fig17", "tab04"),
    renderer=render_memory,
)(run_memory)
