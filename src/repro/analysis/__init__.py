"""Metrics, pool accounting, curve fitting and report rendering."""

from .accounting import PoolAccountant, PoolSnapshot
from .curvefit import (
    CURVE_FITTERS,
    FittedCurve,
    fit_hoerl,
    fit_linear,
    fit_mmf,
    rmse,
)
from .metrics import (
    MetricsResult,
    combined_compression_ratio,
    compression_ratio,
    cross_similarity,
    dataset_metrics,
    dedup_ratio,
)
from .report import Series, TextTable, render_series

__all__ = [
    "CURVE_FITTERS",
    "FittedCurve",
    "MetricsResult",
    "PoolAccountant",
    "PoolSnapshot",
    "Series",
    "TextTable",
    "combined_compression_ratio",
    "compression_ratio",
    "cross_similarity",
    "dataset_metrics",
    "dedup_ratio",
    "fit_hoerl",
    "fit_linear",
    "fit_mmf",
    "render_series",
    "rmse",
]
