"""Curve fitting and extrapolation (paper Section 4.3.2).

The paper models resource consumption vs cache count with three candidate
curves — linear regression, Morgan-Mercer-Flodin, and Hoerl:

.. math::

    \\mathrm{MMF}(x)   = \\frac{a b + c x^d}{b + x^d} \\qquad
    \\mathrm{hoerl}(x) = a\\, b^x\\, x^c

and selects per metric by a train-on-half / score-on-all RMSE protocol:
fit each candidate on the first half of the points, compute RMSE over *all*
points, pick the lowest, then refit the winner on all points for
extrapolation. The paper finds linear best for disk and MMF best for memory
(Tables 3, 4); :func:`repro.experiments.fits.select_curve` runs the same
protocol and reproduces that selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..common.errors import FitError

__all__ = [
    "FittedCurve",
    "fit_linear",
    "fit_mmf",
    "fit_hoerl",
    "rmse",
    "CURVE_FITTERS",
]


@dataclass(frozen=True)
class FittedCurve:
    """One fitted candidate curve."""

    name: str
    params: tuple[float, ...]
    _fn: Callable[..., np.ndarray]

    def predict(self, x: np.ndarray | float) -> np.ndarray | float:
        return self._fn(np.asarray(x, dtype=np.float64), *self.params)


def _linear(x: np.ndarray, a: float, b: float) -> np.ndarray:
    return a + b * x


def _mmf(x: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    xd = np.power(np.maximum(x, 1e-9), d)
    return (a * b + c * xd) / (b + xd)


def _hoerl(x: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    xs = np.maximum(x, 1e-9)
    return a * np.power(b, xs) * np.power(xs, c)


def fit_linear(x: Sequence[float], y: Sequence[float]) -> FittedCurve:
    """Ordinary least squares ``y = a + b x``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        raise FitError("linear fit needs at least 2 points")
    b, a = np.polyfit(x, y, 1)
    return FittedCurve("linear", (float(a), float(b)), _linear)


def fit_mmf(x: Sequence[float], y: Sequence[float]) -> FittedCurve:
    """Morgan-Mercer-Flodin sigmoid fit (scipy Levenberg-Marquardt).

    scipy is imported here, not at module load: it is most of the
    package's import time and memory, and only this fit uses it.
    """
    from scipy.optimize import curve_fit

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 5:
        raise FitError("MMF fit needs at least 5 points")
    y_max = float(y.max())
    p0 = (float(y.min()), float(max(x.mean(), 1.0)), 2.0 * y_max, 1.0)
    try:
        params, _ = curve_fit(
            _mmf,
            x,
            y,
            p0=p0,
            maxfev=20_000,
            bounds=(
                (-np.inf, 1e-9, -np.inf, 0.05),
                (np.inf, np.inf, np.inf, 8.0),
            ),
        )
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"MMF fit failed: {exc}") from exc
    return FittedCurve("MMF", tuple(float(p) for p in params), _mmf)


def fit_hoerl(x: Sequence[float], y: Sequence[float]) -> FittedCurve:
    """Hoerl fit, linearised in log space.

    ``log y = log a + x log b + c log x`` is linear in ``(1, x, log x)``, so
    the fit is a closed-form least squares — far more robust than fitting
    ``b**x`` directly (which overflows for x in the hundreds).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 3:
        raise FitError("Hoerl fit needs at least 3 points")
    if (y <= 0).any() or (x <= 0).any():
        raise FitError("Hoerl fit needs positive data")
    design = np.column_stack([np.ones_like(x), x, np.log(x)])
    coeffs, *_ = np.linalg.lstsq(design, np.log(y), rcond=None)
    log_a, log_b, c = coeffs
    return FittedCurve(
        "hoerl", (float(np.exp(log_a)), float(np.exp(log_b)), float(c)), _hoerl
    )


CURVE_FITTERS: dict[str, Callable[[Sequence[float], Sequence[float]], FittedCurve]] = {
    "linear": fit_linear,
    "MMF": fit_mmf,
    "hoerl": fit_hoerl,
}


def rmse(curve: FittedCurve, x: Sequence[float], y: Sequence[float]) -> float:
    """Root-mean-square error of ``curve`` over the given points."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    predicted = np.asarray(curve.predict(x), dtype=np.float64)
    return float(np.sqrt(np.mean((predicted - y) ** 2)))
