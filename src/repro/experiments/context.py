"""Shared experiment context: catalogs, streams, estimators, metric memo.

Every figure/table experiment pulls from one :class:`ExperimentContext`, so
a full benchmark run builds its catalog once (:func:`~repro.vmi.catalog_at`),
folds block views once per (subject, block size), and calibrates each
codec's estimator once. Experiments read the spec table (``specs``, ``census()``,
``scaled_up``) from :meth:`ExperimentContext.catalog`.

Environment knobs (read by :func:`default_context`):

* ``REPRO_SCALE``  — dataset scale denominator (default 32 → scale 1/32),
* ``REPRO_QUICK``  — when set to N>1, keep every N-th image (quick smoke
  runs; EXPERIMENTS.md numbers are produced without it).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..analysis import MetricsResult, dataset_metrics
from ..codecs import SizeEstimator
from ..common.errors import ConfigError
from ..common.units import ANALYSIS_BLOCK_SIZES
from ..vmi import LazyImageCatalog, Subject, catalog_at, make_estimator
from ..vmi.streams import BlockView

__all__ = ["ExperimentConfig", "ExperimentContext", "default_context", "environ_number", "scale_of"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment-wide knobs."""

    scale: float = 1.0 / 32.0
    quick: int = 1  #: keep every quick-th image (1 = all 607)
    calibration_samples: int = 4


class ExperimentContext:
    """Lazily built, memoising experiment state.

    Datasets live behind :meth:`catalog`: per scale, the process-wide
    :class:`~repro.vmi.LazyImageCatalog` (:func:`~repro.vmi.catalog_at`),
    shared with every timed run and every other context of the process,
    whose grain streams materialise on first access under the default
    byte budget.
    """

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()
        self._metrics_memo: dict[tuple[Subject, str, int], MetricsResult] = {}

    # -- dataset and streams -----------------------------------------------------

    def catalog(self) -> LazyImageCatalog:
        """The process-wide catalog at the analysis scale."""
        return catalog_at(self.config.scale)

    @property
    def specs(self):
        return self.catalog().specs[:: self.config.quick]

    def streams(self, subject: Subject) -> list[np.ndarray]:
        """All grain streams of a subject, via the catalog memo."""
        catalog = self.catalog()
        return [
            catalog.grain_stream(spec.image_id, subject)
            for spec in self.specs
        ]

    def views(self, subject: Subject, block_size: int) -> list[BlockView]:
        """Block views of a subject at one block size, via the catalog."""
        catalog = self.catalog()
        return [
            catalog.block_view(spec.image_id, block_size, subject)
            for spec in self.specs
        ]

    # -- estimators ----------------------------------------------------------------

    def estimator(
        self, codec: str = "gzip6", block_sizes: Sequence[int] = ANALYSIS_BLOCK_SIZES
    ) -> SizeEstimator:
        return make_estimator(
            codec,
            block_sizes,
            samples_per_point=self.config.calibration_samples,
        )

    # -- memoised metrics ------------------------------------------------------------

    def metrics(
        self, subject: Subject, block_size: int, codec: str = "gzip6"
    ) -> MetricsResult:
        """dedup/compression/CCR/similarity at one sweep point (memoised)."""
        key = (subject, codec, block_size)
        if key not in self._metrics_memo:
            estimator = self.estimator(codec, (block_size,))
            views = self.views(subject, block_size)
            self._metrics_memo[key] = dataset_metrics(views, estimator)
        return self._metrics_memo[key]


def scale_of(denominator: float) -> float:
    """The dataset scale of a ``--scale``/``REPRO_SCALE`` denominator."""
    if not (math.isfinite(denominator) and denominator > 0):
        raise ConfigError(
            f"scale denominator must be positive and finite, got {denominator}"
        )
    return 1.0 / denominator


@lru_cache(maxsize=None)
def _shared_context(denominator: float, quick: int) -> ExperimentContext:
    """Process-wide context memo, one entry per (scale, quick) pair."""
    return ExperimentContext(
        ExperimentConfig(scale=scale_of(denominator), quick=max(1, quick))
    )


def default_context() -> ExperimentContext:
    """Process-wide context honouring REPRO_SCALE / REPRO_QUICK.

    The environment is re-read on every call and the memo is keyed on the
    values, so a long-lived process (or a sweep worker) that edits
    ``REPRO_SCALE``/``REPRO_QUICK`` gets a matching context instead of the
    one frozen at first call; repeated calls under one environment still
    share a single dataset.
    """
    return _shared_context(
        environ_number("REPRO_SCALE", float, 32.0),
        environ_number("REPRO_QUICK", int, 1),
    )


def environ_number(name: str, kind: type, default):
    """``kind(os.environ[name])``, ``default`` when unset; a value that does
    not parse is a :class:`ConfigError`."""
    text = os.environ.get(name)
    try:
        return default if text is None else kind(text)
    except ValueError:
        raise ConfigError(f"{name}={text!r} is not a valid {kind.__name__}") from None
