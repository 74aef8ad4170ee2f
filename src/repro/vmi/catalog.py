"""The image catalog: the 607 specs, grain streams synthesized on first access.

:class:`LazyImageCatalog` is the one holder of the Azure community set.
Its spec table (:func:`~repro.vmi.dataset._build_images`, integer
bookkeeping) is built on first use; each image's grain stream / block view
is synthesized **on first access** and memoised under a **bounded byte
budget** (LRU by recency of use), the SimFS-style answer to materialising
grain streams for *all* images before simulating anything (which put
``scale=1``, the full 16.4 TB fleet of ~11 GB of grain IDs, out of reach).
Every image of a release starts from the same release master, so the
catalog builds each release's master window once, long enough for all of
the release's images, memoises it beside the streams, and hands each
stream builder its prefix. Synthesis is a pure function of the spec, so an
evicted entry re-synthesizes bit-identically — eviction can change timing,
never results.

A catalog is a pure function of its scale, so :func:`catalog_at` keeps one
per scale for the whole process: a run re-reads the views earlier runs
folded. Those arrays are shared across runs, so they are read-only; a
consumer that writes into one raises instead of corrupting the next run.

Consumers read ``specs``, ``spec(image_id)``, ``census()``,
``scaled_up(value)``, ``grain_stream(image_id)`` and
``block_view(image_id, block_size)``.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cache
from typing import Iterator, Literal

import numpy as np

from ..common.errors import ConfigError
from ..common.units import GiB
from .content import PoolKind
from .dataset import DatasetConfig, _build_images
from .distro import AZURE_CENSUS, default_families
from .image import MASTER_WINDOWS, ImageSpec, cache_stream, image_stream
from .pools import master_grains
from .streams import BlockView, block_view

__all__ = ["DEFAULT_BUDGET_BYTES", "LazyImageCatalog", "Subject", "catalog_at"]

#: which grain stream of an image: its boot cache or the whole image
Subject = Literal["caches", "images"]

#: default memo budget: comfortably holds every cache stream at any scale
#: and the hot working set of full image streams at scale=1
DEFAULT_BUDGET_BYTES = 2 * GiB


class LazyImageCatalog:
    """The 607-image catalog with a bounded stream/view memo."""

    def __init__(
        self, config: DatasetConfig, *, budget_bytes: int = DEFAULT_BUDGET_BYTES
    ) -> None:
        if budget_bytes <= 0:
            raise ConfigError("catalog byte budget must be positive")
        self.config = config
        #: upper bound on memoised stream/view bytes (LRU-evicted above it)
        self.budget_bytes = budget_bytes
        self._specs: list[ImageSpec] | None = None
        self._by_id: dict[int, ImageSpec] | None = None
        #: (subject, image_id[, block_size]) -> array or view, and
        #: ("masters", release, pool kind) -> master window, LRU-ordered
        self._memo: OrderedDict[tuple, object] = OrderedDict()
        self._memo_bytes: dict[tuple, int] = {}
        self._resident = 0
        self.peak_resident_bytes = 0

    # -- the spec table ------------------------------------------------------------

    @property
    def specs(self) -> list[ImageSpec]:
        if self._specs is None:
            self._specs = _build_images(self.config)
        return self._specs

    def spec(self, image_id: int) -> ImageSpec:
        if self._by_id is None:
            self._by_id = {spec.image_id: spec for spec in self.specs}
        try:
            return self._by_id[image_id]
        except KeyError:
            raise ConfigError(
                f"image {image_id} is not in the catalog"
            ) from None

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[ImageSpec]:
        return iter(self.specs)

    def scaled_up(self, value: float) -> float:
        """Undo the dataset scale for paper-comparable reporting."""
        return value / self.config.scale

    def census(self) -> dict[str, int]:
        """Images per Table 2 OS row (must reproduce AZURE_CENSUS)."""
        census_name = {fam.name: fam.census_name for fam in default_families()}
        counts = dict.fromkeys(AZURE_CENSUS, 0)
        for spec in self.specs:
            counts[census_name[spec.release.family]] += 1
        return counts

    # -- lazy synthesis under the byte budget ---------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by the stream/view memo."""
        return self._resident

    def grain_stream(
        self, image_id: int, subject: Subject = "caches"
    ) -> np.ndarray:
        key = (subject, image_id)
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            return hit  # type: ignore[return-value]
        spec = self.spec(image_id)
        builder = cache_stream if subject == "caches" else image_stream
        stream = builder(spec, self._master_window)
        stream.flags.writeable = False
        self._admit(key, stream, stream.nbytes)
        return stream

    def block_view(
        self, image_id: int, block_size: int, subject: Subject = "caches"
    ) -> BlockView:
        key = (subject, image_id, block_size)
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            return hit  # type: ignore[return-value]
        view = block_view(self.grain_stream(image_id, subject), block_size)
        arrays = (view.signatures, view.class_fractions, view.lsizes, view.is_hole)
        for array in arrays:
            array.flags.writeable = False
        self._admit(key, view, sum(array.nbytes for array in arrays))
        return view

    def _master_window(self, spec: ImageSpec, kind: PoolKind) -> np.ndarray:
        """``master_window(spec, kind)``, sliced from the release's window."""
        start, span = MASTER_WINDOWS[kind]
        key = ("masters", spec.release, kind)
        window = self._memo.get(key)
        if window is None:
            length = max(
                span(other) for other in self.specs
                if other.release == spec.release
            )
            window = master_grains(spec.release, start, length, kind=kind)
            window.flags.writeable = False  # streams copy what they mutate
            self._admit(key, window, window.nbytes)
        else:
            self._memo.move_to_end(key)
        return window[: span(spec)]  # type: ignore[index]

    def _admit(self, key: tuple, value: object, nbytes: int) -> None:
        self._memo[key] = value
        self._memo_bytes[key] = nbytes
        self._resident += nbytes
        if self._resident > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident
        budget = self.budget_bytes
        while self._resident > budget and len(self._memo) > 1:
            old_key, _ = self._memo.popitem(last=False)
            self._resident -= self._memo_bytes.pop(old_key)


@cache
def catalog_at(scale: float) -> LazyImageCatalog:
    """The process-wide catalog at ``scale``: every run that is not handed
    a private catalog reads this one, so its memo outlives each run."""
    return LazyImageCatalog(DatasetConfig(scale=scale))
