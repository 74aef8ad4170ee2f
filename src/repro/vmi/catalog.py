"""Lazy image catalog: grain streams synthesized on first access.

The eager :class:`~repro.vmi.dataset.AzureCommunityDataset` builds every
:class:`ImageSpec` up front (cheap — integer bookkeeping) but callers then
materialise grain streams for *all* images before simulating anything,
which is what made sweep workers pay seconds of startup per point and put
``scale=1`` (the full 16.4 TB fleet, ~11 GB of grain IDs) out of reach.

:class:`LazyImageCatalog` is the SimFS-style fix: the spec table is built
once, but each image's grain stream / block view is synthesized **on
first access** and memoised under a **bounded byte budget** (LRU by
recency of use). Every image of a release starts from the same release
master, so the catalog builds each release's master window once, long
enough for all of the release's images, memoises it beside the streams,
and hands each stream builder its prefix. Synthesis is a pure function of
the spec, so an evicted entry re-synthesizes bit-identically — eviction
can change timing, never results. The catalog itself is described by a picklable
:class:`CatalogConfig`, so a multiprocess sweep ships the config in
milliseconds and each worker materialises only what its points touch.

The :class:`ImageCatalog` protocol is what consumers code against:
``specs``, ``grain_stream(image_id)``, ``block_view(image_id, bs)``.
:func:`as_catalog` adapts an eager dataset (it shares the already-built
spec list), which keeps every ``dataset=`` call site working unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, Literal, Protocol, runtime_checkable

import numpy as np

from ..common.errors import ConfigError
from ..common.units import GiB
from .dataset import AzureCommunityDataset, DatasetConfig, _build_images
from .content import PoolKind
from .image import MASTER_WINDOWS, ImageSpec, cache_stream, image_stream
from .pools import master_grains
from .streams import BlockView, block_view

__all__ = [
    "CatalogConfig",
    "DEFAULT_BUDGET_BYTES",
    "ImageCatalog",
    "LazyImageCatalog",
    "as_catalog",
]

Subject = Literal["caches", "images"]

#: default memo budget: comfortably holds every cache stream at any scale
#: and the hot working set of full image streams at scale=1
DEFAULT_BUDGET_BYTES = 2 * GiB


@dataclass(frozen=True)
class CatalogConfig:
    """Everything needed to (re)materialise a catalog — and nothing else.

    Frozen and picklable: this is what crosses the process boundary to
    sweep workers.
    """

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    #: upper bound on memoised stream/view bytes (LRU-evicted above it)
    budget_bytes: int = DEFAULT_BUDGET_BYTES

    def __post_init__(self) -> None:
        if self.budget_bytes <= 0:
            raise ConfigError("catalog byte budget must be positive")


@runtime_checkable
class ImageCatalog(Protocol):
    """What consumers need from an image catalog."""

    @property
    def specs(self) -> list[ImageSpec]:
        """Every image's spec (eagerly built — specs are cheap)."""
        ...

    def spec(self, image_id: int) -> ImageSpec:
        """One image's spec by id."""
        ...

    def grain_stream(
        self, image_id: int, subject: Subject = "caches"
    ) -> np.ndarray:
        """The image's grain-ID stream, synthesized on first access."""
        ...

    def block_view(
        self, image_id: int, block_size: int, subject: Subject = "caches"
    ) -> BlockView:
        """The stream folded into blocks, synthesized on first access."""
        ...


def _view_nbytes(view: BlockView) -> int:
    return (
        view.signatures.nbytes
        + view.class_fractions.nbytes
        + view.lsizes.nbytes
        + view.is_hole.nbytes
    )


class LazyImageCatalog:
    """The bounded-memo :class:`ImageCatalog` implementation."""

    def __init__(
        self,
        config: CatalogConfig | DatasetConfig | None = None,
        *,
        specs: list[ImageSpec] | None = None,
    ) -> None:
        if config is None:
            config = CatalogConfig()
        elif isinstance(config, DatasetConfig):
            config = CatalogConfig(dataset=config)
        self.config = config
        self._specs = specs
        self._by_id: dict[int, ImageSpec] | None = None
        #: (subject, image_id[, block_size]) -> array or view, and
        #: ("masters", release, pool kind) -> master window, LRU-ordered
        self._memo: OrderedDict[tuple, object] = OrderedDict()
        self._memo_bytes: dict[tuple, int] = {}
        self._resident = 0
        self.peak_resident_bytes = 0
        self._dataset: AzureCommunityDataset | None = None

    # -- the spec table ------------------------------------------------------------

    @property
    def specs(self) -> list[ImageSpec]:
        if self._specs is None:
            self._specs = _build_images(self.config.dataset)
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
        return value / self.config.dataset.scale

    @property
    def dataset(self) -> AzureCommunityDataset:
        """An eager-dataset facade over the same (shared) spec list —
        the bridge for analysis code reached through
        ``ExperimentContext.catalog(scale).dataset``."""
        if self._dataset is None:
            self._dataset = AzureCommunityDataset.from_images(
                self.config.dataset, self.specs
            )
        return self._dataset

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
        self._admit(key, view, _view_nbytes(view))
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

    def drop(self, subject: Subject | None = None) -> None:
        """Release memoised streams/views (all, or one subject's) and the
        master windows both subjects share."""
        keys = [
            key for key in self._memo
            if subject is None or key[0] in (subject, "masters")
        ]
        for key in keys:
            del self._memo[key]
            self._resident -= self._memo_bytes.pop(key)

    def _admit(self, key: tuple, value: object, nbytes: int) -> None:
        self._memo[key] = value
        self._memo_bytes[key] = nbytes
        self._resident += nbytes
        if self._resident > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident
        budget = self.config.budget_bytes
        while self._resident > budget and len(self._memo) > 1:
            old_key, _ = self._memo.popitem(last=False)
            self._resident -= self._memo_bytes.pop(old_key)


def as_catalog(source) -> ImageCatalog | None:
    """Adapt ``source`` to the catalog protocol.

    Accepts a catalog (returned as-is), an eager
    :class:`AzureCommunityDataset` (wrapped — the already-built spec list
    is shared, so nothing is recomputed), or ``None``.
    """
    if source is None:
        return None
    if isinstance(source, ImageCatalog):
        return source
    if isinstance(source, AzureCommunityDataset):
        return LazyImageCatalog(
            CatalogConfig(dataset=source.config), specs=source.images
        )
    raise ConfigError(
        f"cannot adapt {type(source).__name__} to an ImageCatalog"
    )
