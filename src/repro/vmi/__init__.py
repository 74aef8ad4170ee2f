"""Procedural VM-image dataset: the 607 Azure community images.

Images are grain-addressed procedural content (see :mod:`~repro.vmi.content`)
drawn from release master layouts (:mod:`~repro.vmi.pools`) with per-image
clustered mutations (:mod:`~repro.vmi.image`). The spec builder
(:mod:`~repro.vmi.dataset`) reproduces Table 2's OS mix and the paper's
dataset totals at a configurable scale; :class:`LazyImageCatalog`
(:mod:`~repro.vmi.catalog`) holds those specs and synthesizes grain
streams on first access; :func:`catalog_at` keeps one per scale per process.
"""

from .calibration import make_estimator
from .catalog import DEFAULT_BUDGET_BYTES, LazyImageCatalog, Subject, catalog_at
from .content import (
    GRAIN_SIZE,
    N_CLASSES,
    ContentClass,
    PoolKind,
    class_of,
    materialize_block,
    materialize_grain,
    sample_block,
    tag_with_classes,
)
from .dataset import PAPER_TOTALS, DatasetConfig
from .distro import AZURE_CENSUS, EC2_CENSUS, OSFamily, Release, default_families
from .image import ImageSpec, MutationProfile, cache_stream, image_stream
from .pools import master_grains, package_pool_grains, private_grains
from .streams import BlockView, block_view, grains_per_block

__all__ = [
    "AZURE_CENSUS",
    "EC2_CENSUS",
    "GRAIN_SIZE",
    "N_CLASSES",
    "PAPER_TOTALS",
    "BlockView",
    "ContentClass",
    "DEFAULT_BUDGET_BYTES",
    "DatasetConfig",
    "ImageSpec",
    "LazyImageCatalog",
    "MutationProfile",
    "OSFamily",
    "PoolKind",
    "Release",
    "Subject",
    "block_view",
    "cache_stream",
    "catalog_at",
    "class_of",
    "default_families",
    "grains_per_block",
    "image_stream",
    "make_estimator",
    "master_grains",
    "materialize_block",
    "materialize_grain",
    "package_pool_grains",
    "private_grains",
    "sample_block",
    "tag_with_classes",
]
