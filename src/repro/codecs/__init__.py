"""Compression codecs (gzip, LZJB, LZ4) and the calibrated size estimator."""

from . import gzipcodec as _gzipcodec  # noqa: F401  (registers gzip1/6/9)
from . import lz4 as _lz4  # noqa: F401  (registers lz4)
from . import lzjb as _lzjb  # noqa: F401  (registers lzjb)
from . import zero as _zero  # noqa: F401  (registers off)
from .base import Codec, available_codecs, get_codec, register_codec
from .estimator import CalibrationPoint, SizeEstimator
from .gzipcodec import GzipCodec
from .lz4 import Lz4Codec, lz4_compress, lz4_decompress
from .lzjb import LzjbCodec, lzjb_compress, lzjb_decompress
from .zero import NullCodec

__all__ = [
    "CalibrationPoint",
    "Codec",
    "GzipCodec",
    "Lz4Codec",
    "LzjbCodec",
    "NullCodec",
    "SizeEstimator",
    "available_codecs",
    "get_codec",
    "lz4_compress",
    "lz4_decompress",
    "lzjb_compress",
    "lzjb_decompress",
    "register_codec",
]
