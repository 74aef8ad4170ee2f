"""Null codec: the identity codec.

:class:`NullCodec` backs ``compression=off`` configurations and the XFS
baseline in Figure 11. (All-zero blocks never reach a codec: block views
mark them as holes, which ZFS stores without allocating space.)
"""

from __future__ import annotations

from .base import Codec, register_codec

__all__ = ["NullCodec"]


class NullCodec(Codec):
    """Identity codec: compression disabled."""

    name = "off"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, payload: bytes, original_size: int) -> bytes:
        return payload

    def compressed_size(self, data: bytes) -> int:
        return len(data)

    def effective_size(self, data: bytes) -> int:
        return len(data)


register_codec("off", NullCodec)
