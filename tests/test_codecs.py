"""Unit and property tests for the compression codecs."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs import (
    available_codecs,
    get_codec,
    lz4_compress,
    lz4_decompress,
    lzjb_compress,
    lzjb_decompress,
)
from repro.common.errors import CodecError


def _sample_inputs():
    rng = np.random.default_rng(7)
    words = [b"alloc", b"kernel", b"module", b"device", b"mount", b"cache",
             b"block", b"inode", b"daemon", b"socket", b"error", b"retry"]
    text = b" ".join(
        words[i] for i in rng.integers(0, len(words), size=2000)
    )[:8192]
    binary = bytes(rng.integers(0, 48, size=8192, dtype=np.uint8))
    random_block = bytes(rng.integers(0, 256, size=8192, dtype=np.uint8))
    return {
        "empty": b"",
        "single": b"x",
        "zeros": bytes(4096),
        "text": text,
        "binary": binary,
        "random": random_block,
        "repeat": b"ab" * 4096,
        "short": b"hello world",
    }


SAMPLES = _sample_inputs()
ALL_CODECS = ["gzip1", "gzip6", "gzip9", "lzjb", "lz4", "off"]


class TestRegistry:
    def test_paper_codecs_available(self):
        for name in ("gzip6", "gzip9", "lzjb", "lz4"):
            assert name in available_codecs()

    def test_unknown_codec_raises(self):
        with pytest.raises(CodecError, match="unknown codec"):
            get_codec("zstd")

    def test_instances_are_shared(self):
        assert get_codec("gzip6") is get_codec("gzip6")


class TestRoundTrip:
    @pytest.mark.parametrize("codec_name", ALL_CODECS)
    @pytest.mark.parametrize("sample_name", sorted(SAMPLES))
    def test_round_trip(self, codec_name, sample_name):
        codec = get_codec(codec_name)
        data = SAMPLES[sample_name]
        payload = codec.compress(data)
        assert codec.decompress(payload, len(data)) == data

    @pytest.mark.parametrize("codec_name", ["gzip6", "lzjb", "lz4"])
    @given(data=st.binary(min_size=0, max_size=5000))
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, codec_name, data):
        codec = get_codec(codec_name)
        assert codec.decompress(codec.compress(data), len(data)) == data


class TestCompressionQuality:
    def test_zeros_compress_very_well(self):
        # lzjb's 66-byte max match bounds it near 2 bytes per 66 (~3%);
        # gzip and lz4 do far better
        for name, bound in (("gzip6", 1024), ("lzjb", 4096), ("lz4", 1024)):
            codec = get_codec(name)
            assert codec.compressed_size(bytes(65536)) < bound

    def test_random_does_not_compress(self):
        data = SAMPLES["random"]
        for name in ("gzip6", "lzjb", "lz4"):
            codec = get_codec(name)
            # effective size falls back to raw when compression loses
            assert codec.effective_size(data) == len(data)

    def test_paper_codec_ordering_on_text(self):
        """Figure 3: gzip9 <= gzip6 < lz4-family < lzjb in compressed size."""
        data = SAMPLES["text"]
        sizes = {name: get_codec(name).compressed_size(data) for name in ALL_CODECS[:5]}
        assert sizes["gzip9"] <= sizes["gzip6"]
        assert sizes["gzip6"] < sizes["lz4"]
        assert sizes["gzip6"] < sizes["lzjb"]

    def test_larger_blocks_compress_better(self):
        """Section 2.2: gzip ratio improves with block size."""
        codec = get_codec("gzip6")
        base = SAMPLES["text"] + SAMPLES["binary"]

        def ratio(block_size):
            blocks = [base[i : i + block_size] for i in range(0, len(base), block_size)]
            raw = sum(len(b) for b in blocks)
            compressed = sum(codec.compressed_size(b) for b in blocks)
            return raw / compressed

        assert ratio(1024) < ratio(16384)


class TestLzjbStream:
    def test_matches_are_emitted(self):
        # long repeats must shrink a lot
        data = b"squirrel" * 512
        assert len(lzjb_compress(data)) < len(data) // 4

    def test_truncated_stream_raises(self):
        payload = lzjb_compress(b"squirrel" * 64)
        with pytest.raises(CodecError):
            lzjb_decompress(payload[: len(payload) // 2], 8 * 64)

    def test_incompressible_overhead_bounded(self):
        # worst case: 1 copymap byte per 8 literals => <= 12.5% + epsilon
        data = SAMPLES["random"]
        assert len(lzjb_compress(data)) <= len(data) * 9 // 8 + 2


class TestLz4Stream:
    def test_matches_are_emitted(self):
        data = b"squirrel" * 512
        assert len(lz4_compress(data)) < len(data) // 4

    def test_zero_offset_rejected(self):
        # token: 0 literals + match, offset 0x0000 is invalid per spec
        bad = bytes([0x00, 0x00, 0x00, 0x00])
        with pytest.raises(CodecError):
            lz4_decompress(bad, 16)

    def test_truncated_stream_raises(self):
        payload = lz4_compress(b"squirrel" * 64)
        with pytest.raises(CodecError):
            lz4_decompress(payload[:3], 8 * 64)

    def test_overlapping_match_semantics(self):
        # RLE via offset-1 overlap: classic LZ4 behaviour the decoder must honour
        data = b"a" * 1000
        assert lz4_decompress(lz4_compress(data), 1000) == data

    def test_wrong_original_size_raises(self):
        payload = lz4_compress(b"hello world, hello world")
        with pytest.raises(CodecError):
            lz4_decompress(payload, 5)


class TestGzip:
    def test_payload_is_zlib_stream(self):
        payload = get_codec("gzip6").compress(b"hello")
        assert zlib.decompress(payload) == b"hello"

    def test_wrong_original_size_raises(self):
        payload = get_codec("gzip6").compress(b"hello")
        with pytest.raises(CodecError):
            get_codec("gzip6").decompress(payload, 3)

    def test_invalid_level_rejected(self):
        from repro.codecs import GzipCodec

        with pytest.raises(CodecError):
            GzipCodec(0)


class TestEffectiveSize:
    def test_compressible_uses_compressed(self):
        codec = get_codec("gzip6")
        data = b"a" * 65536
        assert codec.effective_size(data) == codec.compressed_size(data)

    def test_marginal_savings_rejected(self):
        """ZFS's 12.5% rule: tiny savings store raw."""
        codec = get_codec("gzip6")
        data = SAMPLES["random"]
        assert codec.effective_size(data) == len(data)

    def test_off_codec_never_shrinks(self):
        codec = get_codec("off")
        assert codec.effective_size(b"a" * 4096) == 4096
