"""Unit tests for boot-trace synthesis."""

import numpy as np
import pytest

from repro.boot.trace import OpKind, TraceConfig, generate_boot_trace
from repro.vmi import DatasetConfig, LazyImageCatalog


@pytest.fixture(scope="module")
def specs():
    return LazyImageCatalog(DatasetConfig(scale=1 / 1024)).specs[:20]


class TestTraceShape:
    def test_reads_cover_whole_cache(self, specs):
        for spec in specs[:5]:
            trace = generate_boot_trace(spec)
            covered = np.zeros(spec.cache_bytes, dtype=bool)
            for op in trace.read_ops():
                covered[op.offset : op.offset + op.length] = True
            assert covered.all(), "boot must read the whole working set"

    def test_read_bytes_equal_cache_bytes(self, specs):
        trace = generate_boot_trace(specs[0])
        assert trace.read_bytes == specs[0].cache_bytes

    def test_reads_within_bounds(self, specs):
        trace = generate_boot_trace(specs[0])
        for op in trace.read_ops():
            assert 0 <= op.offset
            assert op.offset + op.length <= specs[0].cache_bytes

    def test_read_sizes_bounded(self, specs):
        cfg = TraceConfig()
        trace = generate_boot_trace(specs[0], cfg)
        sizes = [op.length for op in trace.read_ops()]
        assert max(sizes) <= cfg.max_read_bytes

    def test_cpu_time_realistic(self, specs):
        trace = generate_boot_trace(specs[0])
        assert 5.0 <= trace.cpu_seconds <= 60.0

    def test_deterministic(self, specs):
        a = generate_boot_trace(specs[0])
        b = generate_boot_trace(specs[0])
        assert [(o.kind, o.offset, o.length) for o in a.ops] == [
            (o.kind, o.offset, o.length) for o in b.ops
        ]

    def test_different_images_different_traces(self, specs):
        a = generate_boot_trace(specs[0])
        b = generate_boot_trace(specs[1])
        assert [(o.offset, o.length) for o in a.read_ops()] != [
            (o.offset, o.length) for o in b.read_ops()
        ]

    def test_cpu_identical_across_run_structures(self, specs):
        """CPU is keyed by image only, so storage configs compare fairly."""
        spec = specs[0]
        a = generate_boot_trace(spec, TraceConfig(mean_run_bytes=64 * 1024))
        b = generate_boot_trace(spec, TraceConfig(mean_run_bytes=256 * 1024))
        assert a.cpu_seconds == pytest.approx(b.cpu_seconds)

    def test_not_perfectly_sequential(self, specs):
        """Some backward jumps must exist (out-of-order file access)."""
        cfg = TraceConfig(mean_run_bytes=4 * 1024)  # force many runs
        trace = generate_boot_trace(specs[0], cfg)
        offsets = [op.offset for op in trace.read_ops()]
        backward = sum(1 for a, b in zip(offsets, offsets[1:]) if b < a)
        assert backward > 0

    def test_cpu_interleaved_with_reads(self, specs):
        trace = generate_boot_trace(specs[0])
        kinds = [op.kind for op in trace.ops]
        assert OpKind.CPU in kinds and OpKind.READ in kinds
        assert kinds[0] is OpKind.CPU  # boots start with kernel CPU work
