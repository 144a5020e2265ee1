"""Unit tests for repro.config."""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_PLATFORM, CacheGeometry, LatencyConfig, PlatformConfig


class TestCacheGeometry:
    def test_num_sets(self):
        g = CacheGeometry(1024 * 1024, 16)
        assert g.num_sets == 1024

    def test_num_blocks(self):
        g = CacheGeometry(4096, 4)
        assert g.num_blocks == 64

    def test_custom_block_size(self):
        g = CacheGeometry(8192, 2, block_size=128)
        assert g.num_sets == 32

    @pytest.mark.parametrize("size,assoc", [(0, 4), (-64, 4), (4096, 0), (4096, -1)])
    def test_rejects_non_positive(self, size, assoc):
        with pytest.raises(ValueError):
            CacheGeometry(size, assoc)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheGeometry(4096, 4, block_size=48)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError, match="not divisible"):
            CacheGeometry(4096 + 64, 4)

    def test_rejects_non_power_of_two_sets(self):
        # 12 sets of 4 ways x 64 B
        with pytest.raises(ValueError, match="power of two"):
            CacheGeometry(12 * 4 * 64, 4)

    def test_with_ways_keeps_sets(self):
        g = CacheGeometry(1024 * 1024, 16)
        h = g.with_ways(4)
        assert h.num_sets == g.num_sets
        assert h.associativity == 4
        assert h.size_bytes == g.size_bytes // 4

    def test_with_ways_can_grow(self):
        g = CacheGeometry(4096, 4)
        assert g.with_ways(8).size_bytes == 8192

    def test_with_ways_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CacheGeometry(4096, 4).with_ways(0)

    def test_frozen(self):
        g = CacheGeometry(4096, 4)
        with pytest.raises(AttributeError):
            g.size_bytes = 1


class TestLatencyConfig:
    def test_defaults_positive(self):
        lat = LatencyConfig()
        assert lat.l1_hit > 0 and lat.l2_hit > 0 and lat.dram > 0

    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            LatencyConfig(l1_hit=0)

    def test_rejects_negative_extra_write(self):
        with pytest.raises(ValueError):
            LatencyConfig(l2_extra_write=-1)

    def test_extra_write_zero_allowed(self):
        assert LatencyConfig(l2_extra_write=0).l2_extra_write == 0


class TestPlatformConfig:
    def test_default_platform_is_mobile_scale(self):
        p = DEFAULT_PLATFORM
        assert p.l1i.size_bytes == 32 * 1024
        assert p.l2.size_bytes == 1024 * 1024
        assert p.l2.associativity == 16

    def test_seconds(self):
        p = PlatformConfig(clock_hz=1e9)
        assert p.seconds(1e9) == pytest.approx(1.0)

    def test_with_l2(self):
        p = replace(DEFAULT_PLATFORM, l2=CacheGeometry(512 * 1024, 8))
        assert p.l2.size_bytes == 512 * 1024
        assert p.l1i == DEFAULT_PLATFORM.l1i

    def test_rejects_bad_clock(self):
        with pytest.raises(ValueError):
            PlatformConfig(clock_hz=0)

    def test_rejects_bad_cpi(self):
        with pytest.raises(ValueError):
            PlatformConfig(base_cpi=-1.0)

    def test_rejects_mismatched_block_sizes(self):
        with pytest.raises(ValueError, match="block size"):
            PlatformConfig(l1i=CacheGeometry(32 * 1024, 4, block_size=32))
