"""Unit tests for the L2 prefetchers."""

import pytest

from repro.cache.prefetch import (
    SequentialPrefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from repro.types import CACHE_BLOCK_SIZE

B = CACHE_BLOCK_SIZE


class TestFactory:
    def test_known_names(self):
        assert make_prefetcher("nextline").name == "nextline"
        assert make_prefetcher("stride").name == "stride"

    def test_degree_forwarded(self):
        assert make_prefetcher("nextline", degree=4).degree == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            make_prefetcher("oracle")


class TestSequential:
    def test_next_lines(self):
        p = SequentialPrefetcher(degree=2)
        assert p.on_miss(0x1000) == [0x1000 + B, 0x1000 + 2 * B]

    def test_block_aligns_input(self):
        p = SequentialPrefetcher()
        assert p.on_miss(0x1007) == [0x1000 + B]

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            SequentialPrefetcher(degree=0)


class TestStride:
    def test_needs_confirmation(self):
        p = StridePrefetcher(degree=1)
        assert p.on_miss(0x0) == []          # first touch: learn address
        assert p.on_miss(2 * B) == []        # learn delta
        assert p.on_miss(4 * B) == [6 * B]   # delta repeated: prefetch

    def test_broken_stride_resets(self):
        p = StridePrefetcher(degree=1)
        p.on_miss(0x0)
        p.on_miss(2 * B)
        p.on_miss(4 * B)
        assert p.on_miss(11 * B) == []  # stride broken

    def test_negative_stride(self):
        p = StridePrefetcher(degree=1)
        p.on_miss(10 * B)
        p.on_miss(8 * B)
        out = p.on_miss(6 * B)
        assert out == [4 * B]

    def test_never_prefetches_negative_addresses(self):
        p = StridePrefetcher(degree=3)
        p.on_miss(4 * B)
        p.on_miss(2 * B)
        out = p.on_miss(0)
        assert all(a >= 0 for a in out)

    def test_pages_tracked_independently(self):
        p = StridePrefetcher(degree=1)
        page2 = 1 << 12
        p.on_miss(0x0)
        p.on_miss(page2)          # different page: own entry
        p.on_miss(B)
        p.on_miss(page2 + B)
        assert p.on_miss(2 * B) == [3 * B]
        assert p.on_miss(page2 + 2 * B) == [page2 + 3 * B]

    def test_table_bounded(self):
        p = StridePrefetcher(table_size=4)
        for page in range(20):
            p.on_miss(page << 12)
        assert len(p._table) <= 4

    def test_reset(self):
        p = StridePrefetcher(degree=1)
        p.on_miss(0x0)
        p.on_miss(B)
        p.reset()
        assert p.on_miss(2 * B) == []  # history gone


class TestDesignIntegration:
    def test_nextline_reduces_streaming_misses(self, browser_stream_small):
        from repro.config import DEFAULT_PLATFORM
        from repro.core import BaselineDesign

        plain = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        pf = BaselineDesign(prefetch="nextline").run(browser_stream_small, DEFAULT_PLATFORM)
        assert pf.l2_stats.demand_miss_rate < plain.l2_stats.demand_miss_rate
        assert pf.extras["prefetch_issued"] > 0
        assert 0 <= pf.extras["prefetch_useful"] <= pf.extras["prefetch_issued"]

    def test_prefetch_respects_partition_isolation(self, browser_stream_small):
        from repro.config import DEFAULT_PLATFORM
        from repro.core import StaticPartitionDesign

        r = StaticPartitionDesign(prefetch="nextline").run(browser_stream_small,
                                                           DEFAULT_PLATFORM)
        assert r.l2_stats.cross_privilege_evictions == 0
        r.l2_stats.check_invariants()
