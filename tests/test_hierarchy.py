"""Unit tests for the L1 filter / L2 stream stage."""

import numpy as np
import pytest

from conftest import make_trace
from repro.cache.hierarchy import L2Stream, l1_filter
from repro.config import CacheGeometry, PlatformConfig
from repro.types import AccessKind, Privilege

I, L, S = AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE
U, K = Privilege.USER, Privilege.KERNEL


@pytest.fixture
def tiny():
    return PlatformConfig(
        l1i=CacheGeometry(4 * 64, 4),  # one set, 4 ways
        l1d=CacheGeometry(4 * 64, 4),
        l2=CacheGeometry(8192, 4),
    )


class TestFiltering:
    def test_l1_hit_does_not_reach_l2(self, tiny):
        t = make_trace([(0, 0x0, L, U), (1, 0x0, L, U)])
        s = l1_filter(t, tiny)
        assert len(s) == 1  # only the compulsory miss

    def test_every_l1_miss_reaches_l2(self, tiny):
        t = make_trace([(i, i * 64 * 64, L, U) for i in range(10)])
        s = l1_filter(t, tiny)
        assert s.demand.sum() == 10

    def test_ifetch_and_data_use_separate_l1s(self, tiny):
        # same address as ifetch then load: both miss their own L1
        t = make_trace([(0, 0x0, I, U), (1, 0x0, L, U)])
        s = l1_filter(t, tiny)
        assert s.demand.sum() == 2
        assert s.l1i_stats.accesses == 1
        assert s.l1d_stats.accesses == 1

    def test_dirty_l1_eviction_becomes_writeback_row(self, tiny):
        entries = [(0, 0x0, S, U)]
        # evict 0x0 from the single-set 4-way L1D with 4 more blocks
        entries += [(i + 1, (i + 1) * 64 * 1, L, U) for i in range(4)]
        t = make_trace(entries)
        s = l1_filter(t, tiny)
        wb = ~s.demand
        assert wb.sum() == 1
        assert s.addrs[wb][0] == 0x0
        assert bool(s.writes[wb][0])

    def test_writeback_carries_owner_privilege(self, tiny):
        entries = [(0, 0x0, S, K)]
        entries += [(i + 1, (i + 1) * 64, L, U) for i in range(4)]
        t = make_trace(entries)
        s = l1_filter(t, tiny)
        wb = ~s.demand
        assert s.privs[wb][0] == int(K)

    def test_metadata_passthrough(self, tiny):
        t = make_trace([(0, 0x0, L, U), (5, 0x40, L, U)], name="meta")
        s = l1_filter(t, tiny)
        assert s.name == "meta"
        assert s.trace_accesses == 2
        assert s.duration_ticks == 6
        assert s.instructions == t.instructions


class TestStreamProperties:
    def test_kernel_share(self, tiny):
        t = make_trace([(0, 0x0, L, U), (1, 0xC000_0000, L, K)])
        s = l1_filter(t, tiny)
        assert s.kernel_share() == pytest.approx(0.5)

    def test_empty_stream_kernel_share(self, tiny):
        s = l1_filter(make_trace([]), tiny)
        assert len(s) == 0
        assert s.kernel_share() == 0.0

    def test_select_preserves_metadata(self, tiny):
        # a stream rebuilt from a subset of its rows keeps its trace context
        t = make_trace([(0, 0x0, L, U), (1, 0x40 * 7, L, U)])
        s = l1_filter(t, tiny)
        sub = L2Stream.from_columns({k: c[s.demand] for k, c in s.columns().items()},
                                    s.context())
        assert sub.instructions == s.instructions
        assert sub.l1d_stats == s.l1d_stats

    def test_l1_demand_misses_property(self, tiny):
        t = make_trace([(0, 0x0, I, U), (1, 0x0, L, U)])
        s = l1_filter(t, tiny)
        assert s.l1_demand_misses == 2

    def test_determinism(self, browser_trace_small):
        from repro.config import DEFAULT_PLATFORM

        a = l1_filter(browser_trace_small, DEFAULT_PLATFORM)
        b = l1_filter(browser_trace_small, DEFAULT_PLATFORM)
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.ticks, b.ticks)

    def test_ticks_non_decreasing(self, browser_stream_small):
        assert np.all(np.diff(browser_stream_small.ticks) >= 0)

    def test_realistic_stream_is_subset_of_trace(self, browser_trace_small, browser_stream_small):
        assert 0 < len(browser_stream_small) < len(browser_trace_small) * 1.5
        assert browser_stream_small.demand.sum() < len(browser_trace_small)
