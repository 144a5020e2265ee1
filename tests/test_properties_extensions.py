"""Property-based tests for the extension substrates."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.prefetch import SequentialPrefetcher, StridePrefetcher
from repro.dram import DRAMModel
from repro.trace.transform import timeslice
from repro.types import CACHE_BLOCK_SIZE


@given(st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_dram_latency_bounded_and_stats_consistent(accesses):
    d = DRAMModel()
    cfg = d.config
    tick = 0
    for addr, is_write in accesses:
        lat = d.access(addr * 64, tick, is_write)
        assert cfg.t_row_hit <= lat <= cfg.t_row_miss + cfg.t_bank_busy
        tick += 7
    st_ = d.stats
    assert st_.row_hits + st_.row_misses == st_.accesses
    assert st_.reads + st_.writes == st_.accesses
    assert st_.total_latency >= st_.accesses * cfg.t_row_hit


@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=100),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_sequential_prefetcher_always_next_lines(addrs, degree):
    p = SequentialPrefetcher(degree)
    for addr in addrs:
        out = p.on_miss(addr * 64)
        assert len(out) == degree
        base = addr * 64
        for i, target in enumerate(out, start=1):
            assert target == base + i * CACHE_BLOCK_SIZE


@given(st.lists(st.integers(0, 255), min_size=3, max_size=120))
@settings(max_examples=60, deadline=None)
def test_stride_prefetches_follow_observed_delta(blocks):
    """Whatever the stride prefetcher proposes must continue the
    arithmetic progression of the last two misses on that page."""
    p = StridePrefetcher(degree=2)
    last: dict[int, int] = {}
    prev_delta: dict[int, int] = {}
    for b in blocks:
        addr = b * CACHE_BLOCK_SIZE  # all within a few pages
        page = addr >> 12
        out = p.on_miss(addr)
        if out:
            delta = addr - last[page]
            assert delta == prev_delta[page]
            expected = [addr + delta * i for i in range(1, 3)]
            assert out == [a for a in expected if a >= 0]
        if page in last:
            prev_delta[page] = addr - last[page]
        last[page] = addr


@given(
    st.lists(st.integers(1, 50), min_size=2, max_size=40),
    st.integers(min_value=2, max_value=30),
)
@settings(max_examples=50, deadline=None)
def test_timeslice_preserves_per_trace_order(gaps, quantum):
    """Each input trace's accesses appear in their original relative
    order in the sliced output."""
    from conftest import make_trace
    from repro.types import AccessKind, Privilege

    ticks = np.cumsum(gaps)
    a = make_trace([(int(t), 0x1000 + i * 64, AccessKind.LOAD, Privilege.USER)
                    for i, t in enumerate(ticks)], name="a")
    b = make_trace([(int(t), 0x100_0000 + i * 64, AccessKind.LOAD, Privilege.USER)
                    for i, t in enumerate(ticks)], name="b")
    out = timeslice([a, b], quantum)
    a_addrs = out.addrs[out.addrs < 0x100_0000]
    b_addrs = out.addrs[out.addrs >= 0x100_0000]
    assert np.all(np.diff(a_addrs.astype(np.int64)) > 0)
    assert np.all(np.diff(b_addrs.astype(np.int64)) > 0)
    assert np.all(np.diff(out.ticks.astype(np.int64)) >= 0)


@given(st.lists(st.tuples(st.integers(0, 63), st.booleans(), st.integers(0, 1)),
                min_size=1, max_size=250))
@settings(max_examples=50, deadline=None)
def test_hybrid_segment_never_duplicates_blocks(accs):
    """A block must never be resident in both parts of a hybrid segment."""
    from repro.config import DEFAULT_PLATFORM
    from repro.core.hybrid import _HybridSegment
    from repro.energy.technology import sram, stt_ram

    seg = _HybridSegment("t", DEFAULT_PLATFORM, 1, 3, sram(), stt_ram("medium"))
    for i, (block, is_write, priv) in enumerate(accs):
        addr = block * 64
        seg.access(addr, is_write, priv, i, True)
        assert not (seg.sram.contains(addr) and seg.stt.contains(addr))
