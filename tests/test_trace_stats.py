"""Trace and stream statistics, checked on the code the experiments run.

The footprint count is the characterization table's, the same-block
gaps and their rows are Figure 5's, and the kernel share and stack
distances come from :class:`~repro.trace.access.Trace` and
:mod:`repro.analytic`.
"""

import numpy as np
import pytest

from conftest import make_trace
from repro.analytic import stack_distances
from repro.cache.hierarchy import L2Stream
from repro.cache.stats import CacheStats
from repro.experiments.characterization import footprint_bytes
from repro.experiments.figures import IntervalRow, IntervalsResult, _privilege_intervals_ms
from repro.types import CACHE_BLOCK_SIZE, AccessKind, Privilege

L, U, K = AccessKind.LOAD, Privilege.USER, Privilege.KERNEL
#: One tick per millisecond, so Figure 5's gaps read in ticks.
CLOCK_HZ = 1e3


def make_stream(rows) -> L2Stream:
    """A demand-only L2 stream of (tick, addr, privilege) rows."""
    n = len(rows)
    ticks = np.array([r[0] for r in rows], dtype=np.int64)
    return L2Stream(
        name="t",
        ticks=ticks,
        addrs=np.array([r[1] for r in rows], dtype=np.uint64),
        privs=np.array([int(r[2]) for r in rows], dtype=np.uint8),
        writes=np.zeros(n, dtype=bool),
        demand=np.ones(n, dtype=bool),
        instructions=max(n, 1),
        trace_accesses=n,
        duration_ticks=int(ticks[-1]) + 1 if n else 0,
        l1i_stats=CacheStats(),
        l1d_stats=CacheStats(),
    )


def block_distances(trace) -> list[int]:
    """Stack distance of each reference of ``trace``, by cache block."""
    return stack_distances(trace.addrs // np.uint64(CACHE_BLOCK_SIZE)).tolist()


class TestFootprint:
    def test_unique_blocks_counts_blocks_not_accesses(self):
        t = make_trace([(0, 0, L, U), (1, 0, L, U), (2, 64, L, U), (3, 65, L, U)])
        assert footprint_bytes(t) == 2 * CACHE_BLOCK_SIZE

    def test_footprint_bytes(self):
        t = make_trace([(0, 0, L, U), (1, 128, L, U)])
        assert footprint_bytes(t) == 128

    def test_per_privilege(self):
        t = make_trace([(0, 0, L, U), (1, 0xC000_0000, L, K)])
        assert footprint_bytes(t.select(t.privilege_mask(U))) == CACHE_BLOCK_SIZE
        assert footprint_bytes(t.select(t.privilege_mask(K))) == CACHE_BLOCK_SIZE

    def test_empty(self):
        assert footprint_bytes(make_trace([])) == 0


class TestKernelShare:
    def test_share(self):
        t = make_trace([(0, 0, L, U), (1, 0xC000_0000, L, K)])
        assert t.kernel_fraction() == pytest.approx(0.5)


class TestReuseDistances:
    def test_no_reuse_no_distances(self):
        t = make_trace([(i, i * 64, L, U) for i in range(5)])
        assert block_distances(t) == [-1] * 5

    def test_immediate_reuse_distance_zero(self):
        # two addresses of one block: the second reference is a reuse
        t = make_trace([(0, 0, L, U), (1, 63, L, U)])
        assert block_distances(t) == [-1, 0]

    def test_classic_stack_distance(self):
        # A B C A: distance of final A is 2 (B and C in between)
        t = make_trace([(0, 0, L, U), (1, 64, L, U), (2, 128, L, U), (3, 0, L, U)])
        assert block_distances(t) == [-1, -1, -1, 2]

    def test_duplicate_intermediate_counts_once(self):
        # A B B A: stack distance of final A is 1
        t = make_trace([(0, 0, L, U), (1, 64, L, U), (2, 64, L, U), (3, 0, L, U)])
        assert block_distances(t) == [-1, -1, 0, 1]

    def test_max_samples_bounds_work(self):
        # a prefix yields one distance per reference it holds
        t = make_trace([(i, (i % 3) * 64, L, U) for i in range(100)])
        d = stack_distances(t.addrs[:10] // np.uint64(CACHE_BLOCK_SIZE))
        assert d.tolist() == [-1, -1, -1] + [2] * 7


class TestIntervals:
    def test_gaps_between_same_block(self):
        s = make_stream([(0, 0, U), (5, 0, U), (12, 0, U)])
        assert sorted(_privilege_intervals_ms(s, U, CLOCK_HZ)) == [5, 7]

    def test_different_blocks_no_interval(self):
        s = make_stream([(0, 0, U), (5, 64, U)])
        assert len(_privilege_intervals_ms(s, U, CLOCK_HZ)) == 0

    def test_privilege_filter(self):
        s = make_stream([(0, 0xC000_0000, K), (9, 0xC000_0000, K), (10, 0, U)])
        assert list(_privilege_intervals_ms(s, K, CLOCK_HZ)) == [9]
        assert len(_privilege_intervals_ms(s, U, CLOCK_HZ)) == 0

    def test_empty_trace(self):
        assert len(_privilege_intervals_ms(make_stream([]), U, CLOCK_HZ)) == 0


class TestSummaries:
    """Figure 5 summarises each privilege's gaps as one percentile row."""

    def test_empty_summary(self):
        text = IntervalsResult(()).render()
        assert "p50 (ms)" in text
        assert "retention windows" in text

    def test_summary_fields(self):
        row = IntervalRow("game", "user", p50_ms=1.0, p90_ms=22.0, p99_ms=100.0)
        line = next(ln for ln in IntervalsResult((row,)).render().splitlines() if "game" in ln)
        assert line.split()[1:] == ["user", "1.00", "22.00", "100.00"]

    def test_row_order(self):
        rows = (IntervalRow("game", "user", 1.0, 2.0, 3.0),
                IntervalRow("game", "kernel", 4.0, 5.0, 6.0))
        lines = [ln for ln in IntervalsResult(rows).render().splitlines() if "game" in ln]
        assert [ln.split()[1] for ln in lines] == ["user", "kernel"]
