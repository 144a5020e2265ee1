"""Tests for the hybrid SRAM/STT partition design."""

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core import BaselineDesign, StaticPartitionDesign, multi_retention_design
from repro.core.hybrid import HybridPartitionDesign


class TestConstruction:
    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            HybridPartitionDesign(user_sram_ways=0)

    def test_default_capacity_matches_static(self):
        d = HybridPartitionDesign()
        assert d.user_sram_ways + d.user_stt_ways == 8
        assert d.kernel_sram_ways + d.kernel_stt_ways == 4


class TestBehaviour:
    def test_four_parts_reported(self, browser_stream_small):
        r = HybridPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        names = {s.name for s in r.segments}
        assert names == {"user-sram", "user-stt", "kernel-sram", "kernel-stt"}

    def test_write_hot_blocks_reach_sram_parts(self, browser_stream_small):
        r = HybridPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        sram_traffic = sum(s.stats.write_accesses + s.stats.fills
                           for s in r.segments if "sram" in s.name)
        assert sram_traffic > 0  # migrations happen

    def test_no_cross_privilege_evictions(self, browser_stream_small):
        r = HybridPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.l2_stats.cross_privilege_evictions == 0

    def test_stats_invariants(self, browser_stream_small):
        r = HybridPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        for seg in r.segments:
            seg.stats.check_invariants()

    def test_demand_accounting_exact(self, browser_stream_small):
        """Migrations add internal (non-demand) part accesses, but the
        demand view must match the stream exactly."""
        r = HybridPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.l2_stats.demand_accesses == browser_stream_small.demand.sum()
        assert r.l2_stats.accesses >= len(browser_stream_small)

    def test_migration_after_threshold_writes(self, browser_stream_small):
        """A block migrates to SRAM once it proves write-intensive."""
        from repro.core.hybrid import _HybridSegment
        from repro.energy.technology import sram, stt_ram

        seg = _HybridSegment("t", DEFAULT_PLATFORM, 1, 3, sram(), stt_ram("medium"))
        seg.access(0x1000, False, 0, 0, True)    # demand fill -> STT
        assert seg.stt.contains(0x1000)
        seg.access(0x1000, True, 0, 1, False)    # 1st write: stays in STT
        assert seg.stt.contains(0x1000)
        assert seg.migrations == 0
        seg.access(0x1000, True, 0, 2, False)    # 2nd write: migrates
        assert seg.sram.contains(0x1000)
        assert not seg.stt.contains(0x1000)
        assert seg.migrations == 1


class TestComparative:
    def test_sits_between_sram_and_stt(self, browser_stream_small):
        base = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        sram_part = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        hybrid = HybridPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        stt = multi_retention_design().run(browser_stream_small, DEFAULT_PLATFORM)
        e = lambda r: r.l2_energy.total_j / base.l2_energy.total_j
        assert e(stt) < e(hybrid) < e(sram_part)

    def test_hybrid_writes_cheaper_than_all_stt_per_event(self, browser_stream_small):
        """The SRAM parts absorb write-backs at SRAM write energy."""
        hybrid = HybridPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        stt = multi_retention_design().run(browser_stream_small, DEFAULT_PLATFORM)
        h_writes = sum(s.stats.total_writes for s in hybrid.segments)
        s_writes = sum(s.stats.total_writes for s in stt.segments)
        h_energy_per_write = hybrid.l2_energy.write_j / max(1, h_writes)
        s_energy_per_write = stt.l2_energy.write_j / max(1, s_writes)
        assert h_energy_per_write < s_energy_per_write * 1.4
