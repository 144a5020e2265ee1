"""Unit/integration tests for the design layer (baseline + static)."""

import pytest

from repro.config import DEFAULT_PLATFORM
from repro.core.baseline import BaselineDesign
from repro.core.designs import DESIGN_NAMES, REGISTERED_DESIGNS, make_design, paper_designs
from repro.core.multi_retention import multi_retention_design
from repro.core.result import DesignResult
from repro.core.static_partition import StaticPartitionDesign
from repro.energy.technology import stt_ram
from repro.engine import JobSpec, run_jobs
from repro.engine.executor import JobOutcome
from repro.engine.sweep import SweepResult
from repro.types import Privilege


class TestRegistry:
    def test_four_canonical_designs(self):
        assert DESIGN_NAMES == ("baseline", "static-sram", "static-stt", "dynamic-stt")

    def test_make_each(self):
        for name in DESIGN_NAMES:
            assert make_design(name) is not None

    def test_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            make_design("magic")

    def test_paper_designs_order(self):
        assert tuple(paper_designs()) == DESIGN_NAMES

    def test_every_registered_design_runs_through_jobspec(self):
        assert DESIGN_NAMES == ("baseline", "static-sram", "static-stt", "dynamic-stt")
        assert REGISTERED_DESIGNS == DESIGN_NAMES + ("drowsy-sram", "hybrid")
        specs = [JobSpec(name, "game", length=5_000) for name in REGISTERED_DESIGNS]
        outcomes = run_jobs(specs, store=None)
        assert [o.result.design for o in outcomes] == list(REGISTERED_DESIGNS)


class TestBaselineDesign:
    def test_run_produces_result(self, browser_stream_small):
        r = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert isinstance(r, DesignResult)
        assert r.design == "baseline"
        assert r.app == "browser"
        assert [s.name for s in r.segments] == ["shared"]

    def test_stats_consistent_with_stream(self, browser_stream_small):
        r = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.l2_stats.accesses == len(browser_stream_small)
        assert r.l2_stats.demand_accesses == browser_stream_small.demand.sum()
        r.l2_stats.check_invariants()

    def test_custom_geometry(self, browser_stream_small):
        small = BaselineDesign(ways=2)  # 128 KB at the platform's 1024 sets
        big = BaselineDesign()
        mr_small = small.run(browser_stream_small, DEFAULT_PLATFORM).l2_stats.demand_miss_rate
        mr_big = big.run(browser_stream_small, DEFAULT_PLATFORM).l2_stats.demand_miss_rate
        assert mr_small > mr_big

    def test_rejects_finite_retention_tech(self):
        with pytest.raises(ValueError, match="retention"):
            BaselineDesign(tech=stt_ram("short"))

    def test_energy_positive(self, browser_stream_small):
        e = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM).l2_energy
        assert e.leakage_j > 0 and e.read_j > 0 and e.write_j > 0
        assert e.refresh_j == 0.0

    def test_dram_energy_tracks_misses(self, browser_stream_small):
        r = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.dram_j > 0

    def test_summary_row_renders(self, browser_stream_small):
        # a result's summary row is its line of the sweep table
        r = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        outcome = JobOutcome(JobSpec("baseline", "browser"), r, cached=False, wall_s=0.0,
                             attempts=1)
        rows = [ln.split() for ln in SweepResult((outcome,), 0.0).render().splitlines()]
        assert ["baseline", "browser", "0"] in [row[:3] for row in rows]


class TestStaticPartitionDesign:
    def test_segments_named(self, browser_stream_small):
        r = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert {s.name for s in r.segments} == {"user", "kernel"}

    def test_accesses_routed_by_privilege(self, browser_stream_small):
        r = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        user_seg = r.segment("user")
        kernel_seg = r.segment("kernel")
        assert user_seg.stats.accesses_by_priv[int(Privilege.KERNEL)] == 0
        assert kernel_seg.stats.accesses_by_priv[int(Privilege.USER)] == 0

    def test_no_cross_privilege_evictions(self, browser_stream_small):
        r = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.l2_stats.cross_privilege_evictions == 0

    def test_active_bytes(self, browser_stream_small):
        r = StaticPartitionDesign(user_ways=8, kernel_ways=4).run(
            browser_stream_small, DEFAULT_PLATFORM)
        assert r.active_bytes == (8 + 4) * 64 * 1024

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            StaticPartitionDesign(user_ways=0)

    def test_segment_lookup_error(self, browser_stream_small):
        r = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        with pytest.raises(KeyError):
            r.segment("shared")

    def test_shrunk_partition_uses_less_leakage(self, browser_stream_small):
        base = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        part = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert part.l2_energy.leakage_j < base.l2_energy.leakage_j


class TestMultiRetentionDesign:
    def test_canonical_assignment(self):
        d = multi_retention_design()
        assert d.user_tech.retention.name == "medium"
        assert d.kernel_tech.retention.name == "short"

    def test_runs_with_expiries(self, browser_stream_small):
        r = multi_retention_design().run(browser_stream_small, DEFAULT_PLATFORM)
        st = r.l2_stats
        st.check_invariants()
        assert st.accesses == r.segment("user").stats.accesses + r.segment("kernel").stats.accesses

    def test_stt_leakage_below_sram(self, browser_stream_small):
        sram_part = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        stt_part = multi_retention_design().run(browser_stream_small, DEFAULT_PLATFORM)
        assert stt_part.l2_energy.leakage_j < sram_part.l2_energy.leakage_j

    def test_rewrite_mode_refreshes(self, browser_stream_small):
        # Use a retention window far below the small trace's span so the
        # refresh controller has something to do.
        from dataclasses import replace

        tech = stt_ram("short")
        tiny = replace(tech, retention=replace(tech.retention, retention_s=2e-5))
        d = StaticPartitionDesign(
            user_tech=tiny, kernel_tech=tiny, refresh_mode="rewrite", name="rw")
        r = d.run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.l2_stats.refresh_writes > 0
        assert r.l2_stats.expiry_invalidations == 0

    def test_invalidate_mode_no_refresh(self, browser_stream_small):
        r = multi_retention_design().run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.l2_stats.refresh_writes == 0

    def test_custom_retentions(self, browser_stream_small):
        d = multi_retention_design(user_retention="long", kernel_retention="long")
        r = d.run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.l2_stats.expiry_invalidations == 0


class TestTimingIntegration:
    def test_stt_write_latency_costs_performance(self, browser_stream_small):
        sram_part = StaticPartitionDesign(name="s").run(browser_stream_small, DEFAULT_PLATFORM)
        stt_part = multi_retention_design().run(browser_stream_small, DEFAULT_PLATFORM)
        assert stt_part.timing.busy_cycles >= sram_part.timing.busy_cycles

    def test_shared_and_partition_same_l1_stalls(self, browser_stream_small):
        a = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        b = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert a.timing.l2_access_stall_cycles == b.timing.l2_access_stall_cycles
