"""Unit tests for the DRAM bank/row-buffer model, and for the pipeline's
post-pass over replay events against the per-access interleaving."""

import dataclasses

import pytest

from diffsim import STRESS_CASES_FROM, STRESS_SCENARIOS, _workload, sample_case
from partition_oracles import interleaved_dram
from repro import obs
from repro.cache.hierarchy import L2Stream
from repro.cache.prefetch import make_prefetcher
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.core import BaselineDesign
from repro.core.multi_retention import multi_retention_design
from repro.core.pipeline import FixedSegment, run_fixed_design
from repro.dram import DRAMConfig, DRAMModel, DRAMStats
from repro.energy.technology import sram
from repro.types import Privilege


class TestConfig:
    def test_defaults_valid(self):
        DRAMConfig()

    def test_rejects_non_pow2_banks(self):
        with pytest.raises(ValueError, match="banks"):
            DRAMConfig(banks=6)

    def test_rejects_non_pow2_row(self):
        with pytest.raises(ValueError, match="row_bytes"):
            DRAMConfig(row_bytes=3000)

    def test_rejects_inverted_latencies(self):
        with pytest.raises(ValueError, match="t_row_hit"):
            DRAMConfig(t_row_hit=200, t_row_miss=100)


class TestAccess:
    def test_first_access_is_row_miss(self):
        d = DRAMModel()
        lat = d.access(0x0, 0)
        assert lat == d.config.t_row_miss
        assert d.stats.row_misses == 1

    def test_same_row_hits(self):
        d = DRAMModel()
        d.access(0x0, 0)
        lat = d.access(0x40, 1_000)
        assert lat == d.config.t_row_hit
        assert d.stats.row_hits == 1

    def test_different_row_same_bank_misses(self):
        d = DRAMModel()
        cfg = d.config
        d.access(0x0, 0)
        # same bank: row index differs by banks
        other = cfg.row_bytes * cfg.banks
        lat = d.access(other, 10_000)
        assert lat == cfg.t_row_miss
        assert d.stats.row_misses == 2

    def test_bank_conflict_adds_wait(self):
        d = DRAMModel()
        cfg = d.config
        d.access(0x0, 0)
        # immediately hit the same bank while busy
        lat = d.access(0x40, 1)
        assert lat > cfg.t_row_hit
        assert d.stats.busy_stalls == 1

    def test_banks_are_independent(self):
        d = DRAMModel()
        cfg = d.config
        d.access(0, 0)
        lat = d.access(cfg.row_bytes, 1)  # next row -> next bank
        assert lat == cfg.t_row_miss  # no busy wait

    def test_read_write_counted(self):
        d = DRAMModel()
        d.access(0x0, 0, is_write=False)
        d.access(0x40, 500, is_write=True)
        assert d.stats.reads == 1
        assert d.stats.writes == 1

    def test_mean_latency(self):
        d = DRAMModel()
        d.access(0x0, 0)
        d.access(0x40, 10_000)
        expected = (d.config.t_row_miss + d.config.t_row_hit) / 2
        assert d.stats.total_latency / d.stats.accesses == pytest.approx(expected)


class TestEnergy:
    def test_dynamic_components(self):
        d = DRAMModel()
        d.access(0x0, 0)          # miss: activate + column
        d.access(0x40, 10_000)    # hit: column only
        cfg = d.config
        expected = (cfg.e_activate_nj + 2 * cfg.e_column_nj) * 1e-9
        assert d.energy_j() == pytest.approx(expected)

    def test_background_energy(self):
        d = DRAMModel()
        assert d.energy_j(busy_seconds=1.0) == pytest.approx(d.config.e_background_mw * 1e-3)

    def test_rejects_negative_seconds(self):
        with pytest.raises(ValueError):
            DRAMModel().energy_j(-1.0)


class TestReset:
    def test_reset_clears_everything(self):
        d = DRAMModel()
        d.access(0x0, 0)
        d.reset()
        assert d.stats.accesses == 0
        assert d.access(0x0, 0) == d.config.t_row_miss  # row closed again


class TestDesignIntegration:
    def test_streaming_misses_earn_row_hits(self, browser_stream_small):
        r = BaselineDesign(dram=DRAMConfig()).run(browser_stream_small, DEFAULT_PLATFORM)
        stats = DRAMStats(**r.extras["dram_stats"])
        assert stats.accesses > 0
        assert 0.0 < stats.row_hit_rate < 1.0

    def test_banked_timing_differs_from_flat(self, browser_stream_small):
        flat = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        banked = BaselineDesign(dram=DRAMConfig()).run(browser_stream_small, DEFAULT_PLATFORM)
        assert banked.timing.dram_stall_cycles != flat.timing.dram_stall_cycles
        # miss counts are identical — DRAM only changes latency/energy
        assert banked.l2_stats.demand_misses == flat.l2_stats.demand_misses


#: The default platform with a 64 KB L2, which the small browser stream
#: overflows (dirty victims reach DRAM), and the same with a clock a
#: hundred times slower: retention windows shrink a hundredfold in ticks,
#: so static-stt's kernel segment decays inside the stream (the kernel's
#: expiring route).
SMALL_L2 = dataclasses.replace(DEFAULT_PLATFORM, l2=CacheGeometry(64 * 1024, 16))
SLOW_CLOCK = dataclasses.replace(SMALL_L2, clock_hz=DEFAULT_PLATFORM.clock_hz / 100)


def _oracle(design, stream, platform, prefetcher=None):
    """``(stall, DRAMStats)`` of the per-access interleaving over fresh
    copies of ``design``'s caches."""
    if isinstance(design, BaselineDesign):
        user = kernel = SetAssociativeCache(platform.l2, "lru")
    else:
        user = design._segment(platform, design.user_ways, design.user_tech, "user")
        kernel = design._segment(platform, design.kernel_ways, design.kernel_tech, "kernel")
    dram = DRAMModel()
    stall = interleaved_dram(stream, lambda priv: kernel if priv == Privilege.KERNEL else user,
                             dram, prefetcher)
    return stall, dram.stats


def _assert_matches_oracle(result, stall, stats):
    """Every ``DRAMStats`` field and the stall equal the oracle's."""
    assert result.extras["dram_stats"] == dataclasses.asdict(stats)
    assert result.timing.dram_stall_cycles == float(stall)


class TestPostPass:
    """The post-pass over replay events drives the DRAM model exactly as
    the per-access interleaving did, on both engines."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("factory, platform", [
        (BaselineDesign, SMALL_L2),
        (multi_retention_design, SMALL_L2),
        (multi_retention_design, SLOW_CLOCK),
    ], ids=["baseline", "static-stt", "static-stt@slow-clock"])
    def test_designs_match_interleaving(self, factory, platform, engine, browser_stream_small):
        stream = browser_stream_small
        expiring = obs.REGISTRY.counters.get("fastsim.retention.expiring", 0)
        result = factory(dram=DRAMConfig()).run(stream, platform, engine=engine)
        assert result.extras["sim_engine"] == ("fastsim" if engine == "fast" else "reference")
        _assert_matches_oracle(result, *_oracle(factory(), stream, platform))
        stats = result.extras["dram_stats"]
        assert stats["writes"] > 0 and stats["busy_stalls"] > 0
        if platform is SLOW_CLOCK:
            assert result.segment("kernel").stats.expiry_invalidations > 0
            if engine == "fast":
                assert obs.REGISTRY.counters["fastsim.retention.expiring"] > expiring

    def test_prefetch_traffic_matches_interleaving(self, browser_stream_small):
        """A prefetcher keeps the job on the reference engine; its fills
        and their victims reach the post-pass in issue order."""
        design = BaselineDesign(dram=DRAMConfig(), prefetch="nextline")
        result = design.run(browser_stream_small, SMALL_L2)
        assert result.extras["sim_engine"] == "reference"
        stall, stats = _oracle(BaselineDesign(), browser_stream_small, SMALL_L2,
                               make_prefetcher("nextline"))
        _assert_matches_oracle(result, stall, stats)
        assert result.extras["prefetch_issued"] > 0 and stats.writes > 0

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("seed", range(STRESS_CASES_FROM,
                                           STRESS_CASES_FROM + len(STRESS_SCENARIOS)),
                             ids=STRESS_SCENARIOS)
    def test_stress_cases_match_interleaving(self, seed, engine):
        case = sample_case(seed)
        ticks, addrs, privs, writes, demand, final_tick = _workload(case)
        n = len(ticks)
        stream = L2Stream("stress", ticks, addrs, privs, writes, demand, n, n, final_tick,
                          CacheStats(), CacheStats())
        cache = SetAssociativeCache(case.geometry, "lru")
        dram = DRAMModel(DRAMConfig(row_bytes=256))
        result = run_fixed_design("stress", stream, DEFAULT_PLATFORM,
                                  [FixedSegment("shared", cache, sram())], lambda priv: cache,
                                  dram_model=dram, engine=engine)
        oracle_dram = DRAMModel(DRAMConfig(row_bytes=256))
        oracle_cache = SetAssociativeCache(case.geometry, "lru")
        stall = interleaved_dram(stream, lambda priv: oracle_cache, oracle_dram)
        assert result.extras["dram_stats"] == dataclasses.asdict(dram.stats)
        _assert_matches_oracle(result, stall, oracle_dram.stats)
        assert dram.stats.row_hits > 0 and dram.stats.busy_stalls > 0
