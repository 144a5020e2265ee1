"""Unit tests for the drowsy-SRAM comparison design.

The design reads every line's awake time off a replay's eviction
events (:func:`repro.core.drowsy.awake_ticks`).  The cases here
check that post-pass against the per-line rule it replaces
(:func:`partition_oracles.per_access_awake`), on hand-traced streams and
on the retention-free differential cases, with events from both engines.
"""

import numpy as np
import pytest

from repro import obs
from repro.cache.fastsim import simulate_trace
from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.core.baseline import BaselineDesign
from repro.core.drowsy import DROWSY_LEAKAGE_SCALE, DrowsySRAMDesign, awake_ticks
from repro.core.pipeline import FixedSegment, ReplaySession
from repro.energy.technology import sram, stt_ram

from diffsim import STRESS_CASES_FROM, STRESS_SCENARIOS, _workload, sample_case
from partition_oracles import per_access_awake


def both_engines_awake(geometry, ticks, addrs, privs, writes, demand, finalize_tick, window):
    """The post-pass over the fast kernel's and the reference loop's
    events; asserts that the two engines record the same events and
    that the post-pass equals the per-access oracle."""
    n = len(ticks)
    stream = L2Stream("awake", ticks, addrs, privs, writes, demand, instructions=n,
                      trace_accesses=n, duration_ticks=finalize_tick,
                      l1i_stats=CacheStats(), l1d_stats=CacheStats())
    _, fast_events = simulate_trace(geometry, None, addrs, privs, writes, demand,
                                    record_events=True)
    cache = SetAssociativeCache(geometry, "lru")
    _, _, ref_events = ReplaySession("awake", stream, "reference").replay_fixed(
        [FixedSegment("shared", cache, sram())], lambda priv: cache
    )
    assert sorted(fast_events.miss_idx) == ref_events.miss_idx.tolist()
    assert sorted(zip(*(col.tolist() for col in _evictions(fast_events)))) == list(
        zip(*(col.tolist() for col in _evictions(ref_events)))
    )
    expected = per_access_awake(geometry, ticks, addrs, privs, writes, demand,
                                finalize_tick, window)
    for events in (fast_events, ref_events):
        assert awake_ticks(ticks, addrs, events, finalize_tick, window,
                           geometry.block_size) == expected
    return expected


def _evictions(events):
    return events.evict_idx, events.evict_addr, events.evict_priv, events.evict_dirty


class TestEngineAwakeAccounting:
    """Hand-traced reads by one privilege through a tiny cache."""

    def awake(self, rows, finalize_tick, window=100, geometry=CacheGeometry(4 * 64, 4)):
        n = len(rows)
        return both_engines_awake(
            geometry,
            np.array([tick for tick, _ in rows], dtype=np.int64),
            np.array([addr for _, addr in rows], dtype=np.uint64),
            np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
            finalize_tick, window,
        )

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="drowsy_window"):
            DrowsySRAMDesign(drowsy_window=0)

    def test_awake_time_capped_by_window(self):
        # 1000 ticks elapse before the hit, only 100 of them awake
        assert self.awake([(0, 0x0), (1000, 0x0)], finalize_tick=1000) == (100, 1)

    def test_frequent_touches_stay_awake(self):
        # fully awake span, no wake-up
        assert self.awake([(0, 0x0), (50, 0x0), (90, 0x0)], finalize_tick=90) == (90, 0)

    def test_finalize_accounts_tail(self):
        assert self.awake([(0, 0x0)], finalize_tick=1_000)[0] == 100

    def test_eviction_accounts_victim(self):
        # one frame: block 0x400 evicts 0x0 after 500 ticks
        rows = [(0, 0x0), (500, 0x40 * 16)]
        assert self.awake(rows, finalize_tick=500, geometry=CacheGeometry(64, 1))[0] == 100

    def test_no_accounting_without_window(self):
        # no rows, nothing awake (and the cache itself keeps no drowsy state)
        assert self.awake([], finalize_tick=1_000) == (0, 0)
        assert not hasattr(SetAssociativeCache(CacheGeometry(4 * 64, 4)), "awake_block_ticks")


#: One retention-free differential case per stress scenario.
AWAKE_SEEDS = range(STRESS_CASES_FROM, STRESS_CASES_FROM + len(STRESS_SCENARIOS))


@pytest.mark.parametrize("window", [8, 200])
@pytest.mark.parametrize("seed", AWAKE_SEEDS)
def test_post_pass_matches_per_access_rule(seed, window):
    """On every stress shape, with windows below and above typical reuse
    gaps, both engines' events give the oracle's awake time, and some
    gaps close awake while others end in a wake-up."""
    case = sample_case(seed)
    ticks, addrs, privs, writes, demand, final_tick = _workload(case)
    awake, wakeups = both_engines_awake(case.geometry, ticks, addrs, privs, writes, demand,
                                        final_tick, window)
    assert 0 < wakeups < len(ticks)
    assert awake > 0


def test_post_pass_matches_per_access_rule_on_non_monotonic_ticks():
    """Ticks that run backwards give negative gaps, which count as they
    did per access: a negative awake span and no wake-up."""
    case = sample_case(STRESS_CASES_FROM + STRESS_SCENARIOS.index("write-cross"))
    _, addrs, privs, writes, demand, final_tick = _workload(case)
    ticks = np.random.default_rng(3).integers(0, final_tick, size=len(addrs))
    assert (np.diff(ticks) < 0).any()
    both_engines_awake(case.geometry, ticks, addrs, privs, writes, demand, final_tick // 2, 50)


class TestDrowsyDesign:
    def test_auto_engine_takes_fast_kernel(self, browser_stream_small):
        before = obs.REGISTRY.counters.get("pipeline.dispatch.fastsim", 0)
        result = DrowsySRAMDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert result.extras["sim_engine"] == "fastsim"
        assert obs.REGISTRY.counters["pipeline.dispatch.fastsim"] == before + 1

    def test_rejects_finite_retention_tech(self):
        with pytest.raises(ValueError, match="SRAM technique"):
            DrowsySRAMDesign(tech=stt_ram("short"))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            DrowsySRAMDesign(drowsy_window=-5)

    def test_saves_energy_vs_baseline(self, browser_stream_small):
        base = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        drowsy = DrowsySRAMDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert drowsy.l2_energy.total_j < base.l2_energy.total_j

    def test_leakage_floor_is_drowsy_scale(self, browser_stream_small):
        base = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        drowsy = DrowsySRAMDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        # leakage can never drop below the drowsy-voltage floor
        assert drowsy.l2_energy.leakage_j >= base.l2_energy.leakage_j * DROWSY_LEAKAGE_SCALE * 0.9

    def test_same_miss_rate_as_baseline(self, browser_stream_small):
        base = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        drowsy = DrowsySRAMDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        # drowsy mode is state-preserving: hit/miss behaviour identical
        assert drowsy.l2_stats.demand_misses == base.l2_stats.demand_misses

    def test_wakeups_cost_performance(self, browser_stream_small):
        base = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        drowsy = DrowsySRAMDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert drowsy.timing.busy_cycles >= base.timing.busy_cycles
        assert drowsy.extras["drowsy_wakeups"] > 0

    def test_awake_fraction_in_unit_range(self, browser_stream_small):
        drowsy = DrowsySRAMDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert 0.0 <= drowsy.extras["awake_fraction"] <= 1.0

    def test_longer_window_more_awake_energy(self, browser_stream_small):
        short = DrowsySRAMDesign(drowsy_window=500).run(browser_stream_small, DEFAULT_PLATFORM)
        long = DrowsySRAMDesign(drowsy_window=200_000).run(browser_stream_small, DEFAULT_PLATFORM)
        assert long.l2_energy.leakage_j > short.l2_energy.leakage_j
