"""Unit tests for the set-associative cache engine."""

import pytest

from repro.cache.set_assoc import REFRESH_MODES, SetAssociativeCache
from repro.config import CacheGeometry
from repro.types import Privilege

U, K = int(Privilege.USER), int(Privilege.KERNEL)


def one_set_cache(ways=4, **kw):
    """A single-set cache: every address maps to set 0."""
    return SetAssociativeCache(CacheGeometry(ways * 64, ways), "lru", **kw)


class TestConstruction:
    def test_refresh_modes_constant(self):
        assert REFRESH_MODES == ("none", "invalidate", "rewrite")

    def test_rejects_unknown_refresh_mode(self):
        with pytest.raises(ValueError, match="refresh_mode"):
            one_set_cache(refresh_mode="sometimes")

    def test_rejects_refresh_without_retention(self):
        with pytest.raises(ValueError, match="retention"):
            one_set_cache(refresh_mode="rewrite")

    def test_rejects_retention_without_refresh(self):
        with pytest.raises(ValueError, match="refresh_mode"):
            one_set_cache(retention_ticks=100)

    def test_rejects_non_positive_retention(self):
        with pytest.raises(ValueError, match="retention_ticks"):
            one_set_cache(retention_ticks=0, refresh_mode="invalidate")

    def test_repr_mentions_geometry(self):
        c = one_set_cache()
        assert "4-way" in repr(c) or "0 KB" in repr(c)


class TestHitsAndMisses:
    def test_first_access_misses(self):
        c = one_set_cache()
        assert not c.access(0x0, False, U, 0).hit

    def test_second_access_hits(self):
        c = one_set_cache()
        c.access(0x0, False, U, 0)
        assert c.access(0x0, False, U, 1).hit

    def test_same_block_different_offset_hits(self):
        c = one_set_cache()
        c.access(0x40, False, U, 0)
        assert c.access(0x7F, False, U, 1).hit

    def test_different_blocks_miss(self):
        c = one_set_cache()
        c.access(0x0, False, U, 0)
        assert not c.access(0x40 * 5, False, U, 1).hit

    def test_set_indexing(self):
        c = SetAssociativeCache(CacheGeometry(2 * 2 * 64, 2))  # 2 sets, 2 ways
        c.access(0x0, False, U, 0)    # set 0
        c.access(0x40, False, U, 1)   # set 1
        c.access(0x80, False, U, 2)   # set 0
        c.access(0xC0, False, U, 3)   # set 1
        assert c.stats.misses == 4
        # set 0 full with blocks 0x0 and 0x80; both still hit
        assert c.access(0x0, False, U, 4).hit
        assert c.access(0x80, False, U, 5).hit


class TestEvictionAndWriteback:
    def test_lru_eviction(self):
        c = one_set_cache(ways=2)
        c.access(0x0, False, U, 0)
        c.access(0x40 * 16, False, U, 1)
        c.access(0x40 * 32, False, U, 2)  # evicts 0x0
        assert not c.access(0x0, False, U, 3).hit

    def test_dirty_eviction_reports_writeback(self):
        c = one_set_cache(ways=1)
        c.access(0x0, True, U, 0)  # dirty fill
        r = c.access(0x40 * 16, False, U, 1)
        assert r.writeback
        assert r.victim_addr == 0x0
        assert r.victim_priv == U
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = one_set_cache(ways=1)
        c.access(0x0, False, U, 0)
        r = c.access(0x40 * 16, False, U, 1)
        assert not r.writeback
        # the victim is still identified (prefetch tracking retires on any
        # eviction), only the writeback flag distinguishes dirty victims
        assert r.victim_addr == 0x0

    def test_write_hit_marks_dirty(self):
        c = one_set_cache(ways=1)
        c.access(0x0, False, U, 0)
        c.access(0x0, True, U, 1)
        r = c.access(0x40 * 16, False, U, 2)
        assert r.writeback

    def test_victim_addr_reconstruction_multi_set(self):
        c = SetAssociativeCache(CacheGeometry(4 * 64, 1))  # 4 sets, direct-mapped
        addr = 0x40 * 2 + 0  # set 2
        c.access(addr, True, U, 0)
        r = c.access(addr + 4 * 64, False, U, 1)  # same set, different tag
        assert r.victim_addr == addr


class TestCrossPrivilegeAccounting:
    def test_cross_eviction_counted(self):
        c = one_set_cache(ways=1)
        c.access(0x0, False, U, 0)
        c.access(0x40 * 16, False, K, 1)  # kernel evicts user block
        assert c.stats.evictions_cross[U][K] == 1
        assert c.stats.cross_privilege_evictions == 1

    def test_same_privilege_eviction_on_diagonal(self):
        c = one_set_cache(ways=1)
        c.access(0x0, False, U, 0)
        c.access(0x40 * 16, False, U, 1)
        assert c.stats.evictions_cross[U][U] == 1
        assert c.stats.cross_privilege_evictions == 0

    def test_access_share(self):
        c = one_set_cache()
        c.access(0x0, False, U, 0)
        c.access(0x40 * 16, False, K, 1)
        assert c.stats.access_share_of(Privilege.KERNEL) == pytest.approx(0.5)


class TestDemandVsWriteback:
    def test_writeback_access_not_demand(self):
        c = one_set_cache()
        c.access(0x0, True, U, 0, demand=False)
        assert c.stats.demand_accesses == 0
        assert c.stats.misses == 1
        assert c.stats.demand_misses == 0

    def test_writeback_allocates(self):
        c = one_set_cache()
        c.access(0x0, True, U, 0, demand=False)
        assert c.access(0x0, False, U, 1).hit


class TestStatsInvariants:
    def test_invariants_after_random_traffic(self):
        import numpy as np

        rng = np.random.default_rng(0)
        c = SetAssociativeCache(CacheGeometry(4096, 4))
        for i in range(3000):
            addr = int(rng.integers(0, 512)) * 64
            c.access(addr, bool(rng.integers(0, 2)), int(rng.integers(0, 2)), i,
                     demand=bool(rng.integers(0, 2)))
        c.stats.check_invariants()
        assert c.stats.accesses == 3000

    def test_miss_rate_properties(self):
        c = one_set_cache()
        c.access(0x0, False, U, 0)
        c.access(0x0, False, U, 1)
        assert c.stats.miss_rate == pytest.approx(0.5)
        assert c.stats.hits / c.stats.accesses == pytest.approx(0.5)
        assert c.stats.miss_rate_of(Privilege.USER) == pytest.approx(0.5)
        assert c.stats.miss_rate_of(Privilege.KERNEL) == 0.0


class TestRetentionInvalidate:
    def test_block_expires_after_retention(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="invalidate")
        c.access(0x0, False, U, 0)
        r = c.access(0x0, False, U, 200)  # beyond retention
        assert not r.hit
        assert r.expired
        assert c.stats.expiry_invalidations == 1

    def test_block_survives_within_retention(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="invalidate")
        c.access(0x0, False, U, 0)
        assert c.access(0x0, False, U, 99).hit

    def test_write_restores_retention_clock(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="invalidate")
        c.access(0x0, False, U, 0)
        c.access(0x0, True, U, 90)   # store rewrites the cells
        assert c.access(0x0, False, U, 150).hit  # 150-90 < 100

    def test_read_does_not_restore_retention(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="invalidate")
        c.access(0x0, False, U, 0)
        c.access(0x0, False, U, 90)  # read hit: cells not rewritten
        assert not c.access(0x0, False, U, 150).hit  # 150-0 > 100

    def test_dirty_expiry_charges_writeback(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="invalidate")
        c.access(0x0, True, U, 0)
        c.access(0x0, False, U, 300)
        assert c.stats.expiry_writebacks == 1

    def test_expired_frame_preferred_over_victim(self):
        c = one_set_cache(ways=2, retention_ticks=100, refresh_mode="invalidate")
        c.access(0x0, False, U, 0)          # will expire
        c.access(0x40 * 16, False, U, 150)  # still alive at t=200
        c.access(0x40 * 32, False, U, 200)  # should reclaim expired 0x0 frame
        assert c.access(0x40 * 16, False, U, 201).hit  # live block survived
        assert c.stats.evictions == 0

    def test_finalize_drains_expired_dirty(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="invalidate")
        c.access(0x0, True, U, 0)
        c.finalize(1000)
        assert c.stats.expiry_writebacks == 1


class TestRetentionRewrite:
    def test_refresh_keeps_block_alive(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="rewrite")
        c.access(0x0, False, U, 0)
        assert c.access(0x0, False, U, 500).hit  # refresh prevented decay

    def test_refresh_writes_charged_lazily(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="rewrite")
        c.access(0x0, False, U, 0)
        c.access(0x0, False, U, 400)
        # period = 80; 400/80 = 5 refreshes
        assert c.stats.refresh_writes == 5

    def test_finalize_charges_outstanding_refreshes(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="rewrite")
        c.access(0x0, False, U, 0)
        c.finalize(800)
        assert c.stats.refresh_writes == 10

    def test_no_refresh_within_first_period(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="rewrite")
        c.access(0x0, False, U, 0)
        c.access(0x0, False, U, 50)
        assert c.stats.refresh_writes == 0

    def test_total_writes_includes_refresh(self):
        c = one_set_cache(retention_ticks=100, refresh_mode="rewrite")
        c.access(0x0, True, U, 0)
        c.access(0x0, False, U, 400)
        assert c.stats.total_writes == 1 + 1 + c.stats.refresh_writes  # fill + write hit? (fill was the write)


class TestPoweredWays:
    def test_gated_way_contents_hidden(self):
        c = one_set_cache(ways=4)
        for i in range(4):
            c.access(0x40 * 16 * i, False, U, i)  # fills ways 0..3
        c.set_powered_ways(1, 10)
        # at most one of the four blocks can still hit
        hits = sum(c.access(0x40 * 16 * i, False, U, 20 + i).hit for i in range(4))
        assert hits <= 1

    def test_regrow_restores_retained_blocks(self):
        c = one_set_cache(ways=4)
        c.access(0x0, False, U, 0)
        c.access(0x40 * 16, False, U, 1)
        c.set_powered_ways(1, 5)   # gate most ways (no accesses while gated)
        c.set_powered_ways(4, 9)   # wake
        hits = sum(c.access(a, False, U, 10).hit for a in (0x0, 0x40 * 16))
        assert hits == 2  # non-volatile: both survive the gate/ungate cycle

    def test_gating_flushes_dirty(self):
        c = one_set_cache(ways=4)
        c.access(0x0, True, U, 0)  # dirty in way 0... LRU fills way order 0
        c.access(0x40 * 16, True, U, 1)
        flushes = c.set_powered_ways(1, 5)
        assert flushes >= 1
        assert c.stats.writebacks >= 1

    def test_volatile_gating_loses_contents(self):
        c = one_set_cache(ways=4, retains_when_gated=False)
        for i in range(4):
            c.access(0x40 * 16 * i, False, U, i)
        c.set_powered_ways(1, 5)
        c.set_powered_ways(4, 6)
        hits = sum(c.access(0x40 * 16 * i, False, U, 10 + i).hit for i in range(4))
        assert hits <= 1  # only the never-gated way can hit

    def test_gated_miss_counted(self):
        c = one_set_cache(ways=4)
        for i in range(4):
            c.access(0x40 * 16 * i, False, U, i)
        c.set_powered_ways(1, 5)
        for i in range(4):
            c.access(0x40 * 16 * i, False, U, 10 + i)
        assert c.gated_misses >= 2

    def test_powered_bytes(self):
        c = one_set_cache(ways=4)
        c.set_powered_ways(2, 0)
        assert c.powered_bytes == 2 * 64
        assert c.size_bytes == 4 * 64

    def test_rejects_out_of_range(self):
        c = one_set_cache(ways=4)
        with pytest.raises(ValueError):
            c.set_powered_ways(0, 0)
        with pytest.raises(ValueError):
            c.set_powered_ways(5, 0)

    def test_fill_goes_to_powered_region(self):
        c = one_set_cache(ways=4)
        c.set_powered_ways(2, 0)
        for i in range(8):
            c.access(0x40 * 16 * i, False, U, i)
        # working set of 2 most recent fits the 2 powered ways
        assert c.access(0x40 * 16 * 7, False, U, 100).hit


class TestGatedWayAccounting:
    """Exact counter accounting of `set_powered_ways` and gated misses."""

    def test_gate_flush_accounting_retained(self):
        c = one_set_cache(ways=4)  # retains_when_gated=True
        c.access(0x000, True, U, 0)   # dirty, way 0 (stays powered)
        c.access(0x400, True, K, 1)   # dirty, way 1 (gated below)
        c.access(0x800, False, U, 2)  # clean, way 2
        c.access(0xC00, False, U, 3)  # clean, way 3
        flushes = c.set_powered_ways(1, 10)
        assert flushes == 1  # only the dirty block in a gated way
        assert c.stats.gate_flushes == 1
        assert c.stats.writebacks == 1
        # the flush cleared the dirty bit: re-gating costs nothing
        c.set_powered_ways(4, 11)
        assert c.set_powered_ways(1, 12) == 0
        assert c.stats.gate_flushes == 1
        assert c.stats.writebacks == 1

    def test_gating_clean_blocks_costs_nothing(self):
        c = one_set_cache(ways=4)
        for i in range(4):
            c.access(0x400 * i, False, U, i)
        assert c.set_powered_ways(1, 10) == 0
        assert c.stats.gate_flushes == 0
        assert c.stats.writebacks == 0

    def test_volatile_gating_flushes_and_invalidates(self):
        c = one_set_cache(ways=4, retains_when_gated=False)
        c.access(0x000, False, U, 0)
        c.access(0x400, True, U, 1)
        c.access(0x800, True, U, 2)
        c.access(0xC00, False, U, 3)
        flushes = c.set_powered_ways(1, 10)
        assert flushes == 2  # both dirty blocks in the gated ways
        assert c.stats.gate_flushes == 2
        assert c.stats.writebacks == 2
        # volatile cells: the gated blocks are gone, not just hidden
        assert c.occupancy() == pytest.approx(0.25)
        c.set_powered_ways(4, 11)
        hits = sum(c.access(0x400 * i, False, U, 20 + i).hit for i in range(4))
        assert hits == 1  # only the never-gated way 0 survived

    def test_gated_miss_cleans_mapping_without_duplicates(self):
        c = one_set_cache(ways=4)  # retained: mappings stay after gating
        for i in range(4):
            c.access(0x400 * i, False, U, i)
        c.set_powered_ways(2, 5)
        before = c.gated_misses
        r = c.access(0x800, False, U, 10)  # resident in gated way 2
        assert not r.hit
        assert c.gated_misses == before + 1
        # the refill landed in the powered region; waking the gated way
        # must not resurrect a second copy of the same tag
        c.set_powered_ways(4, 11)
        assert c.access(0x800, False, U, 12).hit
        assert c.stats.accesses == c.stats.hits + c.stats.misses
        c.stats.check_invariants()

    def test_no_gated_miss_when_volatile(self):
        # With retains_when_gated=False the mapping dies at gating time,
        # so a later access is an ordinary miss, not a gated miss.
        c = one_set_cache(ways=4, retains_when_gated=False)
        for i in range(4):
            c.access(0x400 * i, False, U, i)
        c.set_powered_ways(1, 5)
        assert not c.access(0x800, False, U, 10).hit
        assert c.gated_misses == 0

    def test_expired_dirty_gating_charges_expiry_not_flush(self):
        c = one_set_cache(ways=4, retention_ticks=10, refresh_mode="invalidate")
        c.access(0x000, True, U, 0)  # way 0: stays powered
        c.access(0x400, True, U, 1)  # way 1: gated below, expired by then
        flushes = c.set_powered_ways(1, 100)
        # the gated dirty block decayed first: its drain is an expiry
        # write-back (retention accounting), not a gate flush
        assert flushes == 0
        assert c.stats.gate_flushes == 0
        assert c.stats.expiry_writebacks == 1
        assert c.stats.writebacks == 0


class TestEpochCounters:
    def test_begin_epoch_resets(self):
        c = one_set_cache()
        c.access(0x0, False, U, 0)
        c.begin_epoch()
        assert c.epoch_accesses == 0
        assert c.epoch_misses == 0

    def test_rank_hits_recorded_for_lru(self):
        c = one_set_cache(ways=2)
        c.access(0x0, False, U, 0)
        c.access(0x0, False, U, 1)  # MRU hit, rank 0
        assert c.epoch_rank_hits[0] == 1

    def test_occupancy(self):
        c = one_set_cache(ways=4)
        assert c.occupancy() == 0.0
        c.access(0x0, False, U, 0)
        assert c.occupancy() == pytest.approx(0.25)

    def test_contains(self):
        c = one_set_cache()
        c.access(0x0, False, U, 0)
        assert c.contains(0x3F)
        assert not c.contains(0x40 * 16)
