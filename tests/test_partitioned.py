"""Unit tests for the privilege-partitioned cache oracle, and the
static partition design checked against it."""

import pytest
from partition_oracles import PartitionedCache

from repro.cache.set_assoc import SetAssociativeCache
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.core.static_partition import StaticPartitionDesign
from repro.types import Privilege

U, K = int(Privilege.USER), int(Privilege.KERNEL)


def make_partitioned(user_ways=2, kernel_ways=2, sets=16):
    segs = {
        Privilege.USER: SetAssociativeCache(
            CacheGeometry(sets * user_ways * 64, user_ways), name="u"),
        Privilege.KERNEL: SetAssociativeCache(
            CacheGeometry(sets * kernel_ways * 64, kernel_ways), name="k"),
    }
    return PartitionedCache(segs)


class TestConstruction:
    def test_requires_both_privileges(self):
        seg = SetAssociativeCache(CacheGeometry(2048, 2))
        with pytest.raises(ValueError, match="missing segments"):
            PartitionedCache({Privilege.USER: seg})

    def test_requires_matching_sets(self):
        segs = {
            Privilege.USER: SetAssociativeCache(CacheGeometry(16 * 2 * 64, 2)),
            Privilege.KERNEL: SetAssociativeCache(CacheGeometry(8 * 2 * 64, 2)),
        }
        with pytest.raises(ValueError, match="share set count"):
            PartitionedCache(segs)

    def test_size_is_sum(self):
        pc = make_partitioned(user_ways=4, kernel_ways=2)
        assert pc.size_bytes == pc.user.size_bytes + pc.kernel.size_bytes

    def test_repr(self):
        assert "user" in repr(make_partitioned())


class TestIsolation:
    def test_routing_by_privilege(self):
        pc = make_partitioned()
        pc.access(0x0, False, U, 0)
        pc.access(0xC000_0000, False, K, 1)
        assert pc.user.stats.accesses == 1
        assert pc.kernel.stats.accesses == 1

    def test_kernel_cannot_evict_user(self):
        pc = make_partitioned(user_ways=1, kernel_ways=1, sets=1)
        pc.access(0x0, False, U, 0)
        for i in range(10):  # heavy kernel traffic
            pc.access(0x40 * (i + 1), False, K, i + 1)
        assert pc.access(0x0, False, U, 100).hit

    def test_no_cross_privilege_evictions_ever(self):
        import numpy as np

        rng = np.random.default_rng(1)
        pc = make_partitioned(sets=4)
        for i in range(2000):
            priv = int(rng.integers(0, 2))
            addr = int(rng.integers(0, 64)) * 64
            pc.access(addr, bool(rng.integers(0, 2)), priv, i)
        assert pc.stats.cross_privilege_evictions == 0

    def test_same_address_can_live_in_both_segments(self):
        # With privilege routing, address 0x0 accessed at both levels
        # occupies a frame in each segment independently.
        pc = make_partitioned()
        pc.access(0x0, False, U, 0)
        pc.access(0x0, False, K, 1)
        assert pc.access(0x0, False, U, 2).hit
        assert pc.access(0x0, False, K, 3).hit


class TestAggregation:
    def test_merged_stats(self):
        pc = make_partitioned()
        pc.access(0x0, False, U, 0)
        pc.access(0x0, False, U, 1)
        pc.access(0xC000_0000, False, K, 2)
        merged = pc.stats
        assert merged.accesses == 3
        assert merged.hits == 1
        merged.check_invariants()

    def test_segment_for(self):
        pc = make_partitioned()
        assert pc.segment_for(U) is pc.user
        assert pc.segment_for(K) is pc.kernel

    def test_finalize_propagates(self):
        segs = {
            Privilege.USER: SetAssociativeCache(
                CacheGeometry(16 * 2 * 64, 2), retention_ticks=10,
                refresh_mode="rewrite"),
            Privilege.KERNEL: SetAssociativeCache(CacheGeometry(16 * 2 * 64, 2)),
        }
        pc = PartitionedCache(segs)
        pc.access(0x0, False, U, 0)
        pc.finalize(1000)
        assert pc.user.stats.refresh_writes > 0


def test_static_design_matches_partition_oracle(browser_stream_small):
    """The static design's segments replay exactly like the oracle's."""
    design = StaticPartitionDesign(user_ways=4, kernel_ways=2)
    result = design.run(browser_stream_small, DEFAULT_PLATFORM)
    oracle = PartitionedCache({
        Privilege.USER: SetAssociativeCache(DEFAULT_PLATFORM.l2.with_ways(4)),
        Privilege.KERNEL: SetAssociativeCache(DEFAULT_PLATFORM.l2.with_ways(2)),
    })
    s = browser_stream_small
    for tick, addr, priv, write, demand in zip(
        s.ticks.tolist(), s.addrs.tolist(), s.privs.tolist(), s.writes.tolist(),
        s.demand.tolist(),
    ):
        oracle.access(addr, write, priv, tick, demand)
    for label, priv in (("user", Privilege.USER), ("kernel", Privilege.KERNEL)):
        got, want = result.segment(label).stats, oracle.segments[priv].stats
        assert (got.hits, got.misses, got.evictions, got.writebacks) == (
            want.hits, want.misses, want.evictions, want.writebacks)
