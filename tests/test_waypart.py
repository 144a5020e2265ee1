"""Tests for the way-mask partitioned cache oracle, incl. model equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from partition_oracles import PartitionedCache, WayMaskPartitionedCache

from repro.cache.set_assoc import SetAssociativeCache
from repro.config import CacheGeometry
from repro.types import Privilege

U, K = int(Privilege.USER), int(Privilege.KERNEL)

GEOM = CacheGeometry(8 * 4 * 64, 4)  # 8 sets, 4 ways


class TestConstruction:
    def test_regions_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            WayMaskPartitionedCache(GEOM, user_ways=0)
        with pytest.raises(ValueError, match="non-empty"):
            WayMaskPartitionedCache(GEOM, user_ways=4)

    def test_way_split(self):
        c = WayMaskPartitionedCache(GEOM, user_ways=3)
        assert c.user_ways == 3
        assert c.kernel_ways == 1

    def test_size(self):
        assert WayMaskPartitionedCache(GEOM, 2).size_bytes == GEOM.size_bytes


class TestBehaviour:
    def test_hit_after_fill(self):
        c = WayMaskPartitionedCache(GEOM, 2)
        assert not c.access(0x0, False, U, 0)
        assert c.access(0x0, False, U, 1)

    def test_privileges_isolated(self):
        c = WayMaskPartitionedCache(GEOM, 2)
        c.access(0x0, False, U, 0)
        # same address at kernel privilege looks in different ways: miss
        assert not c.access(0x0, False, K, 1)

    def test_kernel_traffic_cannot_evict_user(self):
        c = WayMaskPartitionedCache(CacheGeometry(1 * 4 * 64, 4), user_ways=2)
        c.access(0x0, False, U, 0)
        for i in range(20):
            c.access((i + 1) * 64, False, K, i + 1)
        assert c.access(0x0, False, U, 100)

    def test_no_cross_privilege_evictions(self):
        import numpy as np

        rng = np.random.default_rng(0)
        c = WayMaskPartitionedCache(GEOM, 2)
        for i in range(2000):
            c.access(int(rng.integers(0, 64)) * 64, bool(rng.integers(0, 2)),
                     int(rng.integers(0, 2)), i)
        assert c.stats.cross_privilege_evictions == 0
        c.stats.check_invariants()

    def test_occupancy_grows(self):
        c = WayMaskPartitionedCache(GEOM, 2)
        assert c.occupancy() == 0.0
        c.access(0x0, False, U, 0)
        assert c.occupancy() > 0.0


access_strategy = st.tuples(
    st.integers(min_value=0, max_value=63),
    st.booleans(),
    st.integers(min_value=0, max_value=1),
)


@given(st.lists(access_strategy, min_size=1, max_size=250))
@settings(max_examples=80, deadline=None)
def test_waymask_equivalent_to_two_segments(accs):
    """The way-mask model and the two-segment model agree hit-for-hit.

    A way-mask partition with u user ways of an s-set array behaves
    exactly like independent u-way and (a-u)-way segment caches with the
    same set count — the structural identity the library's design rests
    on.
    """
    user_ways = 3
    waymask = WayMaskPartitionedCache(GEOM, user_ways=user_ways)
    segments = PartitionedCache({
        Privilege.USER: SetAssociativeCache(GEOM.with_ways(user_ways), "lru"),
        Privilege.KERNEL: SetAssociativeCache(GEOM.with_ways(GEOM.associativity - user_ways), "lru"),
    })
    for i, (block, is_write, priv) in enumerate(accs):
        a = waymask.access(block * 64, is_write, priv, i)
        b = segments.access(block * 64, is_write, priv, i).hit
        assert a == b
    merged = segments.stats
    assert waymask.stats.hits == merged.hits
    assert waymask.stats.misses == merged.misses
    assert waymask.stats.writebacks == merged.writebacks
