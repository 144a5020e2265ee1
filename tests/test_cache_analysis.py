"""Tests for the cache-pressure diagnostics."""

import numpy as np
import pytest

from repro.cache.analysis import set_pressure
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import CacheGeometry

GEOM = CacheGeometry(16 * 4 * 64, 4)  # 16 sets, 4 ways


class TestSetPressure:
    def test_uniform_stream_is_balanced(self):
        addrs = np.arange(16 * 10, dtype=np.uint64) * 64  # sequential: even spread
        p = set_pressure(addrs, GEOM)
        assert p.access_cov == pytest.approx(0.0)
        assert p.block_cov == pytest.approx(0.0)
        assert p.max_blocks_in_a_set == 10

    def test_single_set_hammering(self):
        # all addresses map to set 0 (stride = sets * block)
        addrs = np.arange(50, dtype=np.uint64) * (16 * 64)
        p = set_pressure(addrs, GEOM)
        assert p.accesses_per_set[0] == 50
        assert p.accesses_per_set[1:].sum() == 0
        assert p.access_cov > 3.0

    def test_conflict_prone_fraction(self):
        addrs = np.arange(50, dtype=np.uint64) * (16 * 64)  # 50 blocks in set 0
        p = set_pressure(addrs, GEOM)
        assert p.conflict_prone(4) == pytest.approx(1 / 16)

    def test_repeats_do_not_inflate_block_counts(self):
        addrs = np.array([0, 0, 0, 64, 64], dtype=np.uint64)
        p = set_pressure(addrs, GEOM)
        assert p.blocks_per_set[0] == 1
        assert p.blocks_per_set[1] == 1
        assert p.accesses_per_set[0] == 3

    def test_empty_stream(self):
        p = set_pressure(np.array([], dtype=np.uint64), GEOM)
        assert p.access_cov == 0.0
        assert p.max_blocks_in_a_set == 0


class TestOccupancyByWay:
    """Fills take one way per block until every set is full."""

    def test_empty_cache(self):
        c = SetAssociativeCache(GEOM)
        assert c.occupancy() == 0.0

    def test_fills_populate_ways(self):
        c = SetAssociativeCache(GEOM)
        for i in range(16):  # one block per set
            c.access(i * 64, False, 0, i)
        assert c.occupancy() == pytest.approx(1 / 4)  # one way's worth

    def test_full_cache(self):
        c = SetAssociativeCache(GEOM)
        for i in range(16 * 4):
            c.access(i * 64, False, 0, i)
        assert c.occupancy() == 1.0
