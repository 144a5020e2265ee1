"""Unit tests for the replacement policies."""

import pytest

from repro.cache.replacement import (
    POLICY_NAMES,
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    make_policy,
)


class TestFactory:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_make_every_policy(self, name):
        assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("belady")


class TestLRU:
    def test_evicts_least_recent(self):
        p = LRUPolicy()
        s = p.init_set(4)
        for w in range(4):
            p.on_fill(s, w)
        p.on_hit(s, 0)  # 0 becomes MRU; 1 is now LRU
        assert p.victim(s, 4) == 1

    def test_hit_refreshes_recency(self):
        p = LRUPolicy()
        s = p.init_set(2)
        p.on_fill(s, 0)
        p.on_fill(s, 1)
        p.on_hit(s, 0)
        assert p.victim(s, 2) == 1

    def test_hit_rank(self):
        p = LRUPolicy()
        s = p.init_set(4)
        for w in range(4):
            p.on_fill(s, w)
        assert p.hit_rank(s, 3, 4) == 0  # most recent
        assert p.hit_rank(s, 0, 4) == 3  # least recent


class TestFIFO:
    def test_evicts_oldest_fill_despite_hits(self):
        p = FIFOPolicy()
        s = p.init_set(3)
        for w in range(3):
            p.on_fill(s, w)
        p.on_hit(s, 0)  # hits must not matter
        assert p.victim(s, 3) == 0

    def test_refill_moves_to_back(self):
        p = FIFOPolicy()
        s = p.init_set(2)
        p.on_fill(s, 0)
        p.on_fill(s, 1)
        p.on_fill(s, 0)  # way 0 refilled, becomes newest
        assert p.victim(s, 2) == 1


class TestRandom:
    def test_victim_in_range(self):
        p = RandomPolicy(seed=1)
        s = p.init_set(8)
        for _ in range(100):
            assert 0 <= p.victim(s, 8) < 8

    def test_deterministic_for_seed(self):
        a = RandomPolicy(seed=5)
        b = RandomPolicy(seed=5)
        assert [a.victim(None, 4) for _ in range(20)] == [b.victim(None, 4) for _ in range(20)]

    def test_covers_all_ways(self):
        p = RandomPolicy(seed=2)
        seen = {p.victim(None, 4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestTreePLRU:
    def test_state_size(self):
        p = TreePLRUPolicy()
        assert len(p.init_set(8)) == 7

    def test_victim_in_range(self):
        p = TreePLRUPolicy()
        s = p.init_set(8)
        assert 0 <= p.victim(s, 8) < 8

    def test_never_evicts_just_touched(self):
        p = TreePLRUPolicy()
        s = p.init_set(8)
        for w in range(8):
            p.on_fill(s, w)
        for w in range(8):
            p.on_hit(s, w)
            assert p.victim(s, 8) != w

    def test_non_power_of_two_ways(self):
        p = TreePLRUPolicy()
        s = p.init_set(6)
        for w in range(6):
            p.on_fill(s, w)
        for _ in range(20):
            assert 0 <= p.victim(s, 6) < 6

    def test_single_way(self):
        p = TreePLRUPolicy()
        s = p.init_set(1)
        p.on_fill(s, 0)
        assert p.victim(s, 1) == 0


class TestSRRIP:
    def test_fills_start_near_distant(self):
        p = SRRIPPolicy()
        s = p.init_set(4)
        p.on_fill(s, 0)
        assert s[0] == p.max_rrpv - 1

    def test_hit_promotes(self):
        p = SRRIPPolicy()
        s = p.init_set(4)
        p.on_fill(s, 0)
        p.on_hit(s, 0)
        assert s[0] == 0

    def test_victim_is_max_rrpv(self):
        p = SRRIPPolicy()
        s = p.init_set(4)
        for w in range(4):
            p.on_fill(s, w)
        p.on_hit(s, 2)
        victim = p.victim(s, 4)
        assert victim != 2

    def test_aging_terminates(self):
        p = SRRIPPolicy()
        s = p.init_set(4)
        for w in range(4):
            p.on_fill(s, w)
            p.on_hit(s, w)
        assert 0 <= p.victim(s, 4) < 4  # requires aging rounds

    def test_scan_resistance_vs_lru(self):
        """SRRIP keeps a reused block alive through a one-shot scan."""
        from repro.cache.set_assoc import SetAssociativeCache
        from repro.config import CacheGeometry

        geometry = CacheGeometry(4 * 64, 4)  # one set, 4 ways
        hot = 0x0
        results = {}
        for policy in ("lru", "srrip"):
            c = SetAssociativeCache(geometry, policy)
            hits = 0
            scan = 1
            for round_i in range(200):
                r = c.access(hot, False, 0, round_i * 10)
                hits += r.hit
                for j in range(3):  # scanning traffic
                    scan += 1
                    c.access(scan * 64, False, 0, round_i * 10 + j + 1)
            results[policy] = hits
        assert results["srrip"] >= results["lru"]
