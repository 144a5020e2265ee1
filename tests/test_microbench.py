"""Tests for the synthetic microbenchmarks."""

import numpy as np
import pytest

from microbench import MICROBENCH_NAMES, microbench_profile
from repro.cache.hierarchy import l1_filter
from repro.config import DEFAULT_PLATFORM
from repro.core import BaselineDesign, DynamicPartitionDesign
from repro.trace.generator import generate_trace


class TestProfiles:
    def test_all_names_build(self):
        for name in MICROBENCH_NAMES:
            profile = microbench_profile(name)
            assert profile.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown microbenchmark"):
            microbench_profile("matrix_multiply")

    def test_traces_generate(self):
        for name in MICROBENCH_NAMES:
            t = generate_trace(microbench_profile(name), 5_000, seed=0)
            assert len(t) == 5_000


class TestCharacteristics:
    def _stream(self, name, n=40_000):
        t = generate_trace(microbench_profile(name), n, seed=0)
        return l1_filter(t, DEFAULT_PLATFORM)

    def test_stream_misses_everywhere(self):
        s = self._stream("stream")
        r = BaselineDesign().run(s, DEFAULT_PLATFORM)
        assert r.l2_stats.demand_miss_rate > 0.9

    def test_code_loop_is_absorbed_by_l1(self):
        s = self._stream("code_loop")
        # the loop's signature: the L1I captures nearly everything
        assert len(s.ticks) / s.trace_accesses < 0.15

    def test_pointer_chase_misses_l1_but_fits_l2(self):
        s = self._stream("pointer_chase")
        trace_level_filter_rate = len(s.ticks) / s.trace_accesses
        assert trace_level_filter_rate > 0.4  # most accesses escape the L1s

    def test_syscall_storm_is_kernel_heavy(self):
        s = self._stream("syscall_storm")
        assert s.kernel_share() > 0.6

    def test_idle_burst_has_long_gaps(self):
        t = generate_trace(microbench_profile("idle_burst"), 20_000, seed=0)
        gaps = np.diff(t.ticks.astype(np.int64))
        assert gaps.max() > 100_000

    def test_dynamic_design_gates_on_idle_burst(self):
        s = self._stream("idle_burst")
        r = DynamicPartitionDesign().run(s, DEFAULT_PLATFORM)
        ways = r.extras["timeline_user_ways"]
        assert min(ways) == 1  # gated during the idle spans

    def test_dynamic_design_shrinks_on_pure_stream(self):
        """Streaming earns no hits; the controller should not grow."""
        s = self._stream("stream")
        r = DynamicPartitionDesign().run(s, DEFAULT_PLATFORM)
        assert max(r.extras["timeline_user_ways"]) <= 8  # never grows past start
