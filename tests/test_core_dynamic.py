"""Unit/integration tests for the dynamic partition design."""

import numpy as np
import pytest
from partition_oracles import per_access_epoch_replay

from repro.cache.hierarchy import L2Stream
from repro.cache.stats import CacheStats
from repro.config import DEFAULT_PLATFORM
from repro.core.dynamic_partition import DynamicControllerConfig, DynamicPartitionDesign
from repro.energy.technology import sram


def synthetic_stream(rows, name="synth", instructions=1_000_000, duration=None):
    """Build an L2Stream from (tick, addr, priv, write, demand) tuples."""
    ticks = np.array([r[0] for r in rows], dtype=np.int64)
    duration = duration if duration is not None else (int(ticks[-1]) + 1 if len(rows) else 0)
    return L2Stream(
        name=name,
        ticks=ticks,
        addrs=np.array([r[1] for r in rows], dtype=np.uint64),
        privs=np.array([r[2] for r in rows], dtype=np.uint8),
        writes=np.array([r[3] for r in rows], dtype=bool),
        demand=np.array([r[4] for r in rows], dtype=bool),
        instructions=instructions,
        trace_accesses=len(rows),
        duration_ticks=duration,
        l1i_stats=CacheStats(),
        l1d_stats=CacheStats(),
    )


class TestControllerConfig:
    def test_defaults_valid(self):
        cfg = DynamicControllerConfig()
        assert cfg.min_ways >= 1

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            DynamicControllerConfig(epoch_ticks=0)

    def test_rejects_start_above_max(self):
        with pytest.raises(ValueError):
            DynamicControllerConfig(start_user_ways=12, max_user_ways=10)

    def test_rejects_inverted_hysteresis(self):
        with pytest.raises(ValueError, match="hysteresis"):
            DynamicControllerConfig(grow_miss_rate=0.1, shrink_miss_rate=0.2)

    def test_rejects_zero_grow_step(self):
        with pytest.raises(ValueError, match="grow_step"):
            DynamicControllerConfig(grow_step=0)

    def test_rejects_a_decision_on_no_samples(self):
        # with no idle threshold, an empty epoch would reach the miss-rate
        # division (0 misses / 0 accesses) instead of being held or gated
        with pytest.raises(ValueError, match="decision_accesses"):
            DynamicControllerConfig(idle_accesses=0, decision_accesses=0)

    def test_rejects_negative_idle_threshold(self):
        with pytest.raises(ValueError, match="idle_accesses"):
            DynamicControllerConfig(idle_accesses=-1)


class TestIdleGating:
    def test_idle_epochs_gate_to_min(self):
        # activity at start, then a long silent gap spanning many epochs
        rows = [(i * 10, (i % 50) * 64, 0, False, True) for i in range(300)]
        rows.append((2_000_000, 0, 0, False, True))
        stream = synthetic_stream(rows)
        cfg = DynamicControllerConfig(epoch_ticks=25_000)
        r = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM)
        uw = r.extras["timeline_user_ways"]
        assert min(uw) == cfg.min_ways  # gated during the silent span

    def test_gating_reduces_byte_seconds(self):
        rows = [(i * 10, (i % 50) * 64, 0, False, True) for i in range(300)]
        rows.append((5_000_000, 0, 0, False, True))
        stream = synthetic_stream(rows)
        r = DynamicPartitionDesign().run(stream, DEFAULT_PLATFORM)
        user_seg = r.segment("user")
        full_time = r.timing.seconds(DEFAULT_PLATFORM)
        assert user_seg.byte_seconds < user_seg.size_bytes * full_time * 0.8

    def test_wake_restores_retained_blocks(self):
        # touch a working set, sleep far beyond several epochs, touch again
        ws = [(i, (i % 20) * 64, 0, False, True) for i in range(2000)]
        wake = [(1_000_000 + i, (i % 20) * 64, 0, False, True) for i in range(2000)]
        stream = synthetic_stream(ws + wake)
        cfg = DynamicControllerConfig(epoch_ticks=25_000)
        d = DynamicPartitionDesign(cfg)  # short retention 8 ms >> 1 M ticks
        r = d.run(stream, DEFAULT_PLATFORM)
        # second burst should hit: data retained through the gated idle
        assert r.l2_stats.hits > 3_000


class TestResizing:
    def test_timeline_recorded(self):
        rows = [(i * 5, (i % 100) * 64, i % 2, False, True) for i in range(5000)]
        stream = synthetic_stream(rows)
        r = DynamicPartitionDesign().run(stream, DEFAULT_PLATFORM)
        tl = r.extras
        assert len(tl["timeline_ticks"]) == len(tl["timeline_user_ways"])
        assert len(tl["timeline_ticks"]) == len(tl["timeline_kernel_ways"])

    def test_ways_respect_bounds(self):
        rows = [(i * 5, int(np.random.default_rng(i % 7).integers(0, 4000)) * 64,
                 i % 2, False, True) for i in range(8000)]
        stream = synthetic_stream(rows)
        cfg = DynamicControllerConfig()
        r = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM)
        assert all(cfg.min_ways <= w <= cfg.max_user_ways for w in r.extras["timeline_user_ways"])
        assert all(cfg.min_ways <= w <= cfg.max_kernel_ways for w in r.extras["timeline_kernel_ways"])

    def test_thrashing_segment_grows(self):
        # uniform traffic over a working set far beyond the start size
        rng = np.random.default_rng(3)
        rows = [(i * 3, int(rng.integers(0, 8000)) * 64, 0, False, True)
                for i in range(60_000)]
        stream = synthetic_stream(rows)
        cfg = DynamicControllerConfig(epoch_ticks=10_000, start_user_ways=2)
        r = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM)
        assert max(r.extras["timeline_user_ways"]) > 2


def _bursty_rows(n_bursts=6, burst_len=800, idle=120_000):
    """Bursts of mixed-privilege traffic separated by multi-epoch idles."""
    rng = np.random.default_rng(11)
    rows = []
    tick = 0
    for _ in range(n_bursts):
        for _ in range(burst_len):
            tick += int(rng.integers(1, 8))
            rows.append((tick, int(rng.integers(0, 3000)) * 64,
                         int(rng.integers(0, 2)), bool(rng.integers(0, 2)), True))
        tick += idle
    return rows


class TestControllerInvariants:
    """The resize timeline, resize counters and capacity integral must
    tell one consistent story, on both replay engines."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_timeline_ways_within_bounds(self, engine):
        stream = synthetic_stream(_bursty_rows())
        cfg = DynamicControllerConfig(epoch_ticks=10_000)
        r = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM, engine=engine)
        assert all(
            cfg.min_ways <= w <= cfg.max_user_ways
            for w in r.extras["timeline_user_ways"]
        )
        assert all(
            cfg.min_ways <= w <= cfg.max_kernel_ways
            for w in r.extras["timeline_kernel_ways"]
        )
        ticks = r.extras["timeline_ticks"]
        assert ticks == sorted(ticks) and ticks[0] == 0
        assert ticks[-1] < stream.duration_ticks

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_resizes_match_timeline_transitions(self, engine):
        # idle_accesses=0 disables idle gating, so wake-on-first-access
        # never fires and every resize is a timeline transition
        stream = synthetic_stream(_bursty_rows())
        cfg = DynamicControllerConfig(epoch_ticks=10_000, idle_accesses=0)
        r = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM, engine=engine)
        for seg, key in (("user", "timeline_user_ways"), ("kernel", "timeline_kernel_ways")):
            tl = r.extras[key]
            transitions = sum(1 for a, b in zip(tl, tl[1:]) if a != b)
            assert r.extras[f"{seg}_resizes"] == transitions

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_byte_ticks_match_timeline_integral(self, engine):
        # with wake disabled the powered size is piecewise constant
        # between boundaries, so the byte-tick integral is exactly the
        # timeline integral times the bytes per way
        stream = synthetic_stream(_bursty_rows())
        cfg = DynamicControllerConfig(epoch_ticks=10_000, idle_accesses=0)
        r = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM, engine=engine)
        l2 = DEFAULT_PLATFORM.l2
        bytes_per_way = l2.num_sets * l2.block_size
        edges = r.extras["timeline_ticks"] + [stream.duration_ticks]
        for seg, key in (("user", "timeline_user_ways"), ("kernel", "timeline_kernel_ways")):
            tl = r.extras[key]
            integral = sum(
                (edges[i + 1] - edges[i]) * tl[i] for i in range(len(tl))
            ) * bytes_per_way
            assert r.extras[f"{seg}_byte_ticks"] == integral

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_byte_ticks_bounded_with_gating(self, engine):
        # with idle gating and wakes the timeline alone cannot pin the
        # integral, but it stays inside the provisioned envelope
        stream = synthetic_stream(_bursty_rows())
        cfg = DynamicControllerConfig(epoch_ticks=10_000)
        r = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM, engine=engine)
        l2 = DEFAULT_PLATFORM.l2
        bytes_per_way = l2.num_sets * l2.block_size
        span = stream.duration_ticks
        for seg, cap in (("user", cfg.max_user_ways), ("kernel", cfg.max_kernel_ways)):
            bt = r.extras[f"{seg}_byte_ticks"]
            assert cfg.min_ways * bytes_per_way * span <= bt <= cap * bytes_per_way * span


class TestChunkDriver:
    """Both engines share one epoch-chunk driver, so comparing them
    cannot catch a fault in its boundaries or wakes; a per-access
    restatement of the schedule can."""

    @pytest.mark.parametrize("variant",
                             ["stt", "sram", "non-monotonic", "idle-zero", "long-idle"])
    def test_matches_per_access_oracle(self, variant, monkeypatch):
        rows = _bursty_rows(idle=450_000 if variant == "long-idle" else 120_000)
        if variant == "non-monotonic":
            # one access in 14 arrives two epochs late: its tick lies
            # below the running maximum, which alone decides the
            # boundary crossings
            rows = [(max(0, tick - 20_000 * (i % 14 == 7)), *rest)
                    for i, (tick, *rest) in enumerate(rows)]
        stream = synthetic_stream(rows)
        cfg = DynamicControllerConfig(epoch_ticks=10_000)
        if variant == "idle-zero":
            # never gates an idle segment: an epoch without rows holds
            # ``busy_ways``, and only decisions (growing from two ways)
            # resize
            cfg = DynamicControllerConfig(epoch_ticks=10_000, idle_accesses=0,
                                          start_user_ways=2, start_kernel_ways=2)
        techs = {"user_tech": sram(), "kernel_tech": sram()} if variant == "sram" else {}
        design = DynamicPartitionDesign(cfg, **techs)
        steps = []
        step = DynamicPartitionDesign._controller_step

        def counted_step(self, seg, tick):
            steps.append(tick)
            step(self, seg, tick)

        monkeypatch.setattr(DynamicPartitionDesign, "_controller_step", counted_step)
        result = design.run(stream, DEFAULT_PLATFORM, engine="reference")
        monkeypatch.undo()
        if variant == "long-idle":
            # tens of epochs without rows between the bursts: at rest at
            # ``min_ways``, the chunk loop records them without a step
            assert len(steps) < len(result.extras["timeline_ticks"])
        user, kernel, timeline = per_access_epoch_replay(design, stream, DEFAULT_PLATFORM)
        extras = result.extras
        assert list(zip(extras["timeline_ticks"], extras["timeline_user_ways"],
                        extras["timeline_kernel_ways"])) == timeline
        assert len(timeline) > 10
        for seg, report in zip((user, kernel), result.segments):
            assert report.stats == seg.cache.stats
            assert extras[f"{seg.name}_resizes"] == seg.resizes
            assert extras[f"{seg.name}_byte_ticks"] == seg.byte_ticks
        assert user.resizes and kernel.resizes
        # and the kernel, which replays chunks in the same driver
        fast, ref = design.run(stream, DEFAULT_PLATFORM, engine="fast").to_dict(), result.to_dict()
        assert fast["extras"].pop("sim_engine") == "fastsim"
        assert ref["extras"].pop("sim_engine") == "reference"
        assert fast == ref


class TestEnergyAccounting:
    def test_sram_variant_loses_data_on_gating(self):
        ws = [(i, (i % 20) * 64, 0, False, True) for i in range(2000)]
        wake = [(1_000_000 + i, (i % 20) * 64, 0, False, True) for i in range(2000)]
        stream = synthetic_stream(ws + wake)
        cfg = DynamicControllerConfig(epoch_ticks=25_000)
        stt = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM)
        sram_d = DynamicPartitionDesign(
            cfg, user_tech=sram(), kernel_tech=sram(), name="dynamic-sram"
        ).run(stream, DEFAULT_PLATFORM)
        assert sram_d.l2_stats.hits <= stt.l2_stats.hits

    def test_segments_report_max_provisioned_size(self):
        rows = [(i, (i % 10) * 64, 0, False, True) for i in range(1000)]
        stream = synthetic_stream(rows)
        cfg = DynamicControllerConfig()
        r = DynamicPartitionDesign(cfg).run(stream, DEFAULT_PLATFORM)
        assert r.segment("user").size_bytes == cfg.max_user_ways * 64 * 1024

    def test_result_structure(self, browser_stream_small):
        r = DynamicPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
        assert r.design == "dynamic-stt"
        r.l2_stats.check_invariants()
        assert r.l2_energy.total_j > 0
        assert r.extras["user_resizes"] >= 0

    def test_dynamic_leakage_below_static_on_idle_heavy_stream(self):
        from repro.core.multi_retention import multi_retention_design

        # bursts separated by long idle spans: gating should win clearly
        rows = []
        for burst in range(5):
            start = burst * 2_000_000
            rows += [(start + i, (i % 40) * 64, i % 2, False, True) for i in range(1000)]
        stream = synthetic_stream(rows)
        dyn = DynamicPartitionDesign().run(stream, DEFAULT_PLATFORM)
        static = multi_retention_design().run(stream, DEFAULT_PLATFORM)
        assert dyn.l2_energy.leakage_j < static.l2_energy.leakage_j
