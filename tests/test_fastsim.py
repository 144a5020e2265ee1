"""Differential verification of the vectorized fast-path kernel.

The fast kernel (:mod:`repro.cache.fastsim`) promises *bit-identical*
``CacheStats`` against the per-access reference engine inside its
envelope.  This file is that promise, tested three ways:

1. the randomized differential harness (``tests/diffsim.py``)
   sweeps trace x geometry x retention configurations;
2. the production entry points (``l1_filter`` and the fixed L2 designs)
   are replayed through both engines and compared field by field;
3. the dispatch layer is pinned down: what qualifies, what falls back,
   what ``engine="fast"`` rejects, and the ``REPRO_FASTSIM`` kill switch;
4. the dynamic partition design's epoch-chunked kernel is swept over
   randomized controller x technology x burst-shape configurations and
   compared on the *whole* ``DesignResult`` (timelines and resize
   counts included), plus its own dispatch rules and its gating scan,
   and on every suite app at the benchmark's trace length;
5. retention the stream cannot outlast replays retention-free, and the
   ``fastsim.retention.*`` counters say when it did;
6. the retention-free replay's two rules — a row's hit from the
   distinct blocks its set sees since the block's previous row, and the
   victims paired with evicting misses — with the rows a scan counts;
   the epoch replay's clean sets, resolved in NumPy up to their first
   event.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.cache import fastsim
from repro.cache.hierarchy import L2Stream, l1_filter
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import DEFAULT_PLATFORM, CacheGeometry
from repro.core.baseline import BaselineDesign
from repro.core.designs import DESIGN_NAMES, make_design
from repro.core.multi_retention import multi_retention_design
from repro.core.static_partition import StaticPartitionDesign
from repro.trace.access import Trace
from repro.types import TRACE_DTYPE, AccessKind, Privilege

from conftest import make_trace, sequential_accesses
from diffsim import (
    CLEAN_DYNAMIC_CASES_FROM,
    CLEAN_SCENARIOS,
    ELISION_CASES_FROM,
    FOOTPRINT_CASES_FROM,
    RUN_DYNAMIC_CASES_FROM,
    STRESS_CASES_FROM,
    STRESS_SCENARIOS,
    _workload,
    assert_case_equal,
    assert_dynamic_case_equal,
    run_case,
    run_dynamic_case,
    sample_case,
    sample_dynamic_case,
)

# >= 20 randomized configurations covering both refresh modes (even seeds
# replay retention "none", odd seeds "invalidate") across the full
# geometry grid in diffsim.sample_case; seeds from RUN_CASES_FROM on add
# same-block runs with writes inside them (the kernel's repeat collapse);
# seeds from ELISION_CASES_FROM on set the window around the stream's
# tick span (the kernel's retention-free replay of such windows); seeds
# from FOOTPRINT_CASES_FROM on give each set a footprint around the
# associativity (rows settled with and without the scan); seeds from
# STRESS_CASES_FROM on cycle through the scenarios that stress the
# retention-free replay's two rules, two seeds each.
ELISION_SEEDS = range(ELISION_CASES_FROM, FOOTPRINT_CASES_FROM)
FOOTPRINT_SEEDS = range(FOOTPRINT_CASES_FROM, STRESS_CASES_FROM)
STRESS_SEEDS = range(STRESS_CASES_FROM, STRESS_CASES_FROM + 2 * len(STRESS_SCENARIOS))
DIFF_SEEDS = range(STRESS_SEEDS.stop)
# The dynamic-design sampler has no run cases; seeds from
# CLEAN_DYNAMIC_CASES_FROM on keep most sets clean, two per scenario
# (those from RUN_DYNAMIC_CASES_FROM on end the epoch replay's runs).
DYNAMIC_SEEDS = range(CLEAN_DYNAMIC_CASES_FROM + 2 * len(CLEAN_SCENARIOS))
RUN_SEEDS = range(RUN_DYNAMIC_CASES_FROM, DYNAMIC_SEEDS.stop)


# ----------------------------------------------------------------------
# 1. randomized differential harness


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_kernel_matches_reference(seed):
    assert_case_equal(sample_case(seed))


def _reference_writebacks(case, addrs, privs, writes):
    cache = SetAssociativeCache(case.geometry, "lru")
    for tick, (addr, isw, priv) in enumerate(
        zip(addrs.tolist(), writes.tolist(), privs.tolist())
    ):
        cache.access(addr, isw, priv, tick)
    return cache.stats.writebacks


def test_run_cases_make_repeat_writes_decide_writebacks():
    """The run cases must exercise the collapse's dirty-OR step: in some
    retention-free case, stores that land on a run's *repeat* rows (not
    its first row) change how many dirty victims the reference engine
    writes back, so a kernel that dropped repeats without OR-ing their
    write flags would diverge in ``test_kernel_matches_reference``."""
    decisive = []
    for seed in DIFF_SEEDS:
        case = sample_case(seed)
        if case.run_mean == 1.0 or case.refresh_mode != "none":
            continue
        _, addrs, privs, writes, _, _ = _workload(case)
        blocks = addrs // np.uint64(case.block_size)
        repeat = np.zeros(len(blocks), dtype=bool)
        repeat[1:] = blocks[1:] == blocks[:-1]
        first_rows_only = writes & ~repeat
        if _reference_writebacks(case, addrs, privs, writes) != _reference_writebacks(
            case, addrs, privs, first_rows_only
        ):
            decisive.append(seed)
    assert decisive


def test_kernel_matches_reference_without_demand_column():
    """A replay without a demand column (the bench-shaped call) is exact too."""
    case = sample_case(3)
    geometry = case.geometry
    rng = np.random.default_rng(99)
    n = 2000
    addrs = (rng.integers(0, 64, size=n) * geometry.block_size).astype(np.uint64)
    privs = rng.integers(0, 2, size=n).astype(np.uint8)
    writes = rng.integers(0, 2, size=n) == 1
    ticks = np.arange(n, dtype=np.int64)

    cache = SetAssociativeCache(geometry, "lru")
    for tick, (addr, isw, priv) in enumerate(
        zip(addrs.tolist(), writes.tolist(), privs.tolist())
    ):
        cache.access(addr, isw, priv, tick)

    stats, events = fastsim.simulate_trace(geometry, ticks, addrs, privs, writes)
    assert events is None
    assert stats == cache.stats


def test_kernel_empty_trace():
    geometry = CacheGeometry(4096, 4)
    empty = np.zeros(0, dtype=np.int64)
    stats, events = fastsim.simulate_trace(
        geometry, empty, empty.astype(np.uint64), empty, empty.astype(bool)
    )
    assert stats.accesses == 0 and stats.misses == 0
    assert events is None


def test_kernel_rejects_unsupported_refresh_mode():
    geometry = CacheGeometry(4096, 4)
    empty = np.zeros(0, dtype=np.uint64)
    with pytest.raises(ValueError, match="refresh modes"):
        fastsim.simulate_trace(geometry, empty, empty, empty, empty,
                               refresh_mode="rewrite")
    with pytest.raises(ValueError, match="retention_ticks"):
        fastsim.simulate_trace(geometry, empty, empty, empty, empty,
                               refresh_mode="invalidate")


@pytest.mark.parametrize("window, route", [(40, "expiring"), (10_000, "elided")],
                         ids=["expiring", "elided"])
def test_kernel_miss_events_under_retention(window, route):
    """With ``invalidate`` retention, the expiring replay (a window the
    stream outlasts) and the elided one record the reference engine's
    misses and evictions; decayed blocks that drain are not victims."""
    geometry = CacheGeometry(4096, 4)
    rng = np.random.default_rng(5)
    n = 2000
    ticks = np.arange(n, dtype=np.int64)
    addrs = (rng.integers(0, 192, size=n) * geometry.block_size).astype(np.uint64)
    privs = rng.integers(0, 2, size=n).astype(np.uint8)
    writes = rng.random(n) < 0.4
    demand = rng.random(n) < 0.8
    cache = SetAssociativeCache(geometry, "lru", retention_ticks=window,
                                refresh_mode="invalidate")
    misses, evictions = [], []
    for i, (addr, priv, isw, dm) in enumerate(zip(
        addrs.tolist(), privs.tolist(), writes.tolist(), demand.tolist()
    )):
        result = cache.access(addr, isw, priv, i, dm)
        if not result.hit:
            misses.append(i)
        if result.victim_addr is not None:
            evictions.append((i, result.victim_addr, result.victim_priv, result.writeback))
    before = obs.REGISTRY.counters.get(f"fastsim.retention.{route}", 0)
    _, events = fastsim.simulate_trace(
        geometry, ticks, addrs, privs, writes, demand, retention_ticks=window,
        refresh_mode="invalidate", finalize_tick=n, record_events=True,
    )
    assert obs.REGISTRY.counters[f"fastsim.retention.{route}"] == before + 1
    assert sorted(events.miss_idx.tolist()) == misses
    assert sorted(zip(events.evict_idx.tolist(), events.evict_addr.tolist(),
                      events.evict_priv.tolist(), events.evict_dirty.tolist())) == evictions
    assert evictions and any(dirty for *_, dirty in evictions)
    assert (cache.stats.expiry_invalidations > 0) == (route == "expiring")


# ----------------------------------------------------------------------
# 2. production entry points


def _assert_streams_identical(ref, fast):
    for col in ("ticks", "addrs", "privs", "writes", "demand"):
        a, b = getattr(ref, col), getattr(fast, col)
        assert a.dtype == b.dtype, col
        assert np.array_equal(a, b), col
    assert ref.l1i_stats == fast.l1i_stats
    assert ref.l1d_stats == fast.l1d_stats
    assert ref.instructions == fast.instructions
    assert ref.trace_accesses == fast.trace_accesses
    assert ref.duration_ticks == fast.duration_ticks


def test_fast_l1_filter_matches_reference(browser_trace_small):
    # the generator's contiguous columns go straight into the fast filter
    for col in ("ticks", "addrs", "kinds", "privs"):
        assert getattr(browser_trace_small, col).flags.c_contiguous, col
    ref = l1_filter(browser_trace_small, DEFAULT_PLATFORM, engine="reference")
    fast = l1_filter(browser_trace_small, DEFAULT_PLATFORM, engine="fast")
    _assert_streams_identical(ref, fast)


def test_fast_l1_filter_tiny_traces(tiny_platform):
    # Dirty write-backs: stores that alias in a 2-way L1D set.
    entries = sequential_accesses(6, kind=AccessKind.STORE)
    entries += [(10 + i, i * 64, AccessKind.LOAD, Privilege.KERNEL) for i in range(6)]
    entries += [(20 + i, 4096 + i * 64, AccessKind.IFETCH, Privilege.USER) for i in range(4)]
    entries.sort(key=lambda e: e[0])
    trace = make_trace(entries)
    ref = l1_filter(trace, tiny_platform, engine="reference")
    fast = l1_filter(trace, tiny_platform, engine="fast")
    _assert_streams_identical(ref, fast)


@pytest.mark.parametrize(
    "kind_weights, expect_writebacks",
    [
        ((1.0, 0.0, 0.0), False),  # fetches only: no L1D rows at all
        ((0.0, 1.0, 0.0), False),  # loads only: no L1I rows, nothing dirty
        ((0.5, 0.5, 0.0), False),  # both L1s, still no write-backs
        ((0.0, 0.0, 1.0), True),  # stores only: no L1I rows
        ((0.4, 0.35, 0.25), True),
    ],
    ids=["ifetch", "load", "ifetch+load", "store", "mixed"],
)
@pytest.mark.parametrize("seed", range(3))
def test_fast_l1_filter_split_and_merge(tiny_platform, kind_weights, expect_writebacks, seed):
    # Random traces over a footprint that thrashes the tiny L1s, with
    # several misses per tick, so the partition by kind and the merge of
    # write-backs right after their misses are both exercised.
    rng = np.random.default_rng(seed)
    n = 600
    records = np.zeros(n, dtype=TRACE_DTYPE)
    records["tick"] = np.sort(rng.integers(0, n // 3, size=n))
    records["addr"] = rng.integers(0, 96, size=n).astype(np.uint64) * np.uint64(64)
    records["kind"] = rng.choice(3, size=n, p=kind_weights)
    records["priv"] = rng.integers(0, 2, size=n)
    trace = Trace.from_records("split-merge", records, n)
    ref = l1_filter(trace, tiny_platform, engine="reference")
    fast = l1_filter(trace, tiny_platform, engine="fast")
    _assert_streams_identical(ref, fast)
    assert bool(fast.writes.any()) == expect_writebacks


def test_fast_l1_filter_empty_trace(tiny_platform):
    trace = Trace.from_records("empty", np.zeros(0, dtype=TRACE_DTYPE), 0)
    ref = l1_filter(trace, tiny_platform, engine="reference")
    fast = l1_filter(trace, tiny_platform, engine="fast")
    _assert_streams_identical(ref, fast)


@pytest.mark.parametrize(
    "design_factory",
    [BaselineDesign, StaticPartitionDesign, multi_retention_design],
    ids=["baseline", "static", "static-stt"],
)
def test_fixed_designs_match_reference(design_factory, browser_stream_small):
    design = design_factory()
    ref = design.run(browser_stream_small, DEFAULT_PLATFORM, engine="reference")
    fast = design.run(browser_stream_small, DEFAULT_PLATFORM, engine="fast")
    ref_d, fast_d = ref.to_dict(), fast.to_dict()
    assert ref_d["extras"].pop("sim_engine") == "reference"
    assert fast_d["extras"].pop("sim_engine") == "fastsim"
    assert ref_d == fast_d


@pytest.mark.parametrize("design_name", [*DESIGN_NAMES, "drowsy-sram"])
@pytest.mark.parametrize("keep", ["user-only", "kernel-only", "empty"])
def test_designs_match_reference_on_one_sided_streams(design_name, keep, browser_stream_small):
    """A stream with no rows of a privilege hands that segment an empty
    index split; both engines must agree on the whole result anyway."""
    stream = browser_stream_small
    user_rows, kernel_rows = stream.privilege_rows()
    rows = {"user-only": user_rows, "kernel-only": kernel_rows,
            "empty": np.array([], dtype=np.int64)}[keep]
    one_sided = L2Stream.from_columns({k: c[rows] for k, c in stream.columns().items()},
                                      stream.context())
    ref, fast = (make_design(design_name).run(one_sided, DEFAULT_PLATFORM, engine=engine)
                 for engine in ("reference", "fast"))
    ref_d, fast_d = ref.to_dict(), fast.to_dict()
    assert ref_d["extras"].pop("sim_engine") == "reference"
    assert fast_d["extras"].pop("sim_engine") == "fastsim"
    assert ref_d == fast_d
    assert fast.l2_stats.accesses == len(rows)


def test_privilege_rows_split_the_stream(browser_stream_small):
    stream = browser_stream_small
    user_rows, kernel_rows = stream.privilege_rows()
    kernel = stream.privs == np.uint8(Privilege.KERNEL)
    np.testing.assert_array_equal(stream.addrs[user_rows], stream.addrs[~kernel])
    np.testing.assert_array_equal(stream.addrs[kernel_rows], stream.addrs[kernel])
    assert len(user_rows) + len(kernel_rows) == len(stream)


# ----------------------------------------------------------------------
# 3. dispatch layer


def test_auto_engine_uses_fast_kernel(browser_stream_small):
    result = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "fastsim"


def test_auto_falls_back_for_prefetcher(browser_stream_small):
    result = BaselineDesign(prefetch="nextline").run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "reference"


def test_auto_engine_uses_fast_kernel_with_dram_model(browser_stream_small):
    from repro.dram import DRAMConfig

    before = obs.REGISTRY.counters.get("pipeline.dispatch.fastsim", 0)
    result = BaselineDesign(dram=DRAMConfig()).run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "fastsim"
    assert obs.REGISTRY.counters["pipeline.dispatch.fastsim"] == before + 1


def test_auto_falls_back_for_non_lru_policy(browser_stream_small):
    result = BaselineDesign(policy="plru").run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "reference"


def test_fast_engine_raises_when_disqualified(browser_stream_small):
    with pytest.raises(ValueError, match="fast"):
        BaselineDesign(prefetch="nextline").run(
            browser_stream_small, DEFAULT_PLATFORM, engine="fast"
        )
    with pytest.raises(ValueError, match="fast"):
        BaselineDesign(policy="plru").run(
            browser_stream_small, DEFAULT_PLATFORM, engine="fast"
        )


def test_bad_engine_name_rejected(browser_trace_small, browser_stream_small):
    with pytest.raises(ValueError, match="engine"):
        l1_filter(browser_trace_small, DEFAULT_PLATFORM, engine="turbo")
    with pytest.raises(ValueError, match="engine"):
        BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM, engine="turbo")


def test_env_kill_switch(browser_stream_small, monkeypatch):
    monkeypatch.setenv("REPRO_FASTSIM", "0")
    assert not fastsim.enabled()
    result = BaselineDesign().run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "reference"
    monkeypatch.setenv("REPRO_FASTSIM", "1")
    assert fastsim.enabled()


def test_supports_cache_envelope():
    geometry = CacheGeometry(8192, 4)
    assert fastsim.supports_cache(SetAssociativeCache(geometry, "lru"))
    assert not fastsim.supports_cache(SetAssociativeCache(geometry, "plru"))
    assert not fastsim.supports_cache(
        SetAssociativeCache(geometry, "lru", retention_ticks=100, refresh_mode="rewrite")
    )
    assert not fastsim.supports_cache(
        SetAssociativeCache(
            geometry, "lru", retention_ticks=100, refresh_mode="invalidate",
            retention_distribution="exponential",
        )
    )
    gated = SetAssociativeCache(geometry, "lru")
    gated.set_powered_ways(2, tick=0)
    assert not fastsim.supports_cache(gated)
    warm = SetAssociativeCache(geometry, "lru")
    warm.access(0, False, 0, 0)
    assert not fastsim.supports_cache(warm)


# ----------------------------------------------------------------------
# 4. the dynamic design's epoch-chunked kernel


@pytest.mark.parametrize("seed", DYNAMIC_SEEDS)
def test_dynamic_kernel_matches_reference(seed):
    assert_dynamic_case_equal(sample_dynamic_case(seed))


@pytest.mark.parametrize("seed", DYNAMIC_SEEDS)
def test_dynamic_epoch_counters_match_reference(seed, monkeypatch):
    """Every controller step reads the same epoch counters from both
    engines: accesses, misses and, once the epoch has enough samples for
    a decision, the hit-rank histogram.  A rank no decision hinges on
    leaves the result unchanged, so the result alone cannot vouch for it."""
    from repro.core.dynamic_partition import DynamicPartitionDesign

    steps = []
    step = DynamicPartitionDesign._controller_step

    def spy(self, seg, tick):
        cache = seg.cache
        decides = cache.epoch_accesses >= self.config.decision_accesses
        ranks = list(cache.epoch_rank_hits) if decides else None
        steps.append((seg.name, tick, cache.epoch_accesses, cache.epoch_misses, ranks))
        step(self, seg, tick)

    monkeypatch.setattr(DynamicPartitionDesign, "_controller_step", spy)
    run_dynamic_case(sample_dynamic_case(seed))  # the reference engine first, then the kernel
    half = len(steps) // 2
    assert steps[:half] == steps[half:]


def test_dynamic_auto_engine_uses_fast_kernel(browser_stream_small):
    from repro.core.dynamic_partition import DynamicPartitionDesign

    result = DynamicPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "fastsim"


def test_dynamic_kill_switch_falls_back(browser_stream_small, monkeypatch):
    from repro.core.dynamic_partition import DynamicPartitionDesign

    monkeypatch.setenv("REPRO_FASTSIM", "0")
    result = DynamicPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM)
    assert result.extras["sim_engine"] == "reference"


def test_dynamic_fast_engine_raises_when_disqualified(browser_stream_small):
    from repro.core.dynamic_partition import DynamicPartitionDesign

    with pytest.raises(ValueError, match="fast"):
        DynamicPartitionDesign(refresh_mode="rewrite").run(
            browser_stream_small, DEFAULT_PLATFORM, engine="fast"
        )


def test_dynamic_segment_rejects_bad_config():
    geometry = CacheGeometry(8192, 4)
    with pytest.raises(ValueError, match="refresh modes"):
        fastsim.EpochReplaySegment(geometry, refresh_mode="rewrite")
    with pytest.raises(ValueError, match="retention_ticks"):
        fastsim.EpochReplaySegment(geometry, refresh_mode="invalidate")
    seg = fastsim.EpochReplaySegment(geometry)
    with pytest.raises(ValueError, match="new_powered"):
        seg.set_powered_ways(0, tick=0)
    with pytest.raises(ValueError, match="new_powered"):
        seg.set_powered_ways(5, tick=0)


def _warm_and_follow_rows():
    """Rows for the gating tests: 32 warm-up stores/loads that fill an
    8-set x 4-way cache exactly (block ``i`` lands in set ``i % 8``, way
    ``i // 8``, at tick ``10 * i``; two blocks in three dirty), then 40
    follow-up accesses over those blocks and 8 new ones."""
    warm = [(10 * i, i * 64, i % 3 != 0) for i in range(32)]
    follow = [(340 + 5 * j, (j * 7 % 40) * 64, j % 2 == 0) for j in range(40)]
    return warm, follow


@pytest.mark.parametrize("retains", [True, False], ids=["retains", "volatile"])
@pytest.mark.parametrize("window", [None, 100, 10_000], ids=["none", "decaying", "outlasting"])
def test_gating_scan_matches_reference(retains, window):
    """Gate three of four ways over live and decayed dirty blocks, then
    replay follow-up accesses one chunk each (re-enabling the ways half
    way): flushes, expiry write-backs and every hit/miss outcome must
    match the reference cache."""
    geometry = CacheGeometry(8 * 4 * 64, 4, 64)
    mode = "none" if window is None else "invalidate"
    ref = SetAssociativeCache(geometry, "lru", retention_ticks=window, refresh_mode=mode,
                              retains_when_gated=retains)
    seg = fastsim.EpochReplaySegment(geometry, retention_ticks=window, refresh_mode=mode,
                                     retains_when_gated=retains)
    warm, follow = _warm_and_follow_rows()
    ticks, addrs, writes = (np.array(col) for col in zip(*(warm + follow)))
    n = len(ticks)
    chunk_ids = np.r_[np.zeros(len(warm), dtype=np.int64), np.arange(1, len(follow) + 1)]
    seg.load(ticks, addrs, np.zeros(n, dtype=np.uint8), writes, np.ones(n, dtype=bool),
             chunk_ids, len(follow) + 1, 600)
    for tick, addr, isw in warm:
        ref.access(addr, isw, 0, tick)
    seg.replay_chunk(0)

    assert seg.set_powered_ways(1, 330) == ref.set_powered_ways(1, 330)
    for key in ("writebacks", "gate_flushes", "expiry_writebacks"):
        assert getattr(seg.stats, key) == getattr(ref.stats, key), key
    if window == 100:  # the gated ways held live and decayed dirty blocks
        assert ref.stats.gate_flushes > 0 and ref.stats.expiry_writebacks > 0

    for k, (tick, addr, isw) in enumerate(follow, start=1):
        if k == 20:
            assert seg.set_powered_ways(4, tick) == ref.set_powered_ways(4, tick)
        hits = seg.stats.hits
        seg.replay_chunk(k)
        assert (seg.stats.hits > hits) == ref.access(addr, isw, 0, tick).hit, k
    seg.finalize(600)
    ref.finalize(600)
    assert seg.stats == ref.stats


@pytest.mark.parametrize("past", [0, 1], ids=["at-window", "past-window"])
def test_segment_decay_bound_is_exact(past):
    """Dirty blocks stored at the segment's first tick decay exactly one
    tick past the window: gating and finalize at that bound must charge
    the same flushes and expiry write-backs as the reference."""
    window, first = 50, 5
    geometry = CacheGeometry(2 * 2 * 64, 2, 64)
    ref = SetAssociativeCache(geometry, "lru", retention_ticks=window, refresh_mode="invalidate")
    seg = fastsim.EpochReplaySegment(geometry, retention_ticks=window, refresh_mode="invalidate")
    addrs = np.array([0, 128], dtype=np.uint64)  # ways 0 and 1 of set 0
    ones = np.ones(2, dtype=bool)
    bound = first + window + past
    seg.load(np.full(2, first), addrs, np.zeros(2, dtype=np.uint8), ones, ones,
             np.zeros(2, dtype=np.int64), 1, bound)
    seg.replay_chunk(0)
    for addr in addrs.tolist():
        ref.access(addr, True, 0, first)
    assert seg.set_powered_ways(1, bound) == ref.set_powered_ways(1, bound)
    seg.finalize(bound)
    ref.finalize(bound)
    assert seg.stats == ref.stats
    assert ref.stats.expiry_writebacks == 2 * past


@pytest.mark.parametrize("retains", [True, False], ids=["retains", "volatile"])
@pytest.mark.parametrize("past", [0, 1], ids=["at-horizon", "past-horizon"])
def test_segment_horizon_bound_is_exact(retains, past):
    """A segment whose window covers every tick from its first row to its
    horizon (the finalize tick) replays retention-free; one tick more
    and a dirty block stored at the first tick decays at finalize.  Both
    sides of the bound, with a gate between two chunks under either
    gating semantics, must match the reference."""
    window, first = 50, 5
    horizon = first + window + past
    geometry = CacheGeometry(2 * 2 * 64, 2, 64)
    ref = SetAssociativeCache(geometry, "lru", retention_ticks=window, refresh_mode="invalidate",
                              retains_when_gated=retains)
    seg = fastsim.EpochReplaySegment(geometry, retention_ticks=window, refresh_mode="invalidate",
                                     retains_when_gated=retains)
    # stores to ways 0 and 1 of set 0, a gate to one way, then a load in set 1
    rows = [(first, 0, True), (first, 128, True), (first + 30, 64, False)]
    ticks, addrs, writes = (np.array(col) for col in zip(*rows))
    elided = _counted("fastsim.retention.elided", lambda: seg.load(
        ticks, addrs.astype(np.uint64), np.zeros(3, dtype=np.uint8), writes,
        np.ones(3, dtype=bool), np.array([0, 0, 1]), 2, horizon))
    assert elided == (past == 0)
    seg.replay_chunk(0)
    for tick, addr, isw in rows[:2]:
        ref.access(addr, isw, 0, tick)
    assert seg.set_powered_ways(1, first + 20) == ref.set_powered_ways(1, first + 20)
    seg.replay_chunk(1)
    ref.access(rows[2][1], rows[2][2], 0, rows[2][0])
    with pytest.raises(ValueError, match="horizon"):
        seg.finalize(horizon + 1)
    seg.finalize(horizon)
    ref.finalize(horizon)
    assert seg.stats == ref.stats
    assert ref.stats.expiry_writebacks == past


# ----------------------------------------------------------------------
# 5. retention the stream cannot outlast


def _counted(name, run) -> int:
    """How much ``run()`` adds to counter ``name``."""
    before = obs.REGISTRY.counters.get(name, 0)
    run()
    return obs.REGISTRY.counters.get(name, 0) - before


def test_elision_cases_straddle_the_bound():
    """A window one tick short of the stream's span keeps the retention
    loop; the span itself and anything longer replay retention-free.
    (``test_kernel_matches_reference`` checks both against the reference.)"""
    for seed in ELISION_SEEDS:
        elided = _counted("fastsim.retention.elided", lambda: run_case(sample_case(seed)))
        assert elided == (seed % 4 != 0), sample_case(seed).describe()


def _dynamic_segments(monkeypatch):
    """A function running one dynamic seed and returning the epoch
    replay segments it loaded rows into."""
    loaded = []
    load = fastsim.EpochReplaySegment.load

    def spy(self, *args):
        loaded.append(self)
        return load(self, *args)

    monkeypatch.setattr(fastsim.EpochReplaySegment, "load", spy)

    def run(seed):
        loaded.clear()
        run_dynamic_case(sample_dynamic_case(seed))
        return [seg for seg in loaded if seg._chunk_starts[-1]]

    return run


def test_dynamic_seeds_mix_elided_and_full_chunks(monkeypatch):
    """Some dynamic differential case replays a segment's early chunks
    without the decay test and its later chunks with it, so both sides
    of the per-chunk bound are compared with the reference engine."""
    segments = _dynamic_segments(monkeypatch)

    def mixes(seg):
        starts = seg._chunk_starts
        replayed = [k for k in range(len(starts) - 1) if starts[k + 1] > starts[k]]
        return seg._window is not None and replayed[0] < seg._full_from <= replayed[-1]

    assert any(mixes(seg) for seed in DYNAMIC_SEEDS for seg in segments(seed))


def _looped_rows(seg):
    """Which rows of an epoch replay segment the loop replayed: those
    from each set's hand-over row on."""
    return seg._handed[seg._set] <= np.arange(len(seg._set))


def test_dynamic_seeds_mix_clean_and_looped_rows(monkeypatch):
    """Some dynamic differential case resolves part of a segment's rows
    in NumPy (its clean sets) and replays the rest in the per-access
    loop (each set from its first event on), so both, and the hand-over
    between them, are compared with the reference engine."""
    segments = _dynamic_segments(monkeypatch)

    def mixes(seg):
        looped = _looped_rows(seg)
        return looped.any() and not looped.all()

    assert any(mixes(seg) for seed in DYNAMIC_SEEDS for seg in segments(seed))


def test_run_seeds_end_runs(monkeypatch):
    """The run seeds end the epoch replay's runs both ways: some segment
    changes its busy ways at least twice with an idle gate between two of
    the changes (``regrow``), and some SRAM segment whose busy ways never
    change still resolves a second run, after an idle gate dropped clean
    sets (``sram-idle``).  So ``test_dynamic_epoch_counters_match_reference``
    compares run ends and in-run gates with the reference at every
    controller step."""
    from repro.core.dynamic_partition import DynamicPartitionDesign

    steps, runs = {}, {}
    step = DynamicPartitionDesign._controller_step
    replay = fastsim.EpochReplaySegment.replay_chunk

    def spy_step(self, seg, tick):
        busy = seg.busy_ways
        step(self, seg, tick)
        steps.setdefault(seg.cache, []).append((busy, seg.busy_ways, seg.cache.powered_ways))

    def spy_replay(self, chunk):
        runs[self] = runs.get(self, 0) + _counted("fastsim.epoch.runs", lambda: replay(self, chunk))

    monkeypatch.setattr(DynamicPartitionDesign, "_controller_step", spy_step)
    monkeypatch.setattr(fastsim.EpochReplaySegment, "replay_chunk", spy_replay)

    def regrows(seg_steps):
        changes = [i for i, (before, after, _) in enumerate(seg_steps) if before != after]
        return any(any(powered < after for _, after, powered in seg_steps[a + 1:b])
                   for a, b in zip(changes, changes[1:]))

    regrown = dropped = False
    for seed in RUN_SEEDS:
        steps.clear()
        runs.clear()
        run_dynamic_case(sample_dynamic_case(seed))
        for seg, seg_steps in steps.items():
            if not isinstance(seg, fastsim.EpochReplaySegment):
                continue
            regrown |= regrows(seg_steps)
            steady = all(before == after for before, after, _ in seg_steps)
            dropped |= not seg.retains_when_gated and steady and runs.get(seg, 0) >= 2
    assert regrown and dropped


@pytest.fixture(scope="module")
def suite_streams_240k():
    """Every suite app's L2 stream at the benchmark's trace length."""
    from repro.trace.workloads import APP_NAMES, suite_trace

    return {app: l1_filter(suite_trace(app, 240_000, 0), DEFAULT_PLATFORM) for app in APP_NAMES}


@pytest.fixture(scope="module")
def browser_stream_240k(suite_streams_240k):
    return suite_streams_240k["browser"]


def test_dynamic_kernel_matches_reference_on_suite(suite_streams_240k):
    """At 240k accesses the controller's rank rules fire (the 60k golden
    grid never shrinks on the last-way rule), most rows are clean and
    some sets leave the clean state: the epoch replay must match the
    reference engine on every suite app."""
    from repro.core.designs import make_design

    for app, stream in suite_streams_240k.items():
        fast, ref = (
            make_design("dynamic-stt").run(stream, DEFAULT_PLATFORM, engine=engine).to_dict()
            for engine in ("fast", "reference")
        )
        assert fast["extras"].pop("sim_engine") == "fastsim"
        assert ref["extras"].pop("sim_engine") == "reference"
        assert fast == ref, app


def test_drowsy_matches_reference_on_suite(suite_streams_240k):
    """At 240k accesses the drowsy design's awake time, read off the fast
    kernel's eviction events, matches the same post-pass over
    the reference loop's events, result for result."""
    from repro.core.designs import make_design

    for app in ("browser", "game", "video"):
        fast, ref = (
            make_design("drowsy-sram").run(suite_streams_240k[app], DEFAULT_PLATFORM,
                                           engine=engine).to_dict()
            for engine in ("fast", "reference")
        )
        assert fast["extras"].pop("sim_engine") == "fastsim"
        assert ref["extras"].pop("sim_engine") == "reference"
        assert fast == ref, app


def test_retention_elision_counters(browser_stream_240k):
    """At the benchmark's trace length every static-stt and dynamic-stt
    window outlasts its segment's stream, so each segment replays
    retention-free; a 10x slower clock shrinks the windows below the
    stream's span, so none does, and the fast engine's expiring replay
    then matches the reference."""
    from repro.core.designs import make_design

    stream = browser_stream_240k

    def run(design, platform=DEFAULT_PLATFORM):
        return lambda: make_design(design).run(stream, platform)

    assert _counted("fastsim.retention.elided", run("static-stt")) == 2
    assert _counted("fastsim.retention.elided", run("dynamic-stt")) == 2
    slow = dataclasses.replace(DEFAULT_PLATFORM, clock_hz=DEFAULT_PLATFORM.clock_hz / 10)
    assert _counted("fastsim.retention.elided", run("static-stt", slow)) == 0
    assert _counted("fastsim.retention.elided", run("dynamic-stt", slow)) == 0

    fast, ref = (
        make_design("static-stt").run(stream, slow, engine=engine).to_dict()
        for engine in ("fast", "reference")
    )
    assert fast["extras"].pop("sim_engine") == "fastsim"
    assert ref["extras"].pop("sim_engine") == "reference"
    assert fast == ref
    kernel = next(seg for seg in fast["segments"] if seg["name"] == "kernel")
    assert kernel["stats"]["expiry_invalidations"] > 0


# ----------------------------------------------------------------------
# 6. the retention-free replay's rules, and the epoch replay's clean sets


ROUTE_ROWS = ("fastsim.prefix.rows", "fastsim.scan.rows", "fastsim.loop.rows")


def _route_rows(run) -> dict[str, int]:
    """How many rows ``run()`` settles on each route: ``prefix`` (in
    NumPy, no scan), ``scan`` (a retention-free row whose window a scan
    counts) and ``loop`` (the epoch replay's per-access loop)."""
    before = [obs.REGISTRY.counters.get(name, 0) for name in ROUTE_ROWS]
    run()
    return {
        name.split(".")[1]: obs.REGISTRY.counters.get(name, 0) - b
        for name, b in zip(ROUTE_ROWS, before)
    }


def test_footprint_cases_mix_prefix_and_scan():
    """Most footprint cases settle some rows with no scan and count the
    window of others, so ``test_kernel_matches_reference`` checks both
    against the reference; the retention-free replay has no loop."""
    mixed = []
    for seed in FOOTPRINT_SEEDS:
        rows = _route_rows(lambda: run_case(sample_case(seed)))
        assert rows["loop"] == 0, seed
        if rows["prefix"] and rows["scan"]:
            mixed.append(seed)
    assert len(mixed) >= 8, mixed


def test_stress_cases_reach_their_shapes():
    """Each stress scenario builds the shape it is named for, so the
    differential cases over ``STRESS_SEEDS`` check the two rules there:
    long scans, one and 32 ways, write-back victims in every
    cross-privilege cell, and empty trailing sets."""
    for seed in STRESS_SEEDS:
        case = sample_case(seed)
        scans = []
        with pytest.MonkeyPatch.context() as mp:
            window_misses = fastsim._window_misses

            def spy(prev, p, j, ways):
                scans.extend((j - p).tolist())
                return window_misses(prev, p, j, ways)

            mp.setattr(fastsim, "_window_misses", spy)
            ref, _ = run_case(case)
        assert ref.evictions > 0, case.describe()
        if case.scenario == "long-window":
            assert max(scans) > 1_000, case.describe()
        elif case.scenario == "direct-mapped":
            assert case.ways == 1
        elif case.scenario == "wide":
            assert case.ways == 32 and scans, case.describe()
        elif case.scenario == "write-cross":
            assert ref.writebacks > 0 and min(min(ref.evictions_cross)) > 0, case.describe()
        else:
            _, addrs, _, _, _, _ = _workload(case)
            sets = (addrs // np.uint64(case.block_size)) % np.uint64(case.sets)
            assert int(sets.max()) < case.sets - 1, case.describe()


def test_long_window_scan():
    """One 4-way set that has evicted, then a block whose next access
    comes after 120k rows cycling through three other blocks: a hit that
    only a scan over the whole gap decides."""
    n = 120_000
    blocks = np.r_[[20, 21, 22, 23, 24, 10], np.resize([1, 2, 3], n), [10, 4, 10]]
    addrs = blocks.astype(np.uint64) * np.uint64(64)
    privs = (np.arange(len(blocks)) % 5 == 0).astype(np.uint8)
    writes = np.arange(len(blocks)) % 7 == 0
    geometry = CacheGeometry(4 * 64, 4, 64)
    gaps = []
    window_misses = fastsim._window_misses

    def spy(prev, p, j, ways):
        gaps.extend((j - p).tolist())
        return window_misses(prev, p, j, ways)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastsim, "_window_misses", spy)
        stats, _ = fastsim.simulate_trace(geometry, np.arange(len(blocks)), addrs, privs, writes)
    assert max(gaps) > n
    ref = SetAssociativeCache(geometry, "lru")
    for i, (addr, isw, priv) in enumerate(zip(addrs.tolist(), writes.tolist(), privs.tolist())):
        ref.access(addr, isw, priv, i)
    assert stats == ref.stats
    assert stats.misses == 10  # 5 + block 10 + blocks 1, 2, 3 + block 4


def test_prefix_dirty_block_evicted_by_first_new_block():
    """A dirty block last touched early in the prefix is the LRU victim of
    the set's (ways+1)-th distinct block.  Set 0 writes its block at the
    first occurrence but re-reads another block first, so seeding the
    recency order by first access picks a clean victim; set 1 writes its
    block on a later prefix row, so dropping prefix writes from the dirty
    bit loses the write-back.  Stats and write-back events must match the
    reference engine."""
    geometry = CacheGeometry(4 * 4 * 64, 4, 64)  # 4 sets x 4 ways

    def block(set_i, k):
        return (k * 4 + set_i) * 64

    rows = []
    for k, isw in [(1, False), (0, True), (2, False), (3, False),
                   (1, False), (2, False), (3, False), (4, False)]:
        rows.append((block(0, k), isw, 0))
    for k, isw in [(0, False), (1, False), (0, True), (2, False), (3, False),
                   (1, False), (2, False), (3, False), (4, False)]:
        rows.append((block(1, k), isw, 1))
    rows.append((block(2, 0), True, 0))  # a set that never evicts
    addrs, writes, privs = (np.array(col) for col in zip(*rows))
    n = len(rows)

    ref = SetAssociativeCache(geometry, "lru")
    ref_wb = []
    for i, (addr, isw, priv) in enumerate(rows):
        result = ref.access(addr, isw, priv, i)
        if result.writeback:
            ref_wb.append((i, result.victim_addr, result.victim_priv))
    assert ref_wb == [(7, block(0, 0), 0), (16, block(1, 0), 1)]

    for record in (False, True):
        stats, events = fastsim.simulate_trace(
            geometry, np.arange(n), addrs.astype(np.uint64), privs.astype(np.uint8),
            writes.astype(bool), record_events=record,
        )
        assert stats == ref.stats
    dirty = events.evict_dirty
    fast_wb = list(zip(events.evict_idx[dirty], events.evict_addr[dirty].tolist(),
                       events.evict_priv[dirty]))
    assert fast_wb == ref_wb
    assert sorted(events.miss_idx) == [0, 1, 2, 3, 7, 8, 9, 11, 12, 16, 17]


def test_block_order_is_a_stable_argsort():
    """Each block's rows keep their order, whether the block numbers
    leave room for the row number in one int64 sort key or not, and
    whether set-major rows sort by a 16-bit tag or not."""
    rng = np.random.default_rng(5)
    for top in (1 << 20, 1 << 62):
        blocks = rng.integers(0, 8, 500).astype(np.uint64) * np.uint64(top // 8)
        assert np.array_equal(fastsim._block_order(blocks), np.argsort(blocks, kind="stable"))
    for span in (1 << 10, 1 << 16, 1 << 40):  # distinct tags per 64 sets
        blocks = rng.integers(0, span, 2_000).astype(np.uint64) * np.uint64(64)
        blocks += rng.integers(0, 64, 2_000).astype(np.uint64)
        blocks = blocks[fastsim._set_order(blocks, 64)]
        assert np.array_equal(fastsim._block_order(blocks, 64),
                              np.argsort(blocks, kind="stable")), span


def test_prefix_counters(suite_streams_240k):
    """At the benchmark's trace length the baseline design settles most
    of the suite's rows with no scan, counts the window of a few (some
    sets still evict), and never reaches a per-access loop.  A single
    app may evict too little to need a scan (browser at seed 0 does)."""
    from repro.core.designs import make_design

    baseline = make_design("baseline")
    rows = _route_rows(lambda: [baseline.run(stream, DEFAULT_PLATFORM)
                                for stream in suite_streams_240k.values()])
    assert rows["prefix"] > rows["scan"] > 0
    assert rows["loop"] == 0


def test_epoch_replay_counters(browser_stream_240k):
    """At the benchmark's trace length the dynamic design resolves well
    over nine in ten rows in NumPy (its sets stay clean), and some sets
    still reach the per-access loop; it never scans."""
    from repro.core.designs import make_design

    rows = _route_rows(
        lambda: make_design("dynamic-stt").run(browser_stream_240k, DEFAULT_PLATFORM)
    )
    assert rows["prefix"] > 9 * rows["loop"] > 0
    assert rows["scan"] == 0


def test_epoch_runs_counter(browser_stream_240k, monkeypatch):
    """At the benchmark's trace length dynamic-stt resolves its clean
    sets once per run of constant ways, far fewer times than it replays a
    non-empty chunk.  Each segment books every row once, on the prefix or
    the loop route, and its loop rows are its rows from each set's
    hand-over on."""
    from repro.core.designs import make_design

    booked, replays = {}, []
    close_span = fastsim.EpochReplaySegment._close_span
    replay = fastsim.EpochReplaySegment.replay_chunk

    def spy_close_span(self):
        rows = _route_rows(lambda: close_span(self))
        for route, count in rows.items():
            booked.setdefault(self, dict.fromkeys(rows, 0))[route] += count

    def spy_replay(self, chunk):
        if self._chunk_starts[chunk + 1] > self._chunk_starts[chunk]:
            replays.append(chunk)
        replay(self, chunk)

    monkeypatch.setattr(fastsim.EpochReplaySegment, "_close_span", spy_close_span)
    monkeypatch.setattr(fastsim.EpochReplaySegment, "replay_chunk", spy_replay)
    runs = _counted("fastsim.epoch.runs", lambda: make_design("dynamic-stt").run(
        browser_stream_240k, DEFAULT_PLATFORM))
    assert 0 < runs < len(replays)
    assert len(booked) == 2
    for seg, rows in booked.items():
        assert rows["prefix"] + rows["loop"] == seg._chunk_starts[-1], seg.name
        assert rows["scan"] == 0
        assert rows["loop"] == np.count_nonzero(_looped_rows(seg)), seg.name


def test_fast_fixed_replay_leaves_reference_state_unbuilt(browser_stream_small, monkeypatch):
    """A fixed design replayed by the kernel never builds the reference
    engine's per-set state; the reference path still builds and uses it."""
    built = []
    build = SetAssociativeCache._build_sets

    def spy(self):
        built.append(self.name)
        build(self)

    monkeypatch.setattr(SetAssociativeCache, "_build_sets", spy)
    fast = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM, engine="fast")
    assert built == []
    ref = StaticPartitionDesign().run(browser_stream_small, DEFAULT_PLATFORM, engine="reference")
    assert built
    fast_d, ref_d = fast.to_dict(), ref.to_dict()
    fast_d["extras"].pop("sim_engine")
    ref_d["extras"].pop("sim_engine")
    assert fast_d == ref_d


def test_lazy_reference_state():
    cache = SetAssociativeCache(CacheGeometry(8192, 4), "lru")
    assert cache.is_empty()
    assert cache.occupancy() == 0.0
    assert type(cache._frames) is list  # built on first use
    cache.access(0, True, 0, 0)
    assert not cache.is_empty() and cache.contains(0)
