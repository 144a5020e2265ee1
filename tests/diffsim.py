"""Randomized differential verification of fastsim against the reference.

The fast kernel (:mod:`repro.cache.fastsim`) is trusted *by construction*:
every release must show exact :class:`~repro.cache.stats.CacheStats`
equality with :class:`~repro.cache.set_assoc.SetAssociativeCache` over a
randomized family of trace × geometry × retention configurations.  This
module is that harness — ``tests/test_fastsim.py`` drives it across a
seed range, and with ``tests`` on ``sys.path`` it is importable for
ad-hoc bisection::

    from diffsim import sample_case, run_case
    ref, fast = run_case(sample_case(seed=7))
    assert ref == fast

Workloads are deliberately adversarial for the envelope: sub-block
address offsets, skewed set pressure, both privilege levels, write-back
(non-demand) rows, and — for the retention cases — tick gaps sampled
around the retention window so expiry invalidations, expired-frame
reclaims and finalize-time drains all fire.  Seeds from
:data:`RUN_CASES_FROM` on also expand the addresses into geometric
same-block runs with writes scattered inside them, the shape the
kernel collapses before its replay (retention ``none``) and must not
collapse with retention (a store refreshes the block).  Seeds from
:data:`ELISION_CASES_FROM` on are all ``invalidate`` cases whose window
is set from their own stream's tick span (one tick short of it, exactly
it, one past it, twice it), so the kernel's retention-free replay of a
window the stream cannot outlast is checked on both sides of its bound.
Seeds from :data:`FOOTPRINT_CASES_FROM` on give every set ``ways - 1``,
``ways``, ``ways + 1`` or ``2 * ways`` distinct blocks, arriving one by
one so that early blocks recur (and take writes) before the set's next
new block: rows the kernel's retention-free replay settles with its
cheap bounds next to rows whose reuse window it scans, in sets that
evict and sets that never do.  Even footprint seeds are retention-free;
odd ones are ``invalidate`` with the window at the stream's span
(elided).  The
dynamic-design sampler's seeds from :data:`CLEAN_DYNAMIC_CASES_FROM` on
hold a few blocks per set, so the epoch replay resolves most rows of
its clean sets in NumPy and hands sets to its loop mid-run, in each of
the ways :data:`CLEAN_SCENARIOS` names; from
:data:`RUN_DYNAMIC_CASES_FROM` on they also end the replay's runs of
constant ways mid-stream.  Seeds from
:data:`STRESS_CASES_FROM` on are retention-free cases that stress the
kernel's two rules (hits from the distinct blocks between a block's
accesses, victims paired with evicting misses by last access), cycling
through :data:`STRESS_SCENARIOS`.  :func:`assert_case_equal` compares
every case's miss and eviction events with the reference engine's as
well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cache.fastsim import simulate_trace
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import CacheGeometry, PlatformConfig
from repro.types import to_data

#: First :func:`sample_case` seed whose workload has same-block runs;
#: lower seeds keep their original run-free workloads unchanged.
RUN_CASES_FROM = 24
#: First :func:`sample_case` seed whose window is set from its stream's
#: tick span; lower seeds keep their original windows unchanged.
ELISION_CASES_FROM = 40
#: First :func:`sample_case` seed with per-set footprints around the
#: associativity; lower seeds keep their original workloads unchanged.
FOOTPRINT_CASES_FROM = 56
#: First :func:`sample_dynamic_case` seed whose footprint keeps most sets
#: clean, cycling through :data:`CLEAN_SCENARIOS`; lower seeds keep their
#: original configurations unchanged.
CLEAN_DYNAMIC_CASES_FROM = 24
_RUN_SCENARIOS = ("regrow", "sram-idle")
CLEAN_SCENARIOS = ("overflow", "dirty-gate", "sram-gate", "decay", "shrunk-rank") + _RUN_SCENARIOS
#: First :func:`sample_dynamic_case` seed that cycles through the last
#: two :data:`CLEAN_SCENARIOS` (run boundaries of the epoch replay);
#: lower seeds cycle through the others, unchanged.
RUN_DYNAMIC_CASES_FROM = 34
#: First :func:`sample_case` seed drawn from :data:`STRESS_SCENARIOS`;
#: lower seeds keep their original workloads unchanged.
STRESS_CASES_FROM = 72
STRESS_SCENARIOS = ("long-window", "direct-mapped", "wide", "write-cross", "empty-tail")

__all__ = [
    "RUN_CASES_FROM",
    "ELISION_CASES_FROM",
    "FOOTPRINT_CASES_FROM",
    "CLEAN_DYNAMIC_CASES_FROM",
    "CLEAN_SCENARIOS",
    "RUN_DYNAMIC_CASES_FROM",
    "STRESS_CASES_FROM",
    "STRESS_SCENARIOS",
    "DiffCase",
    "sample_case",
    "run_case",
    "assert_case_equal",
    "DynamicDiffCase",
    "sample_dynamic_case",
    "run_dynamic_case",
    "assert_dynamic_case_equal",
]


@dataclass(frozen=True)
class DiffCase:
    """One randomized configuration of the differential harness."""

    seed: int
    sets: int
    ways: int
    block_size: int
    refresh_mode: str           # "none" or "invalidate"
    retention_ticks: int | None
    length: int
    addr_blocks: int            # footprint, in distinct block addresses
    max_gap: int                # upper bound of inter-access tick gaps
    write_frac: float
    kernel_frac: float
    wb_frac: float              # fraction of rows marked non-demand
    run_mean: float = 1.0       # mean same-block run length (1 = no runs)
    per_set_footprint: bool = False  # each set's distinct blocks around ways
    scenario: str = ""          # one of STRESS_SCENARIOS, or "" for none

    @property
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(
            self.sets * self.ways * self.block_size, self.ways, self.block_size
        )

    def describe(self) -> str:
        return (
            f"seed={self.seed} {self.sets}x{self.ways}w/{self.block_size}B "
            f"{self.refresh_mode}"
            + (f"(ret={self.retention_ticks})" if self.retention_ticks else "")
            + f" n={self.length} blocks={self.addr_blocks} gap<={self.max_gap}"
            + (f" runs~{self.run_mean:g}" if self.run_mean > 1.0 else "")
            + (" per-set-footprints" if self.per_set_footprint else "")
            + (f" {self.scenario}" if self.scenario else "")
        )


def sample_case(seed: int) -> DiffCase:
    """Draw one configuration; even seeds are retention-free, odd seeds
    use invalidate-on-expiry, so any seed range covers both modes.
    Seeds from :data:`RUN_CASES_FROM` on add same-block runs; seeds from
    :data:`ELISION_CASES_FROM` on are all ``invalidate``, with the window
    ``span - 1``, ``span``, ``span + 1`` or ``2 * span`` by ``seed % 4``,
    where ``span`` runs from the stream's first tick to its finalize
    tick.  Seeds from :data:`FOOTPRINT_CASES_FROM` on draw each set's
    footprint around the associativity; even ones are retention-free,
    odd ones use the window ``span``.  Seeds from
    :data:`STRESS_CASES_FROM` on come from :func:`_stress_case`."""
    if seed >= STRESS_CASES_FROM:
        return _stress_case(seed)
    rng = np.random.default_rng(seed)
    sets = int(rng.choice([1, 2, 4, 16, 64]))
    ways = int(rng.choice([1, 2, 3, 4, 8, 16]))
    block_size = int(rng.choice([32, 64, 128]))
    footprint_case = seed >= FOOTPRINT_CASES_FROM
    if footprint_case:
        refresh_mode = "invalidate" if seed % 2 else "none"
    else:
        refresh_mode = "invalidate" if seed % 2 or seed >= ELISION_CASES_FROM else "none"
    retention_ticks = int(rng.integers(20, 2_000)) if refresh_mode == "invalidate" else None
    capacity_blocks = sets * ways
    footprint = max(1, int(capacity_blocks * float(rng.choice([0.5, 1.0, 2.0, 4.0]))))
    if retention_ticks is not None:
        # Gaps straddling the window make expiry outcomes order-sensitive.
        max_gap = max(2, int(retention_ticks * float(rng.choice([0.05, 0.4, 1.5]))))
    else:
        max_gap = int(rng.choice([1, 4, 60]))
    case = DiffCase(
        seed=seed,
        sets=sets,
        ways=ways,
        block_size=block_size,
        refresh_mode=refresh_mode,
        retention_ticks=retention_ticks,
        length=int(rng.integers(1_500, 4_000)),
        addr_blocks=footprint,
        max_gap=max_gap,
        write_frac=float(rng.uniform(0.05, 0.6)),
        kernel_frac=float(rng.uniform(0.1, 0.7)),
        wb_frac=float(rng.uniform(0.0, 0.25)),
        # drawn last, so the fields above match the run-free sampler
        run_mean=float(rng.choice([2.0, 4.0, 8.0])) if seed >= RUN_CASES_FROM else 1.0,
        per_set_footprint=footprint_case,
    )
    if seed < ELISION_CASES_FROM or refresh_mode == "none":
        return case
    ticks, _, _, _, _, final_tick = _workload(case)
    span = final_tick - int(ticks.min())  # the finalize tick is the latest
    if footprint_case:
        return replace(case, retention_ticks=span)
    return replace(case, retention_ticks=(span - 1, span, span + 1, 2 * span)[seed % 4])


def _stress_case(seed: int) -> DiffCase:
    """A retention-free case for the scenario ``seed`` selects:

    * ``long-window`` — one or two 4-way sets where a block recurs after
      thousands of rows that cycle through ``ways - 1`` or ``ways`` other
      blocks: a hit or a miss decided only at the end of a long scan;
    * ``direct-mapped`` — one way per set, with same-block runs;
    * ``wide`` — 32 ways, footprints 1.5 or 3 times the capacity;
    * ``write-cross`` — mostly stores, user and kernel rows interleaved
      over twice the capacity or more: write-back victims and all four
      cross-privilege eviction cells;
    * ``empty-tail`` — 64 sets of which only the first few are used.
    """
    rng = np.random.default_rng(seed ^ 0x57E5)
    scenario = STRESS_SCENARIOS[(seed - STRESS_CASES_FROM) % len(STRESS_SCENARIOS)]
    sets, ways, length, scale = 16, 4, int(rng.integers(1_500, 4_000)), 2.0
    write_frac, run_mean = float(rng.uniform(0.05, 0.6)), 1.0
    if scenario == "long-window":
        sets, length = int(rng.choice([1, 2])), int(rng.integers(8_000, 16_000))
    elif scenario == "direct-mapped":
        ways, scale, run_mean = 1, float(rng.choice([2.0, 4.0])), 2.0
    elif scenario == "wide":
        sets, ways, scale = int(rng.choice([1, 2])), 32, float(rng.choice([1.5, 3.0]))
    elif scenario == "write-cross":
        ways, write_frac, scale = int(rng.choice([2, 4])), float(rng.uniform(0.6, 0.9)), 3.0
    else:  # empty-tail
        sets, ways = 64, int(rng.choice([2, 4]))
    return DiffCase(
        seed=seed, sets=sets, ways=ways, block_size=64, refresh_mode="none",
        retention_ticks=None, length=length, addr_blocks=int(sets * ways * scale),
        max_gap=4, write_frac=write_frac, kernel_frac=0.5,
        wb_frac=float(rng.uniform(0.0, 0.25)), run_mean=run_mean, scenario=scenario,
    )


def _workload(case: DiffCase):
    """Generate the access columns of one case (deterministic per seed)."""
    rng = np.random.default_rng(case.seed ^ 0xFA57)
    n = case.length
    if case.per_set_footprint:
        blocks = _footprint_blocks(case, rng)
    elif case.scenario == "long-window":
        blocks = _long_window_blocks(case, rng)
    elif case.scenario == "empty-tail":
        used = int(rng.integers(1, case.sets // 4))
        blocks = (rng.integers(0, 4 * case.ways, size=n) * case.sets
                  + rng.integers(0, used, size=n)).astype(np.uint64)
    else:
        blocks = rng.integers(0, case.addr_blocks, size=n).astype(np.uint64)
    if case.run_mean > 1.0:
        runs = rng.geometric(1.0 / case.run_mean, size=n)
        blocks = np.repeat(blocks, runs)[:n]
    offsets = rng.integers(0, case.block_size, size=n).astype(np.uint64)
    addrs = blocks * np.uint64(case.block_size) + offsets
    ticks = np.cumsum(rng.integers(0, case.max_gap + 1, size=n)).astype(np.int64)
    writes = rng.random(n) < case.write_frac
    privs = (rng.random(n) < case.kernel_frac).astype(np.uint8)
    demand = rng.random(n) >= case.wb_frac
    final_tick = int(ticks[-1]) + case.max_gap + 1
    return ticks, addrs, privs, writes, demand, final_tick


def _footprint_blocks(case: DiffCase, rng) -> np.ndarray:
    """Block column whose sets each hold ``ways - 1``, ``ways``,
    ``ways + 1`` or ``2 * ways`` distinct blocks.  A set's ``t``-th access
    draws uniformly from its first ``1 + t`` blocks, so blocks arrive one
    by one and early ones recur (and take writes) before the next.  Only
    as many sets are used as get about ``4 * ways`` accesses each after
    the same-block runs are expanded."""
    ways = case.ways
    footprints = rng.choice([max(1, ways - 1), ways, ways + 1, 2 * ways], size=case.sets)
    used = int(min(case.sets, max(1, case.length // (case.run_mean * 4 * ways))))
    sets = rng.integers(0, used, size=case.length)
    counts = np.bincount(sets, minlength=case.sets)
    ordinal = np.empty(case.length, dtype=np.int64)
    ordinal[np.argsort(sets, kind="stable")] = (
        np.arange(case.length) - np.repeat(np.cumsum(counts) - counts, counts)
    )
    unlocked = np.minimum(footprints[sets], 1 + ordinal)
    ks = (rng.random(case.length) * unlocked).astype(np.int64)
    return (ks * case.sets + sets).astype(np.uint64)


def _long_window_blocks(case: DiffCase, rng) -> np.ndarray:
    """Block column of the ``long-window`` scenario.  Each set warms up
    over ``3 * ways`` blocks, then repeats: a block ``x``, a run of up to
    half the set's rows cycling through ``ways - 1`` or ``ways`` other
    blocks, and ``x`` again (a hit after ``ways - 1``, a miss after
    ``ways``).  Rows are dealt to the sets at random."""
    ways, sets, n = case.ways, case.sets, case.length
    row_sets = rng.integers(0, sets, size=n)
    blocks = np.empty(n, dtype=np.uint64)
    for s in range(sets):
        rows = np.flatnonzero(row_sets == s)
        seq = list(rng.integers(0, 3 * ways, size=2 * ways))
        while len(seq) < len(rows):
            x, *cycle = rng.choice(3 * ways, size=ways + int(rng.integers(0, 2)), replace=False)
            span = int(rng.integers(ways + 1, max(ways + 2, len(rows) // 2)))
            seq += [x, *np.resize(cycle, span), x]
        blocks[rows] = np.asarray(seq[:len(rows)], dtype=np.uint64) * np.uint64(sets) + np.uint64(s)
    return blocks


def run_case(case: DiffCase) -> tuple[CacheStats, CacheStats]:
    """Run one case through both engines; returns (reference, fast) stats."""
    ref, fast, _, _ = _replay_case(case)
    return ref, fast


def _replay_case(case: DiffCase):
    """Both engines' stats and miss side channels on one case.

    Returns ``(reference stats, fast stats, reference events, fast
    events)``, the events as ``(misses, evictions)``: the sorted indices
    of the missing rows, and the sorted ``(row, victim address, victim
    privilege, dirty)`` of every victim."""
    ticks, addrs, privs, writes, demand, final_tick = _workload(case)
    cache = SetAssociativeCache(case.geometry, "lru", retention_ticks=case.retention_ticks,
                                refresh_mode=case.refresh_mode, name="diff-ref")
    misses, evictions = [], []
    for i, (tick, addr, priv, isw, dm) in enumerate(zip(
        ticks.tolist(), addrs.tolist(), privs.tolist(), writes.tolist(), demand.tolist()
    )):
        result = cache.access(addr, isw, priv, tick, dm)
        if not result.hit:
            misses.append(i)
        if result.victim_addr is not None:
            evictions.append((i, result.victim_addr, result.victim_priv, result.writeback))
    cache.finalize(final_tick)
    cache.stats.check_invariants()
    fast_stats, events = simulate_trace(
        case.geometry, ticks, addrs, privs, writes, demand,
        retention_ticks=case.retention_ticks, refresh_mode=case.refresh_mode,
        finalize_tick=final_tick, record_events=True,
    )
    fast_evictions = zip(events.evict_idx.tolist(), events.evict_addr.tolist(),
                         events.evict_priv.tolist(), events.evict_dirty.tolist())
    return (cache.stats, fast_stats, (misses, evictions),
            (sorted(events.miss_idx.tolist()), sorted(fast_evictions)))


def assert_case_equal(case: DiffCase) -> None:
    """Raise ``AssertionError`` with a field-level diff on any mismatch,
    in the stats or in the miss and eviction events."""
    ref, fast, (ref_misses, ref_evictions), (fast_misses, fast_evictions) = _replay_case(case)
    ref_d, fast_d = to_data(ref), to_data(fast)
    mismatches = [
        f"  {key}: reference={ref_d[key]!r} fast={fast_d[key]!r}"
        for key in ref_d
        if ref_d[key] != fast_d[key]
    ]
    if ref_misses != fast_misses:
        mismatches.append("  missing rows differ")
    if ref_evictions != fast_evictions:
        mismatches.append("  eviction events differ")
    if mismatches:
        raise AssertionError(
            "fastsim diverged from the reference engine on "
            + case.describe() + "\n" + "\n".join(mismatches)
        )


# ----------------------------------------------------------------------
# dynamic-design differential harness (epoch-chunked replay)


@dataclass(frozen=True)
class DynamicDiffCase:
    """One randomized configuration of the dynamic-design harness.

    Covers the full :class:`~repro.core.dynamic_partition.
    DynamicPartitionDesign` run — controller resizes, idle gating,
    wake-on-first-access, retention expiry and gating semantics — not
    just raw cache counters, so equality is asserted on the whole
    :class:`~repro.core.result.DesignResult` (timelines, resize counts
    and energy/timing numbers included).
    """

    seed: int
    sets: int
    block_size: int
    clock_hz: float             # low clocks shrink retention windows
    epoch_ticks: int
    max_user_ways: int
    max_kernel_ways: int
    start_user_ways: int
    start_kernel_ways: int
    idle_accesses: int
    decision_accesses: int
    grow_step: int
    user_tech: str              # STT retention class, or "sram"
    kernel_tech: str
    bursts: int
    burst_len: int
    burst_gap: int              # upper bound of intra-burst tick gaps
    idle_gap: int               # upper bound of inter-burst idle spans
    addr_blocks: int
    write_frac: float
    kernel_frac: float
    wb_frac: float
    shrink_last_way_util: float = 0.002  # the controller's default

    def describe(self) -> str:
        return (
            f"seed={self.seed} {self.sets}s/{self.block_size}B clock={self.clock_hz:g} "
            f"epoch={self.epoch_ticks} user={self.user_tech}<= {self.max_user_ways}w "
            f"kernel={self.kernel_tech}<={self.max_kernel_ways}w "
            f"bursts={self.bursts}x{self.burst_len} idle<={self.idle_gap}"
        )


def sample_dynamic_case(seed: int) -> DynamicDiffCase:
    """Draw one dynamic-design configuration.

    Workloads are bursty with multi-epoch idle gaps — the shape the
    controller exists for — so idle gating, wake-on-first-access and
    regrowth all fire.  Technologies mix retention classes with SRAM
    (volatile gating: contents lost when a way powers off), and low
    clock rates pull the retention windows inside the trace span.

    Seeds from :data:`CLEAN_DYNAMIC_CASES_FROM` on shrink the footprint
    to a few blocks per set, so most sets stay *clean* (never evicted,
    see :class:`~repro.cache.fastsim.EpochReplaySegment`) for long
    stretches, and cycle through :data:`CLEAN_SCENARIOS`: ``overflow``
    (a footprint at the segments' start capacity: a few sets overflow
    mid-chunk), ``dirty-gate`` (idle gating over dirty clean frames),
    ``sram-gate`` (the same with SRAM, whose gates invalidate clean
    sets), ``decay`` (a slow clock: clean blocks decay between hits) and
    ``shrunk-rank`` (full start capacity the controller shrinks below
    some sets' footprints, so clean hits see ranks restricted to the
    powered ways).  Seeds from :data:`RUN_DYNAMIC_CASES_FROM` on cycle
    through the scenarios that end the epoch replay's runs: ``regrow``
    (eager grow and shrink thresholds around a three-block footprint, so
    the busy ways change again and again, with idle gates over dirty
    clean frames in between) and ``sram-idle`` (SRAM whose controller
    never decides, so each idle gate drops clean sets while the busy
    ways stay put).
    """
    rng = np.random.default_rng(seed ^ 0xD1FF)
    epoch_ticks = int(rng.choice([2_000, 5_000, 12_500, 25_000]))
    max_user = int(rng.integers(2, 11))
    max_kernel = int(rng.integers(2, 7))
    techs = ["short", "medium", "long", "sram"]
    case = DynamicDiffCase(
        seed=seed,
        sets=int(rng.choice([4, 16, 64])),
        block_size=int(rng.choice([32, 64])),
        clock_hz=float(rng.choice([1e5, 3e5, 1e6])),
        epoch_ticks=epoch_ticks,
        max_user_ways=max_user,
        max_kernel_ways=max_kernel,
        start_user_ways=int(rng.integers(1, max_user + 1)),
        start_kernel_ways=int(rng.integers(1, max_kernel + 1)),
        idle_accesses=int(rng.choice([0, 8, 24])),
        decision_accesses=int(rng.choice([40, 120, 300])),
        grow_step=int(rng.choice([1, 3])),
        user_tech=str(rng.choice(techs)),
        kernel_tech=str(rng.choice(techs)),
        bursts=int(rng.integers(4, 12)),
        burst_len=int(rng.integers(200, 900)),
        burst_gap=int(rng.choice([4, 16, 40])),
        idle_gap=int(epoch_ticks * float(rng.choice([0.5, 2.0, 6.0]))),
        addr_blocks=int(rng.integers(64, 2_048)),
        write_frac=float(rng.uniform(0.05, 0.6)),
        kernel_frac=float(rng.uniform(0.1, 0.7)),
        wb_frac=float(rng.uniform(0.0, 0.25)),
    )
    if seed < CLEAN_DYNAMIC_CASES_FROM:
        return case
    if seed >= RUN_DYNAMIC_CASES_FROM:
        scenario = _RUN_SCENARIOS[(seed - RUN_DYNAMIC_CASES_FROM) % len(_RUN_SCENARIOS)]
        return _run_case(case, scenario)
    scenario = CLEAN_SCENARIOS[(seed - CLEAN_DYNAMIC_CASES_FROM)
                               % (len(CLEAN_SCENARIOS) - len(_RUN_SCENARIOS))]
    if scenario == "overflow":
        # block b maps to set b % sets: a quarter of the sets get one
        # block more than the smaller start capacity
        start = min(case.start_user_ways, case.start_kernel_ways)
        return replace(case, user_tech="long", kernel_tech="long",
                       addr_blocks=case.sets * start + case.sets // 4)
    if scenario in ("dirty-gate", "sram-gate"):
        tech = "sram" if scenario == "sram-gate" else "medium"
        return replace(case, user_tech=tech, kernel_tech=tech, idle_accesses=24,
                       idle_gap=6 * epoch_ticks, addr_blocks=2 * case.sets, write_frac=0.5)
    if scenario == "decay":
        return replace(case, clock_hz=1e5, user_tech="short", kernel_tech="short",
                       sets=64, burst_gap=40, addr_blocks=128)
    # a controller eager to shrink takes the powered ways below the
    # three blocks every set holds
    return replace(case, user_tech="long", kernel_tech="long", start_user_ways=max_user,
                   start_kernel_ways=max_kernel, decision_accesses=40, burst_gap=4,
                   addr_blocks=3 * case.sets, shrink_last_way_util=0.5)


def _run_case(case: DynamicDiffCase, scenario: str) -> DynamicDiffCase:
    """``case`` reshaped for one of the scenarios that end runs."""
    bursty = dict(idle_accesses=24, idle_gap=3 * case.epoch_ticks, write_frac=0.5,
                  burst_gap=4, addr_blocks=3 * case.sets)
    if scenario == "regrow":
        # Three blocks per set: a controller eager to shrink drops below
        # them, the misses that follow grow it back, and so on.
        return replace(case, user_tech="long", kernel_tech="long",
                       start_user_ways=case.max_user_ways, max_user_ways=max(case.max_user_ways, 4),
                       start_kernel_ways=case.max_kernel_ways,
                       max_kernel_ways=max(case.max_kernel_ways, 4), decision_accesses=40,
                       grow_step=1, shrink_last_way_util=0.5, **bursty)
    # sram-idle: no epoch has enough accesses to decide, so the busy ways
    # stay at their start and every gate is an idle one
    return replace(case, user_tech="sram", kernel_tech="sram", decision_accesses=10**9,
                   start_user_ways=max(2, case.start_user_ways),
                   max_user_ways=max(2, case.max_user_ways),
                   start_kernel_ways=max(2, case.start_kernel_ways),
                   max_kernel_ways=max(2, case.max_kernel_ways), **bursty)


def _dynamic_stream(case: DynamicDiffCase):
    """Synthesize a bursty L2 stream for one case (deterministic)."""
    from repro.cache.hierarchy import L2Stream

    rng = np.random.default_rng(case.seed ^ 0xB0057)
    n = case.bursts * case.burst_len
    gaps = rng.integers(1, case.burst_gap + 1, size=n)
    # every burst boundary opens an idle span, often several epochs long
    starts = np.arange(0, n, case.burst_len)[1:]
    gaps[starts] += rng.integers(0, case.idle_gap + 1, size=len(starts))
    ticks = np.cumsum(gaps).astype(np.int64)
    blocks = rng.integers(0, case.addr_blocks, size=n).astype(np.uint64)
    offsets = rng.integers(0, case.block_size, size=n).astype(np.uint64)
    addrs = blocks * np.uint64(case.block_size) + offsets
    return L2Stream(
        name=f"dyn-diff-{case.seed}",
        ticks=ticks,
        addrs=addrs,
        privs=(rng.random(n) < case.kernel_frac).astype(np.uint8),
        writes=rng.random(n) < case.write_frac,
        demand=rng.random(n) >= case.wb_frac,
        instructions=n * 3,
        trace_accesses=n * 4,
        duration_ticks=int(ticks[-1]) + case.burst_gap + 1,
        l1i_stats=CacheStats(),
        l1d_stats=CacheStats(),
    )


def run_dynamic_case(case: DynamicDiffCase):
    """Run one case through both engines; returns (reference, fast)
    :class:`~repro.core.result.DesignResult` objects."""
    from repro.core.dynamic_partition import (
        DynamicControllerConfig,
        DynamicPartitionDesign,
    )
    from repro.energy.technology import sram, stt_ram

    def tech(name):
        return sram() if name == "sram" else stt_ram(name)

    config = DynamicControllerConfig(
        epoch_ticks=case.epoch_ticks,
        max_user_ways=case.max_user_ways,
        max_kernel_ways=case.max_kernel_ways,
        start_user_ways=case.start_user_ways,
        start_kernel_ways=case.start_kernel_ways,
        idle_accesses=case.idle_accesses,
        decision_accesses=case.decision_accesses,
        grow_step=case.grow_step,
        shrink_last_way_util=case.shrink_last_way_util,
    )
    design = DynamicPartitionDesign(
        config=config,
        user_tech=tech(case.user_tech),
        kernel_tech=tech(case.kernel_tech),
    )
    l2_ways = max(case.max_user_ways, case.max_kernel_ways)
    platform = PlatformConfig(
        l1i=CacheGeometry(32 * 1024, 4, case.block_size),
        l1d=CacheGeometry(32 * 1024, 4, case.block_size),
        l2=CacheGeometry(case.sets * l2_ways * case.block_size, l2_ways, case.block_size),
        clock_hz=case.clock_hz,
    )
    stream = _dynamic_stream(case)
    ref = design.run(stream, platform, engine="reference")
    fast = design.run(stream, platform, engine="fast")
    return ref, fast


def assert_dynamic_case_equal(case: DynamicDiffCase) -> None:
    """Raise ``AssertionError`` with a field-level diff on any mismatch."""
    ref, fast = run_dynamic_case(case)
    ref_d, fast_d = ref.to_dict(), fast.to_dict()
    assert ref_d["extras"].pop("sim_engine") == "reference"
    assert fast_d["extras"].pop("sim_engine") == "fastsim"
    if ref_d != fast_d:
        mismatches = [
            f"  {key}: reference={ref_d[key]!r} fast={fast_d[key]!r}"
            for key in ref_d
            if ref_d[key] != fast_d[key]
        ]
        raise AssertionError(
            "the epoch-chunked kernel diverged from the reference engine on "
            + case.describe() + "\n" + "\n".join(mismatches)
        )
