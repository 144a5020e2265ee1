"""Simulator throughput — accesses per second of the core engine.

The one bench where wall-clock time is the result itself.  Regressions
here make every experiment slower, so it is tracked with real
pytest-benchmark rounds (the engine is deterministic and side-effect
free across rounds because each round builds a fresh cache).

Two engines are measured against the same workload: the per-access
reference engine (:class:`~repro.cache.set_assoc.SetAssociativeCache`)
and the vectorized fast-path kernel
(:func:`~repro.cache.fastsim.simulate_trace`); the speedup test also
asserts the two produce bit-identical counters, and that the kernel
clears its >= 5x performance contract (see ``docs/performance.md``).
A third differential bench does the same for the dynamic partition
design, whose epoch-chunked kernel carries a >= 3x end-to-end contract
on the canonical ``dynamic-stt`` workload.
"""

import time

import numpy as np
from conftest import timed
from repro import obs
from repro.cache.fastsim import simulate_trace
from repro.cache.hierarchy import l1_filter
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import CacheGeometry, PlatformConfig
from repro.core.designs import make_design
from repro.core.dynamic_partition import DynamicPartitionDesign
from repro.obs.trace import NULL_SPAN
from repro.trace.workloads import suite_trace

N_ACCESSES = 50_000

GEOMETRY = CacheGeometry(256 * 1024, 8)

#: The fast kernel must beat the reference engine by at least this factor
#: on the canonical LRU/no-retention workload (the PR's acceptance bar).
MIN_SPEEDUP = 5.0

#: The epoch-chunked kernel must beat the reference engine by at least
#: this factor end to end on the canonical ``dynamic-stt`` workload
#: (design construction, controller steps and result assembly included).
DYNAMIC_MIN_SPEEDUP = 3.0

#: Disabled observability instrumentation (the no-op recorder plus the
#: always-on counters) may cost at most this fraction of a canonical
#: job's wall time (see ``docs/observability.md``).
OBS_OVERHEAD_BUDGET = 0.02

#: The canonical dynamic-stt workload: the browser app's L2 stream —
#: bursty and interaction-driven, the trace shape the dynamic design
#: is built for (idle gating between bursts, regrowth inside them).
DYNAMIC_APP = "browser"
DYNAMIC_TRACE_LEN = 200_000


def _make_workload():
    rng = np.random.default_rng(42)
    addrs = (rng.integers(0, 1 << 14, size=N_ACCESSES) * 64).astype(np.uint64)
    writes = rng.integers(0, 2, size=N_ACCESSES) == 1
    privs = rng.integers(0, 2, size=N_ACCESSES).astype(np.uint8)
    ticks = np.arange(N_ACCESSES, dtype=np.int64)
    return ticks, addrs, privs, writes


def _run_reference(addrs, writes, privs):
    cache = SetAssociativeCache(GEOMETRY, "lru")
    access = cache.access
    for tick, (addr, is_write, priv) in enumerate(zip(addrs, writes, privs)):
        access(addr, is_write, priv, tick)
    return cache.stats


def _run_fast(ticks, addrs, privs, writes):
    stats, _ = simulate_trace(GEOMETRY, ticks, addrs, privs, writes)
    return stats


def test_engine_throughput(benchmark):
    _, addrs, privs, writes = _make_workload()
    addrs, writes, privs = addrs.tolist(), writes.tolist(), privs.tolist()
    stats, seconds = timed(benchmark, lambda: benchmark(_run_reference, addrs, writes, privs))
    assert stats.misses > 0
    rate = N_ACCESSES / seconds
    print(f"\nengine throughput: {rate / 1e6:.2f} M accesses/s")


def test_fastsim_throughput(benchmark):
    ticks, addrs, privs, writes = _make_workload()
    stats, seconds = timed(benchmark, lambda: benchmark(_run_fast, ticks, addrs, privs, writes))
    assert stats.misses > 0
    rate = N_ACCESSES / seconds
    print(f"\nfastsim throughput: {rate / 1e6:.2f} M accesses/s")


def test_fastsim_speedup(benchmark):
    """Differential throughput: same workload through both engines.

    The fast kernel is timed with real benchmark rounds; the reference
    engine (too slow for many rounds) gets a best-of-3 wall-clock
    measurement.  Best-of is the low-noise statistic on both sides, so
    the asserted ratio is stable across machines.
    """
    ticks, addrs, privs, writes = _make_workload()
    fast_stats, fast_best = timed(
        benchmark, lambda: benchmark(_run_fast, ticks, addrs, privs, writes), "min")

    ref_addrs, ref_writes, ref_privs = addrs.tolist(), writes.tolist(), privs.tolist()
    ref_best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        ref_stats = _run_reference(ref_addrs, ref_writes, ref_privs)
        ref_best = min(ref_best, time.perf_counter() - t0)

    assert ref_stats == fast_stats

    speedup = ref_best / fast_best
    print(
        f"\nreference {N_ACCESSES / ref_best / 1e6:.2f} M accesses/s, "
        f"fastsim {N_ACCESSES / fast_best / 1e6:.2f} M accesses/s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fast kernel speedup {speedup:.2f}x below the {MIN_SPEEDUP:.0f}x contract"
    )


def test_dynamic_fast_path_speedup(benchmark):
    """Differential throughput of the dynamic design's two engines.

    Runs the full ``DynamicPartitionDesign.run`` (epoch-chunked kernel
    vs the per-access reference loop) on the canonical dynamic-stt
    workload, asserts the two results are bit-identical apart from the
    ``sim_engine`` tag, and that the fast path clears its >= 3x
    end-to-end contract (see ``docs/performance.md``).
    """
    platform = PlatformConfig()
    trace = suite_trace(DYNAMIC_APP, length=DYNAMIC_TRACE_LEN, seed=7)
    stream = l1_filter(trace, platform)
    design = DynamicPartitionDesign()

    fast_result, fast_best = timed(
        benchmark, lambda: benchmark(design.run, stream, platform, "fast"), "min")

    ref_best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        ref_result = design.run(stream, platform, engine="reference")
        ref_best = min(ref_best, time.perf_counter() - t0)

    fast_dict, ref_dict = fast_result.to_dict(), ref_result.to_dict()
    assert fast_dict["extras"].pop("sim_engine") == "fastsim"
    assert ref_dict["extras"].pop("sim_engine") == "reference"
    assert fast_dict == ref_dict

    speedup = ref_best / fast_best
    n = len(stream.ticks)
    print(
        f"\ndynamic-stt: reference {n / ref_best / 1e6:.2f} M accesses/s, "
        f"fast path {n / fast_best / 1e6:.2f} M accesses/s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= DYNAMIC_MIN_SPEEDUP, (
        f"dynamic fast path speedup {speedup:.2f}x below the "
        f"{DYNAMIC_MIN_SPEEDUP:.0f}x contract"
    )


class _CountingRecorder:
    """Tallies span/event call sites without recording anything."""

    enabled = False

    def __init__(self):
        self.spans = 0
        self.events = 0

    def span(self, name, **attrs):
        self.spans += 1
        return NULL_SPAN

    def event(self, name, **attrs):
        self.events += 1

    def emit(self, payload):
        pass

    def metrics(self, registry=None):
        pass

    def close(self):
        pass


def test_obs_disabled_overhead(benchmark):
    """Disabled instrumentation must stay under its 2% budget.

    Strategy: count how many instrumentation calls (no-op spans, events
    and counter increments) one canonical job actually makes,
    price a single disabled operation with a tight micro-benchmark, and
    assert that the product is below ``OBS_OVERHEAD_BUDGET`` of the
    job's measured wall time.  This bounds the overhead far more
    stably than differencing two noisy end-to-end timings.
    """
    platform = PlatformConfig()
    trace = suite_trace("browser", length=60_000, seed=11)

    def job():
        stream = l1_filter(trace, platform)
        return make_design("baseline").run(stream, platform)

    # 1. Count the instrumentation calls of one job.  A counter's value
    #    is not its number of calls (``obs.inc(name, rows)`` adds a row
    #    count in one call), so ``obs.inc`` is wrapped to count calls.
    counting = _CountingRecorder()
    previous = obs.set_recorder(counting)
    inc = obs.inc
    n_incs = 0

    def counted_inc(name, value=1):
        nonlocal n_incs
        n_incs += 1
        inc(name, value)

    obs.inc = counted_inc
    try:
        job()
    finally:
        obs.inc = inc
        obs.set_recorder(previous)
    n_spans = counting.spans + counting.events
    assert n_spans > 0, "the job is expected to hit instrumented code"

    # 2. Price one disabled span (enter/exit) and one counter increment.
    n = 20_000
    t0 = time.perf_counter()
    for _ in range(n):
        with obs.span("bench", probe=1):
            pass
    span_cost = (time.perf_counter() - t0) / n
    t0 = time.perf_counter()
    for _ in range(n):
        obs.inc("bench.probe")
    inc_cost = (time.perf_counter() - t0) / n

    # 3. The job's wall time with instrumentation disabled (as shipped).
    _, job_wall = timed(benchmark, lambda: benchmark(job), "min")

    overhead_s = n_spans * span_cost + n_incs * inc_cost
    overhead = overhead_s / job_wall
    print(
        f"\nobs disabled overhead: {n_spans} spans x {span_cost * 1e9:.0f} ns + "
        f"{n_incs} counter incs x {inc_cost * 1e9:.0f} ns = {overhead_s * 1e6:.1f} us "
        f"of a {job_wall * 1e3:.1f} ms job ({overhead:.4%})"
    )
    assert overhead < OBS_OVERHEAD_BUDGET, (
        f"disabled instrumentation overhead {overhead:.2%} exceeds the "
        f"{OBS_OVERHEAD_BUDGET:.0%} budget"
    )
