"""Engine scaling — sweep throughput at 1 vs N workers, cold vs warm streams.

Runs the same (design x app) batch through :func:`repro.engine.run_jobs`
serially and with a process pool, both with the persistent store
disabled so every job pays for real simulation.  On a multi-core box the
pool run should approach ``min(N, cores)`` speedup (each job is an
independent simulation); on a single core it documents the fan-out
overhead instead.  Like :mod:`bench_sim_throughput`, wall-clock time is
the result itself, and ``REPRO_BENCH_LENGTH`` shrinks the traces for a
faster pass.

The stream-cache benches measure the front-end contract of
`repro.engine.streamcache` on the canonical (design x app) grid:

* a **cold** sweep (empty caches) must build each unique stream exactly
  once process-wide — asserted via the ``streamcache.build`` obs counter
  in-process and the persisted ``stream_counters.json`` writes across a
  worker pool;
* a **warm-stream, cold-result** sweep (streams on disk, every design
  re-simulated) must run >= 2x faster than the cold sweep, because the
  mmap load replaces the dominant ``trace.generate`` + ``l1.filter``
  front-end cost.
"""

import contextlib
import os
import shutil
import tempfile
import time

import pytest
from conftest import run_once, timed
from repro.core.designs import DESIGN_NAMES
from repro.engine import JobSpec, StreamCache, run_jobs
from repro.engine.streamcache import load_stream
from repro.obs.metrics import REGISTRY
from repro.trace.workloads import APP_NAMES

DESIGNS = ("baseline", "static-stt")
APPS = ("browser", "game", "social", "music")

#: Pool width for the parallel measurement (env-overridable).
N_WORKERS = int(os.environ.get("REPRO_BENCH_ENGINE_WORKERS",
                               str(min(4, os.cpu_count() or 1))))


def _grid(length):
    # a fraction of the canonical length keeps the serial pass tractable
    per_job = max(60_000, length // 6)
    return [JobSpec(d, a, length=per_job) for d in DESIGNS for a in APPS]


def _run(specs, jobs):
    outcomes = run_jobs(specs, jobs=jobs, store=None)
    assert all(not o.cached for o in outcomes)
    return sum(o.result.l2_stats.accesses for o in outcomes)


def _report(seconds, specs, label):
    total_accesses = specs[0].length * len(specs)
    rate = total_accesses / seconds
    print(f"\nengine sweep throughput ({label}): "
          f"{rate / 1e6:.2f} M trace accesses/s over {len(specs)} jobs")


def test_engine_scaling_serial(benchmark, bench_length):
    specs = _grid(bench_length)
    accesses, seconds = timed(benchmark, lambda: run_once(benchmark, _run, specs, 1))
    assert accesses > 0
    _report(seconds, specs, "1 worker")


def test_engine_scaling_parallel(benchmark, bench_length):
    specs = _grid(bench_length)
    accesses, seconds = timed(benchmark, lambda: run_once(benchmark, _run, specs, N_WORKERS))
    assert accesses > 0
    _report(seconds, specs, f"{N_WORKERS} workers")


# --- stream cache: cold vs warm front end ---------------------------------


@contextlib.contextmanager
def _empty_cache_dir():
    """Point the caches at a fresh directory and drop in-process memos."""
    if os.environ.get("REPRO_CACHE_DISABLE"):
        pytest.skip("stream cache disabled (REPRO_CACHE_DISABLE/REPRO_BENCH_COLD)")
    saved = os.environ.get("REPRO_CACHE_DIR")
    root = tempfile.mkdtemp(prefix="repro-streambench-")
    os.environ["REPRO_CACHE_DIR"] = root
    load_stream.cache_clear()
    try:
        yield root
    finally:
        load_stream.cache_clear()
        shutil.rmtree(root, ignore_errors=True)
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved


def _canonical_grid(length):
    per_job = max(60_000, length // 6)
    return [JobSpec(d, a, length=per_job) for d in DESIGN_NAMES for a in APP_NAMES]


def test_stream_cache_cold_vs_warm(benchmark, bench_length):
    """Warm-stream cold-result sweep must beat the cold sweep >= 2x."""
    specs = _canonical_grid(bench_length)
    unique_streams = len({s.stream_key for s in specs})
    with _empty_cache_dir() as root:
        builds_before = REGISTRY.counters.get("streamcache.build", 0)
        t0 = time.perf_counter()
        _run(specs, 1)
        cold_s = time.perf_counter() - t0
        builds = REGISTRY.counters.get("streamcache.build", 0) - builds_before
        assert builds == unique_streams, (
            f"cold sweep built {builds} streams, expected {unique_streams}"
        )
        persisted = StreamCache(root).counters()
        assert persisted["writes"] == unique_streams
        assert StreamCache(root).stats().entries == unique_streams

        # drop the in-process memo so the warm run pays real mmap loads
        load_stream.cache_clear()
        hits_before = REGISTRY.counters.get("streamcache.hit", 0)
        _, warm_s = timed(benchmark, lambda: run_once(benchmark, _run, specs, 1))
        builds_warm = REGISTRY.counters.get("streamcache.build", 0) - builds_before
        assert builds_warm == unique_streams, "warm sweep must not rebuild streams"
        assert REGISTRY.counters.get("streamcache.hit", 0) - hits_before == unique_streams

    speedup = cold_s / warm_s if warm_s else float("inf")
    print(f"\nstream cache: cold {cold_s:.2f}s, warm-stream {warm_s:.2f}s "
          f"({speedup:.1f}x, {unique_streams} streams, {len(specs)} jobs)")
    assert cold_s >= 2.0 * warm_s, (
        f"warm-stream sweep only {speedup:.2f}x faster than cold (need >= 2x)"
    )


def test_stream_built_once_across_pool(benchmark, bench_length):
    """A parallel cold grid builds each stream exactly once process-wide."""
    per_job = max(40_000, bench_length // 12)
    specs = [JobSpec(d, a, length=per_job) for d in DESIGN_NAMES for a in APP_NAMES]
    unique_streams = len({s.stream_key for s in specs})
    with _empty_cache_dir() as root:
        run_once(benchmark, _run, specs, N_WORKERS)
        persisted = StreamCache(root).counters()
        stats = StreamCache(root).stats()
    # the prebuild wave publishes one bundle per unique stream; design
    # jobs then map them (every miss became exactly one build + write).
    # Cross-worker mmap hits depend on how affinity distributes streams,
    # so they are reported, not asserted.
    assert stats.entries == unique_streams
    assert persisted["writes"] == unique_streams, persisted
    assert persisted["misses"] == unique_streams, persisted
    print(f"\nstream cache parallel: {unique_streams} streams built once across "
          f"{N_WORKERS} workers ({persisted['hits']} mmap hits)")
