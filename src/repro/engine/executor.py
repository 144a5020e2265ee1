"""Multiprocess execution of job batches with store lookup and retry.

:func:`run_jobs` is the engine's front door: it answers a batch of
:class:`~repro.engine.spec.JobSpec` from the persistent store where it
can, fans the rest out over a :class:`~concurrent.futures.ProcessPoolExecutor`,
retries each failed job once, persists fresh results, and reports
progress after every completion.

The executor is *stream-aware*: jobs that differ only in design share
one L1-filtered L2 stream (see :attr:`JobSpec.stream_key`), so a batch
first ensures every unique stream exists in the persistent
:class:`~repro.engine.streamcache.StreamCache` — a parallel prebuild
wave of one task per missing stream, not per design — and then
schedules design jobs with *stream affinity*: at most ``jobs`` tasks
are in flight, and when a worker finishes a job the replacement task
is drawn from the same stream, so the worker's memory-mapped columns
stay hot.  Streams load through ``mmap`` and are therefore shared
page-cache-backed across all workers either way; affinity saves the
per-job bundle re-open and keeps each worker's per-process memo
effective.

Determinism: a job's result is a pure function of its spec (trace
generation, L1 filtering and every design are seeded and deterministic),
so the outcome of a batch is bit-identical whether it runs on 1 worker,
N workers, straight from the store, or from a cached stream.  Duplicate
specs in a batch are simulated once and share the result.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.config import PlatformConfig
from repro.core.designs import make_design
from repro.core.result import DesignResult
from repro.engine.spec import JobSpec
from repro.engine.store import ResultStore
from repro.engine.streamcache import default_stream_cache, load_stream

__all__ = ["JobOutcome", "BatchProgress", "run_jobs", "execute_spec"]


def _prebuild_stream(app: str, length: int, seed: int, platform: PlatformConfig) -> None:
    """Pool entry point of the prebuild wave: publish one stream bundle.

    Returns nothing so the built stream is never pickled back to the
    parent; the deliverable is the bundle on disk (and a warm memo in
    this worker).
    """
    load_stream(app, length, seed, platform)


def _prebuild_missing_streams(pool, specs: Sequence[JobSpec], fresh: dict) -> None:
    """First wave of a parallel batch: build absent streams, one task each.

    Without this, up to ``jobs`` workers would race to build the same
    stream on first touch; with it, the cold grid pays each unique
    front end exactly once process-wide.  A prebuild failure is not
    fatal here — the design job that needs the stream rebuilds it and
    surfaces the error through the normal retry path.
    """
    cache = default_stream_cache()
    if cache is None:
        return
    unique: dict[str, JobSpec] = {}
    for indices in fresh.values():
        spec = specs[indices[0]]
        unique.setdefault(spec.stream_key, spec)
    missing = [
        s for s in unique.values() if not cache.has(s.app, s.length, s.seed, s.platform)
    ]
    if not missing:
        return
    with obs.span("stream.prebuild", streams=len(missing)):
        futures = [
            pool.submit(_prebuild_stream, s.app, s.length, s.seed, s.platform)
            for s in missing
        ]
        for spec, future in zip(missing, futures):
            exc = future.exception()
            if exc is not None:
                obs.inc("streamcache.prebuild-error")
                obs.event("stream.prebuild-error", app=spec.app,
                          error=type(exc).__name__)


def execute_spec(spec: JobSpec) -> DesignResult:
    """Simulate one job from scratch (no store involved)."""
    with obs.span("job", label=spec.label(), design=spec.design, app=spec.app):
        stream = load_stream(spec.app, spec.length, spec.seed, spec.platform)
        design = make_design(spec.design, **spec.kwargs)
        return design.run(stream, spec.platform)


def _timed_execute(spec: JobSpec) -> tuple[DesignResult, float, float]:
    """Pool entry point: run one spec, measuring wall and CPU time.

    Both clocks are read *inside* the worker process, so the returned
    ``cpu_s`` is the job's own compute (not the parent's), and it ships
    back to the parent inside the future result / :class:`JobOutcome`.
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    result = execute_spec(spec)
    return result, time.perf_counter() - start, time.process_time() - cpu_start


@dataclass(frozen=True)
class JobOutcome:
    """How one spec of a batch was satisfied."""

    spec: JobSpec
    result: DesignResult
    cached: bool
    wall_s: float
    attempts: int
    cpu_s: float = 0.0


@dataclass(frozen=True)
class BatchProgress:
    """Snapshot passed to the progress callback after each completion.

    ``started_at`` is the batch's ``time.perf_counter()`` start, so a
    renderer can derive elapsed time, fresh-job throughput and an ETA at
    print time; ``last.wall_s`` / ``last.cpu_s`` carry the finished
    job's own measured durations.
    """

    total: int
    completed: int
    cached: int
    running: int
    last: JobOutcome
    started_at: float = 0.0

    @property
    def elapsed_s(self) -> float:
        """Seconds since the batch started (0.0 when not stamped)."""
        return time.perf_counter() - self.started_at if self.started_at else 0.0

    def render(self) -> str:
        """One status line, e.g.
        ``[ 7/32] dynamic-stt:game 12.3s (5 cached, 3 running) 0.5 job/s eta 6s``."""
        source = "store" if self.last.cached else f"{self.last.wall_s:.1f}s"
        line = (
            f"[{self.completed:>{len(str(self.total))}}/{self.total}] "
            f"{self.last.spec.label()} {source} ({self.cached} cached, "
            f"{self.running} running)"
        )
        fresh_done = self.completed - self.cached
        elapsed = self.elapsed_s
        if fresh_done > 0 and elapsed > 0:
            rate = fresh_done / elapsed
            line += f" {rate:.1f} job/s"
            if self.running:
                line += f" eta {self.running / rate:.0f}s"
        return line


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
    retries: int = 1,
) -> list[JobOutcome]:
    """Execute a batch of specs, returning outcomes in input order.

    Args:
        specs: Jobs to satisfy (duplicates are computed once).
        jobs: Worker processes; 1 runs everything in-process.
        store: Persistent store consulted before and updated after each
            simulation; None disables persistence.
        progress: Called after every job completes (cached jobs first).
        retries: Extra attempts per failed job (transient failures —
            e.g. a worker killed by the OOM reaper — get one more shot
            by default).  The last failure propagates.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    with obs.span("batch", total=len(specs), jobs=jobs):
        outcomes = _run_batch(specs, jobs, store, progress, retries)
    if store is not None:
        store.flush_counters()
    obs.recorder().metrics()
    return outcomes


def _run_batch(
    specs: Sequence[JobSpec],
    jobs: int,
    store: ResultStore | None,
    progress: Callable[[BatchProgress], None] | None,
    retries: int,
) -> list[JobOutcome]:
    outcomes: list[JobOutcome | None] = [None] * len(specs)
    total = len(specs)
    cached_count = 0
    completed = 0
    started_at = time.perf_counter()

    # Serve what the store already has, and dedupe the rest by key.
    fresh: dict[str, list[int]] = {}
    with obs.span("store.lookup", specs=len(specs)):
        for i, spec in enumerate(specs):
            result = store.get(spec) if store is not None else None
            if result is not None:
                outcomes[i] = JobOutcome(spec, result, cached=True, wall_s=0.0, attempts=0)
                cached_count += 1
            else:
                fresh.setdefault(spec.content_key, []).append(i)
    obs.inc("engine.job.cached", cached_count)
    pending = len(fresh)
    for outcome in outcomes:
        if outcome is not None:
            completed += 1
            obs.event("job.cached", label=outcome.spec.label())
            if progress is not None:
                progress(BatchProgress(total, completed, cached_count, pending,
                                       outcome, started_at))

    def finish(indices: list[int], result: DesignResult, wall_s: float,
               cpu_s: float, attempts: int) -> None:
        nonlocal completed
        if store is not None:
            with obs.span("store.write"):
                store.put(specs[indices[0]], result)
        for i in indices:
            outcomes[i] = JobOutcome(specs[i], result, cached=False,
                                     wall_s=wall_s, attempts=attempts, cpu_s=cpu_s)
        completed += len(indices)
        obs.inc("engine.job.fresh")
        obs.observe("engine.job", wall_s)
        obs.event("job.done", label=specs[indices[0]].label(), wall_s=wall_s,
                  cpu_s=cpu_s, attempts=attempts,
                  sim_engine=result.extras.get("sim_engine"))

    if jobs == 1 or pending <= 1:
        remaining = pending
        # Stream-major order: consecutive jobs share a stream, so the
        # in-process memo (`load_stream`) stays hot even when the
        # batch spans more unique streams than the memo holds.
        for key, indices in sorted(fresh.items(),
                                   key=lambda kv: specs[kv[1][0]].stream_key):
            result, wall_s, cpu_s, attempts = _run_with_retry(
                _timed_execute, specs[indices[0]], retries
            )
            finish(indices, result, wall_s, cpu_s, attempts)
            remaining -= 1
            if progress is not None:
                progress(BatchProgress(total, completed, cached_count,
                                       remaining, outcomes[indices[0]], started_at))
        return [o for o in outcomes if o is not None]

    with ProcessPoolExecutor(max_workers=min(jobs, pending)) as pool:
        _prebuild_missing_streams(pool, specs, fresh)
        attempts_left = {key: 1 + retries for key in fresh}
        attempt_no = {key: 0 for key in fresh}

        # Stream-affinity scheduling: keep at most `jobs` tasks in
        # flight, drawn from per-stream queues.  When a worker finishes
        # a job it is the pool's only idle worker, so the single task
        # submitted next — preferring the finished job's stream — lands
        # on it with its mmap and memo already warm.  Initial tasks
        # round-robin across streams so workers start on distinct ones.
        queues: dict[str, deque[str]] = {}
        for key, indices in fresh.items():
            queues.setdefault(specs[indices[0]].stream_key, deque()).append(key)
        stream_order = deque(queues)
        futures = {}

        def submit(preferred: str | None = None, key: str | None = None) -> None:
            if key is None:
                if preferred is None or not queues.get(preferred):
                    while stream_order and not queues[stream_order[0]]:
                        stream_order.popleft()
                    if not stream_order:
                        return
                    preferred = stream_order[0]
                    stream_order.rotate(-1)
                key = queues[preferred].popleft()
            attempt_no[key] += 1
            futures[pool.submit(_timed_execute, specs[fresh[key][0]])] = key

        for _ in range(min(jobs, pending)):
            submit()
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                key = futures.pop(future)
                indices = fresh[key]
                try:
                    result, wall_s, cpu_s = future.result()
                except Exception as exc:
                    attempts_left[key] -= 1
                    if attempts_left[key] <= 0:
                        for other in futures:
                            other.cancel()
                        raise
                    obs.inc("engine.job.retry")
                    obs.event("job.retry", label=specs[indices[0]].label(),
                              attempt=attempt_no[key] + 1, error=type(exc).__name__)
                    submit(key=key)
                    continue
                finish(indices, result, wall_s, cpu_s, attempt_no[key])
                submit(preferred=specs[indices[0]].stream_key)
                if progress is not None:
                    progress(BatchProgress(total, completed, cached_count,
                                           len(futures) + sum(map(len, queues.values())),
                                           outcomes[indices[0]], started_at))
    return [o for o in outcomes if o is not None]


def _run_with_retry(fn, spec: JobSpec, retries: int):
    """In-process execute with the same retry budget as the pool path."""
    attempts = 0
    while True:
        attempts += 1
        try:
            result, wall_s, cpu_s = fn(spec)
            return result, wall_s, cpu_s, attempts
        except Exception as exc:
            if attempts > retries:
                raise
            obs.inc("engine.job.retry")
            obs.event("job.retry", label=spec.label(), attempt=attempts,
                      error=type(exc).__name__)
