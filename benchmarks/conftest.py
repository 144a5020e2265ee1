"""Benchmark-session configuration.

Each bench regenerates one table or figure of the paper at full
experiment scale and prints the artifact.  Benches declare their
simulations as :class:`~repro.engine.spec.JobSpec` batches resolved by
:func:`repro.experiments.run_specs`, so the engine's persistent result
store (:mod:`repro.engine.store`) shares every addressable result
within and *across* sessions — a spec any bench or figure already ran
is read from disk instead of re-simulated.  Technology and controller
variants are specs too: a design kwarg may be any frozen dataclass of
JSON scalars (``user_tech=sram()``,
``config=DynamicControllerConfig(epoch_ticks=...)``), and so are the
banked DRAM model and prefetchers (``dram=DRAMConfig()``,
``prefetch="nextline"``).  Only the multicore and app-switching benches
run designs on streams from
:func:`~repro.engine.streamcache.load_stream` directly, because their
streams are not suite streams; the throughput bench does too, as replay
speed is what it measures.  The stream cache shares those front ends
the same way.

Set ``REPRO_BENCH_LENGTH`` to shrink the per-app trace length for a
faster (less converged) pass.  The paper-shape assertions describe
converged traces: of the lengths 120k, 240k, 360k, 480k, 600k and 720k,
every bench passes at 600k and 720k.  At 480k the app-switching bench
fails (its per-app traces are 120k accesses at any length up to 480k);
at 120k six benches fail, the 1 MB L2 having barely filled.

Set ``REPRO_BENCH_COLD=1`` to disable the persistent store for the
session, so wall-clock numbers measure real simulation instead of store
reads.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH


def pytest_configure(config):
    """Honour ``REPRO_BENCH_COLD`` before any bench touches the store."""
    if os.environ.get("REPRO_BENCH_COLD"):
        os.environ["REPRO_CACHE_DISABLE"] = "1"


@pytest.fixture(scope="session")
def bench_length() -> int:
    """Trace length used by every bench (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_LENGTH", EXPERIMENT_TRACE_LENGTH))


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    The experiments are deterministic end-to-end, so repeated rounds
    would only re-measure the memoisation cache.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def timed(benchmark, run, stat="mean"):
    """``run()``, which calls ``benchmark``, and the seconds it measured.

    The seconds are ``benchmark.stats[stat]`` over the benchmark's rounds.
    With timing off (``--benchmark-disable``) pytest-benchmark calls the
    function once and leaves ``stats`` unset; the seconds are then that
    call's ``perf_counter`` time, so every assertion on them still runs.
    """
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    return result, elapsed if benchmark.stats is None else benchmark.stats[stat]
