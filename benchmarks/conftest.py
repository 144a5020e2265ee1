"""Benchmark-session configuration.

Each bench regenerates one table or figure of the paper at full
experiment scale and prints the artifact.  Benches declare their
simulations as :class:`~repro.engine.spec.JobSpec` batches resolved by
:func:`repro.experiments.run_specs`, so the engine's persistent result
store (:mod:`repro.engine.store`) shares every addressable result
within and *across* sessions — a spec any bench or figure already ran
is read from disk instead of re-simulated.  Designs that need
non-scalar run arguments (a DRAM model, a prefetcher, technology or
controller objects) replay a stream from
:func:`~repro.engine.streamcache.load_stream` directly; the stream
cache shares those front ends the same way.

Set ``REPRO_BENCH_LENGTH`` to shrink the per-app trace length for a
faster (less converged) pass.  Set ``REPRO_BENCH_COLD=1`` to disable
the persistent store for the session, so wall-clock numbers measure
real simulation instead of store reads.
"""

from __future__ import annotations

import os

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
