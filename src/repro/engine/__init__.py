"""Execution engine: parallel, disk-cached simulation of design/app grids.

The engine is the subsystem every experiment funnels through.  It has
four layers, each a module:

* :mod:`repro.engine.spec` — :class:`JobSpec`, a frozen description of
  one simulation (design + kwargs, app, length, seed, platform) with a
  stable content key.
* :mod:`repro.engine.store` — :class:`ResultStore`, a content-addressed
  on-disk cache of :class:`~repro.core.result.DesignResult` payloads
  (atomic writes, corruption-tolerant reads).
* :mod:`repro.engine.streamcache` — :class:`StreamCache`, a
  content-addressed on-disk cache of L1-filtered
  :class:`~repro.cache.hierarchy.L2Stream` bundles, memory-mapped
  zero-copy into every consumer so the trace front end runs once per
  machine instead of once per process.
* :mod:`repro.engine.executor` — :func:`run_jobs`, multiprocess fan-out
  of a batch of specs with store lookup, stream prebuild + affinity
  scheduling, retry and progress reporting.
* :mod:`repro.engine.sweep` — :func:`run_sweep`, the design x app x seed
  grid convenience used by ``repro sweep``.

Results are deterministic regardless of worker count: a job's output
depends only on its spec, so parallel and serial runs are bit-identical.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "EXPERIMENT_TRACE_LENGTH": "spec",
    "JobSpec": "spec",
    "ResultStore": "store",
    "default_store": "store",
    "StreamCache": "streamcache",
    "default_stream_cache": "streamcache",
    "BatchProgress": "executor",
    "JobOutcome": "executor",
    "run_jobs": "executor",
    "SweepResult": "sweep",
    "run_sweep": "sweep",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
