"""Observability: metrics, span tracing and run-log analysis.

The subsystem has three modules:

* :mod:`repro.obs.metrics` — the always-on process-local registry of
  counters (cheap dict writes at per-job granularity).
* :mod:`repro.obs.trace` — span-based tracing behind an opt-in JSONL
  recorder (``REPRO_TRACE=path`` or :func:`configure`); disabled, every
  instrumentation point is a no-op that allocates nothing.
* :mod:`repro.obs.summary` — loads a run log and renders the
  where-did-the-time-go attribution (``repro obs summary``).

The instrumentation verbs most call sites need — ``span``, ``event``,
``inc`` — are re-exported here, so instrumented modules just
``from repro import obs`` and call ``obs.span("replay", ...)``.

Guarantees: simulation results are bit-identical with tracing on or
off (instrumentation only observes), and the disabled path is covered
by an overhead budget asserted in ``benchmarks/bench_sim_throughput.py``.
"""

from repro.obs.metrics import REGISTRY, MetricsRegistry, inc, snapshot
from repro.obs.trace import (
    NULL_RECORDER,
    TRACE_ENV,
    JsonlRecorder,
    NullRecorder,
    configure,
    event,
    recorder,
    set_recorder,
    span,
    validate_event,
)

__all__ = [
    "REGISTRY",
    "MetricsRegistry",
    "inc",
    "snapshot",
    "NULL_RECORDER",
    "TRACE_ENV",
    "JsonlRecorder",
    "NullRecorder",
    "configure",
    "event",
    "recorder",
    "set_recorder",
    "span",
    "validate_event",
]
