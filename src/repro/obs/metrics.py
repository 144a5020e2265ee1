"""Process-local metrics: named counters.

The registry is always on.  Instrumentation points touch plain dict
entries at *coarse* granularity — once per dispatch decision, per store
lookup, per simulated job — never inside a per-access replay loop, so
the steady-state cost is a handful of dict operations per job.  Writing
anything to disk is a separate concern: when tracing is enabled the
JSONL recorder (:mod:`repro.obs.trace`) snapshots the registry into the
run log; when it is not, the numbers simply accumulate in memory where
tests and the CLI can read them.

Counter naming convention: dot-separated ``layer.subject.detail``
(``pipeline.dispatch.fastsim``, ``store.hit``,
``pipeline.fallback.kill-switch``) so prefix filters stay trivial.
"""

from __future__ import annotations

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "inc",
    "snapshot",
]


class MetricsRegistry:
    """Counters for one process."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def snapshot(self) -> dict:
        """JSON-ready copy of everything currently recorded."""
        return {"counters": dict(self.counters)}

    def reset(self) -> None:
        """Drop all recorded values (tests and long-lived processes)."""
        self.counters.clear()


#: The process-wide registry every instrumentation point writes to.
REGISTRY = MetricsRegistry()

inc = REGISTRY.inc
snapshot = REGISTRY.snapshot
