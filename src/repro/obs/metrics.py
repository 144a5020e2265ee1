"""Process-local metrics: counters and timers.

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

from dataclasses import dataclass

__all__ = [
    "MetricsRegistry",
    "TimerStat",
    "REGISTRY",
    "inc",
    "observe",
    "snapshot",
]


@dataclass
class TimerStat:
    """Aggregate of one named duration series."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class MetricsRegistry:
    """Counters and timers for one process."""

    __slots__ = ("counters", "timers")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, TimerStat] = {}

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration into timer ``name``."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.add(seconds)

    def snapshot(self) -> dict:
        """JSON-ready copy of everything currently recorded."""
        return {
            "counters": dict(self.counters),
            "timers": {name: stat.to_dict() for name, stat in self.timers.items()},
        }

    def reset(self) -> None:
        """Drop all recorded values (tests and long-lived processes)."""
        self.counters.clear()
        self.timers.clear()


#: The process-wide registry every instrumentation point writes to.
REGISTRY = MetricsRegistry()

inc = REGISTRY.inc
observe = REGISTRY.observe
snapshot = REGISTRY.snapshot
