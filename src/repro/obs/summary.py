"""Run-log analysis: load a JSONL trace and report where the time went.

``repro obs summary run.jsonl`` renders, from one run log:

* a per-phase table — for every span name, how often it ran, total,
  exclusive ("self": minus the spans nested in it) and mean duration,
  and its share of the batch wall time (shares can exceed 100% in
  multiprocess runs: attribution sums busy time across workers);
* the measured batch wall time and the *span coverage* — the fraction of
  the batch interval covered by the union of all non-batch spans.  Low
  coverage means time is going somewhere uninstrumented;
* every counter recorded in the log's ``metrics`` snapshots (engine
  dispatch decisions, store hit/miss/write/corruption tallies, ...).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import validate_event

__all__ = ["PhaseStat", "RunLog", "RunSummary", "load_run", "summarize"]


@dataclass(frozen=True)
class RunLog:
    """One parsed, validated JSONL run log."""

    path: Path
    events: tuple[dict, ...]

    def spans(self) -> list[dict]:
        return [e for e in self.events if e["type"] == "span"]

    def metrics_events(self) -> list[dict]:
        return [e for e in self.events if e["type"] == "metrics"]


def load_run(path) -> RunLog:
    """Parse and validate every line of a run log.

    Raises ``ValueError`` (with the line number) on undecodable JSON or
    an event that fails schema validation — a log the summary cannot
    trust is an error, not a partial report.
    """
    path = Path(path)
    events = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(validate_event(json.loads(line)))
            except (json.JSONDecodeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: invalid run-log line: {exc}") from exc
    return RunLog(path=path, events=tuple(events))


@dataclass
class PhaseStat:
    """Aggregated timing of one span name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    covered = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        covered += t1 - max(t0, end)
        end = t1
    return covered


def _self_times(spans: list[dict]) -> list[float]:
    """Exclusive time of each span: its duration minus the durations of
    the spans directly nested in it (same pid, inside its ``t0``..``t1``)."""
    self_s = [sp["dur_s"] for sp in spans]
    by_pid: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        by_pid.setdefault(sp["pid"], []).append(i)
    for order in by_pid.values():
        order.sort(key=lambda i: (spans[i]["t0"], -spans[i]["t1"]))
        stack: list[int] = []
        for i in order:
            while stack and spans[stack[-1]]["t1"] < spans[i]["t1"]:
                stack.pop()
            if stack:
                self_s[stack[-1]] -= spans[i]["dur_s"]
            stack.append(i)
    return self_s


@dataclass
class RunSummary:
    """Everything ``repro obs summary`` renders."""

    phases: list[PhaseStat] = field(default_factory=list)
    batch_wall_s: float = 0.0
    coverage: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    n_events: int = 0

    def phase(self, name: str) -> PhaseStat | None:
        for stat in self.phases:
            if stat.name == name:
                return stat
        return None

    def render(self) -> str:
        from repro.report import format_table

        rows = []
        for stat in sorted(self.phases, key=lambda s: -s.total_s):
            share = stat.total_s / self.batch_wall_s if self.batch_wall_s else 0.0
            rows.append([
                stat.name,
                str(stat.count),
                f"{stat.total_s:8.3f}",
                f"{stat.self_s:8.3f}",
                f"{stat.mean_s * 1e3:9.2f}",
                f"{share:7.1%}",
            ])
        table = format_table(
            "where the time went",
            ["phase", "count", "total s", "self s", "mean ms", "of batch"],
            rows,
            align_left_cols=1,
        )
        lines = [
            table,
            f"batch wall {self.batch_wall_s:.3f}s; span coverage "
            f"{self.coverage:.1%} ({self.n_events} events)",
        ]
        if self.counters:
            counter_rows = [[name, f"{value:,}"] for name, value in sorted(self.counters.items())]
            lines.append("")
            lines.append(format_table("counters", ["name", "value"], counter_rows,
                                      align_left_cols=1))
        return "\n".join(lines)


def summarize(run: RunLog) -> RunSummary:
    """Aggregate a run log into the per-phase attribution summary.

    The batch interval is the longest ``batch`` span when one exists
    (the normal case for ``repro sweep``), otherwise the epoch extent of
    all spans.  Coverage is the union of every *other* span clipped to
    that interval — nesting and cross-process overlap collapse to the
    question "was anything instrumented running at this instant?".
    Self times nest each process's spans on their ``(t0, t1)`` intervals.
    """
    spans = run.spans()
    phases: dict[str, PhaseStat] = {}
    for sp, self_s in zip(spans, _self_times(spans)):
        stat = phases.get(sp["name"])
        if stat is None:
            stat = phases[sp["name"]] = PhaseStat(sp["name"])
        stat.count += 1
        stat.total_s += sp["dur_s"]
        stat.self_s += self_s

    batches = [sp for sp in spans if sp["name"] == "batch"]
    if batches:
        outer = max(batches, key=lambda sp: sp["dur_s"])
        lo, hi, wall = outer["t0"], outer["t1"], outer["dur_s"]
    elif spans:
        lo = min(sp["t0"] for sp in spans)
        hi = max(sp["t1"] for sp in spans)
        wall = hi - lo
    else:
        lo = hi = wall = 0.0

    intervals = [
        (max(sp["t0"], lo), min(sp["t1"], hi))
        for sp in spans
        if sp["name"] != "batch" and sp["t1"] > lo and sp["t0"] < hi
    ]
    covered = _interval_union(intervals)
    span_extent = hi - lo
    coverage = min(covered / span_extent, 1.0) if span_extent > 0 else 0.0

    # Counters: last metrics snapshot per process, summed across processes
    # (each process owns a distinct registry, so summing never double-counts).
    last_per_pid: dict[int, dict] = {}
    for ev in run.metrics_events():
        last_per_pid[ev["pid"]] = ev["counters"]
    counters: dict[str, int] = {}
    for snap in last_per_pid.values():
        for name, value in snap.items():
            counters[name] = counters.get(name, 0) + value

    return RunSummary(
        phases=list(phases.values()),
        batch_wall_s=wall,
        coverage=coverage,
        counters=counters,
        n_events=len(run.events),
    )
