"""Workload characterization: the extended Table 3.

Cache papers justify their workload choice with a characterization
table; this one reports, per app: dynamic footprints, write ratio,
kernel shares at trace and L2 level, L1 miss rates and reuse percentiles
— everything a reader needs to judge whether the synthetic suite behaves
like the interactive apps it stands in for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.streamcache import load_stream
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH
from repro.report import format_table
from repro.trace.access import Trace
from repro.trace.workloads import APP_NAMES, suite_trace
from repro.types import CACHE_BLOCK_SIZE

__all__ = ["CharacterizationRow", "CharacterizationResult", "characterize_suite"]


def footprint_bytes(trace: Trace) -> int:
    """Total bytes of the distinct blocks ``trace`` touches."""
    return int(np.unique(trace.addrs // np.uint64(CACHE_BLOCK_SIZE)).size) * CACHE_BLOCK_SIZE


@dataclass(frozen=True)
class CharacterizationRow:
    """One app's measured properties."""

    app: str
    footprint_mb: float
    write_fraction: float
    trace_kernel_share: float
    l2_kernel_share: float
    l1i_miss_rate: float
    l1d_miss_rate: float
    l2_traffic_fraction: float  # L2 accesses / trace accesses


@dataclass(frozen=True)
class CharacterizationResult:
    """The suite characterization table."""

    rows: tuple[CharacterizationRow, ...]

    def render(self) -> str:
        table_rows = [
            [
                r.app,
                f"{r.footprint_mb:.1f}",
                f"{r.write_fraction:.1%}",
                f"{r.trace_kernel_share:.1%}",
                f"{r.l2_kernel_share:.1%}",
                f"{r.l1i_miss_rate:.1%}",
                f"{r.l1d_miss_rate:.1%}",
                f"{r.l2_traffic_fraction:.1%}",
            ]
            for r in self.rows
        ]
        means = [
            "MEAN",
            f"{np.mean([r.footprint_mb for r in self.rows]):.1f}",
            f"{np.mean([r.write_fraction for r in self.rows]):.1%}",
            f"{np.mean([r.trace_kernel_share for r in self.rows]):.1%}",
            f"{np.mean([r.l2_kernel_share for r in self.rows]):.1%}",
            f"{np.mean([r.l1i_miss_rate for r in self.rows]):.1%}",
            f"{np.mean([r.l1d_miss_rate for r in self.rows]):.1%}",
            f"{np.mean([r.l2_traffic_fraction for r in self.rows]):.1%}",
        ]
        table_rows.append(means)
        return format_table(
            "Extended Table 3: workload characterization",
            ["app", "fp (MB)", "stores", "kern (trace)", "kern (L2)",
             "L1I mr", "L1D mr", "L2 traffic"],
            table_rows,
        )


def characterize_suite(
    length: int = EXPERIMENT_TRACE_LENGTH, apps: tuple[str, ...] = APP_NAMES
) -> CharacterizationResult:
    """Measure every app's trace- and hierarchy-level properties."""
    rows = []
    for app in apps:
        trace = suite_trace(app, length)
        stream = load_stream(app, length)
        rows.append(
            CharacterizationRow(
                app=app,
                footprint_mb=footprint_bytes(trace) / (1024 * 1024),
                write_fraction=trace.write_fraction(),
                trace_kernel_share=trace.kernel_fraction(),
                l2_kernel_share=stream.kernel_share(),
                l1i_miss_rate=stream.l1i_stats.miss_rate,
                l1d_miss_rate=stream.l1d_stats.miss_rate,
                l2_traffic_fraction=len(stream.ticks) / len(trace),
            )
        )
    return CharacterizationResult(tuple(rows))
