"""Per-segment breakdown: where does each design spend and miss?

The whole-L2 numbers hide the asymmetry the paper exploits.  This
experiment splits every design's misses and energy between the user and
kernel sides, showing (a) the kernel segment's outsized hit contribution
per byte and (b) which side pays the STT write premium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.designs import DESIGN_NAMES
from repro.experiments.report import format_table
from repro.engine.spec import JobSpec
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH, run_specs
from repro.trace.workloads import APP_NAMES
from repro.types import Privilege

__all__ = ["SegmentBreakdownRow", "SegmentBreakdownResult", "segment_breakdown"]


@dataclass(frozen=True)
class SegmentBreakdownRow:
    """Suite-mean per-privilege metrics of one design."""

    design: str
    user_miss_rate: float
    kernel_miss_rate: float
    user_energy_uj: float
    kernel_energy_uj: float
    kernel_energy_share: float


@dataclass(frozen=True)
class SegmentBreakdownResult:
    """Rows for every canonical design."""

    rows: tuple[SegmentBreakdownRow, ...]

    def render(self) -> str:
        return format_table(
            "Per-segment breakdown (suite mean)",
            ["design", "user mr", "kernel mr", "user E (uJ)", "kernel E (uJ)",
             "kernel E share"],
            [
                [r.design, f"{r.user_miss_rate:.2%}", f"{r.kernel_miss_rate:.2%}",
                 f"{r.user_energy_uj:.1f}", f"{r.kernel_energy_uj:.1f}",
                 f"{r.kernel_energy_share:.1%}"]
                for r in self.rows
            ],
        )


def _split_energy(result) -> tuple[float, float]:
    """(user, kernel) energy in J; the shared baseline splits by access share."""
    names = {s.name for s in result.segments}
    if names == {"shared"}:
        seg = result.segments[0]
        kernel_share = seg.stats.access_share_of(Privilege.KERNEL)
        return seg.energy.total_j * (1 - kernel_share), seg.energy.total_j * kernel_share
    user = sum(s.energy.total_j for s in result.segments if s.name.startswith("user"))
    kernel = sum(s.energy.total_j for s in result.segments if s.name.startswith("kernel"))
    return user, kernel


def segment_breakdown(
    length: int = EXPERIMENT_TRACE_LENGTH, apps: tuple[str, ...] = APP_NAMES
) -> SegmentBreakdownResult:
    """Per-privilege miss rates and energy for each canonical design."""
    results = run_specs(
        {(d, app): JobSpec(d, app, length) for d in DESIGN_NAMES for app in apps}
    )
    rows = []
    for design in DESIGN_NAMES:
        user_mr, kernel_mr, user_e, kernel_e = [], [], [], []
        for app in apps:
            r = results[design, app]
            stats = r.l2_stats
            user_mr.append(stats.miss_rate_of(Privilege.USER))
            kernel_mr.append(stats.miss_rate_of(Privilege.KERNEL))
            ue, ke = _split_energy(r)
            user_e.append(ue)
            kernel_e.append(ke)
        mean_user_e = float(np.mean(user_e)) * 1e6
        mean_kernel_e = float(np.mean(kernel_e)) * 1e6
        rows.append(SegmentBreakdownRow(
            design=design,
            user_miss_rate=float(np.mean(user_mr)),
            kernel_miss_rate=float(np.mean(kernel_mr)),
            user_energy_uj=mean_user_e,
            kernel_energy_uj=mean_kernel_e,
            kernel_energy_share=mean_kernel_e / (mean_user_e + mean_kernel_e)
            if (mean_user_e + mean_kernel_e) else 0.0,
        ))
    return SegmentBreakdownResult(tuple(rows))
