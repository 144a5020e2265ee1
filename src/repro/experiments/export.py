"""CSV export of experiment results (for external plotting).

Academic consumers of this library will want the raw numbers in their
own plotting pipeline; these helpers dump the canonical grid and any
rendered figure/table object that exposes rows.
"""

from __future__ import annotations

import csv
import os

from repro.core.designs import DESIGN_NAMES
from repro.engine.spec import JobSpec
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH, run_specs
from repro.trace.workloads import APP_NAMES

__all__ = ["export_grid_csv"]

_GRID_FIELDS = [
    "design", "app", "l2_accesses", "demand_miss_rate", "cross_privilege_evictions",
    "expiry_invalidations", "refresh_writes", "leakage_j", "read_j", "write_j",
    "refresh_j", "total_energy_j", "dram_j", "busy_cycles", "ipc",
    "energy_delay_product",
]


def export_grid_csv(
    path: str | os.PathLike,
    length: int = EXPERIMENT_TRACE_LENGTH,
    apps: tuple[str, ...] = APP_NAMES,
    designs: tuple[str, ...] = DESIGN_NAMES,
) -> int:
    """Write the (design x app) result grid to ``path``; returns row count.

    The energy-delay product column is L2 energy x busy seconds — the
    standard combined metric for energy/performance trades.
    """
    results = run_specs(
        {(d, app): JobSpec(d, app, length) for d in designs for app in apps}
    )
    rows = 0
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=_GRID_FIELDS)
        writer.writeheader()
        for design in designs:
            for app in apps:
                r = results[design, app]
                stats = r.l2_stats
                e = r.l2_energy
                busy_s = r.timing.busy_cycles / 1e9
                writer.writerow({
                    "design": design,
                    "app": app,
                    "l2_accesses": stats.accesses,
                    "demand_miss_rate": f"{stats.demand_miss_rate:.6f}",
                    "cross_privilege_evictions": stats.cross_privilege_evictions,
                    "expiry_invalidations": stats.expiry_invalidations,
                    "refresh_writes": stats.refresh_writes,
                    "leakage_j": f"{e.leakage_j:.9e}",
                    "read_j": f"{e.read_j:.9e}",
                    "write_j": f"{e.write_j:.9e}",
                    "refresh_j": f"{e.refresh_j:.9e}",
                    "total_energy_j": f"{e.total_j:.9e}",
                    "dram_j": f"{r.dram_j:.9e}",
                    "busy_cycles": f"{r.timing.busy_cycles:.0f}",
                    "ipc": f"{r.timing.ipc:.4f}",
                    "energy_delay_product": f"{e.total_j * busy_s:.9e}",
                })
                rows += 1
    return rows
