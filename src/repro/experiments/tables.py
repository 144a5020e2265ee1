"""The paper's tables, reconstructed (see DESIGN.md for provenance)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.core.designs import DESIGN_NAMES
from repro.energy.technology import RETENTION_CLASSES, sram, stt_ram
from repro.engine.spec import JobSpec
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH, run_specs
from repro.report import format_percent, format_table
from repro.trace.workloads import APP_NAMES, app_profile

__all__ = [
    "table1_configuration",
    "table2_technology",
    "table3_workloads",
    "table4_performance",
]


# ---------------------------------------------------------------------------
# Table 1 — simulated platform configuration


@dataclass(frozen=True)
class ConfigurationTable:
    """Rows of (parameter, value) describing the platform."""

    rows: tuple[tuple[str, str], ...]

    def render(self) -> str:
        return format_table(
            "Table 1: simulated platform configuration",
            ["parameter", "value"],
            [list(r) for r in self.rows],
            align_left_cols=2,
        )


def table1_configuration(platform: PlatformConfig = DEFAULT_PLATFORM) -> ConfigurationTable:
    """The platform parameters every experiment runs on."""
    lat = platform.latency
    rows = (
        ("core", f"in-order, base CPI {platform.base_cpi}, {platform.clock_hz / 1e9:.1f} GHz"),
        ("L1 I-cache", f"{platform.l1i.size_bytes // 1024} KB, {platform.l1i.associativity}-way, "
                       f"{platform.l1i.block_size} B lines, {lat.l1_hit}-cycle hit"),
        ("L1 D-cache", f"{platform.l1d.size_bytes // 1024} KB, {platform.l1d.associativity}-way, "
                       f"write-back write-allocate"),
        ("L2 cache", f"{platform.l2.size_bytes // 1024} KB shared, {platform.l2.associativity}-way, "
                     f"{platform.l2.num_sets} sets, {lat.l2_hit}-cycle hit"),
        ("DRAM", f"{lat.dram}-cycle access"),
        ("replacement", "true LRU at every level"),
    )
    return ConfigurationTable(rows)


# ---------------------------------------------------------------------------
# Table 2 — technology parameters


@dataclass(frozen=True)
class TechnologyTable:
    """Rows of per-technology energy/latency/retention parameters."""

    rows: tuple[tuple[str, ...], ...]

    def render(self) -> str:
        return format_table(
            "Table 2: 1 MB array technology parameters",
            ["technology", "read (nJ)", "write (nJ)", "leakage (mW/MB)",
             "extra wr lat", "retention"],
            [list(r) for r in self.rows],
        )


def table2_technology() -> TechnologyTable:
    """SRAM vs the three STT-RAM retention classes at the reference size."""
    size = 1024 * 1024
    rows = []
    techs = [sram()] + [stt_ram(name) for name in RETENTION_CLASSES]
    for tech in techs:
        retention = "-"
        if tech.retention is not None:
            retention = (
                "> 10 years" if tech.retention.retention_s is None
                else f"{tech.retention.retention_s * 1e3:.0f} ms (scaled)"
            )
        rows.append(
            (
                tech.name,
                f"{tech.read_energy_nj(size):.2f}",
                f"{tech.write_energy_nj(size):.2f}",
                f"{tech.leakage_mw_per_mb:.0f}",
                f"{tech.extra_write_cycles}",
                retention,
            )
        )
    return TechnologyTable(tuple(rows))


# ---------------------------------------------------------------------------
# Table 3 — workload suite


@dataclass(frozen=True)
class WorkloadTable:
    """One row per app: name and what it models."""

    rows: tuple[tuple[str, str], ...]

    def render(self) -> str:
        return format_table(
            "Table 3: interactive smartphone workload suite",
            ["app", "description"],
            [list(r) for r in self.rows],
            align_left_cols=2,
        )


def table3_workloads() -> WorkloadTable:
    """The eight-app suite with descriptions."""
    return WorkloadTable(tuple((name, app_profile(name).description) for name in APP_NAMES))


# ---------------------------------------------------------------------------
# Table 4 — performance loss per design


@dataclass(frozen=True)
class PerformanceTable:
    """Per-app performance loss of each design vs the baseline."""

    loss: dict[str, dict[str, float]]  # app -> design -> loss

    def mean(self, design: str) -> float:
        """Suite-mean performance loss of ``design``."""
        return float(np.mean([v[design] for v in self.loss.values()]))

    def render(self) -> str:
        designs = [d for d in DESIGN_NAMES if d != "baseline"]
        rows = [
            [app] + [format_percent(self.loss[app][d], 2) for d in designs]
            for app in self.loss
        ]
        rows.append(["MEAN"] + [format_percent(self.mean(d), 2) for d in designs])
        return format_table(
            "Table 4: performance loss vs the shared SRAM baseline",
            ["app", *designs],
            rows,
        )


def table4_performance(
    length: int = EXPERIMENT_TRACE_LENGTH, apps: tuple[str, ...] = APP_NAMES
) -> PerformanceTable:
    """Busy-cycle slowdown of every design against the baseline."""
    results = run_specs(
        {(d, app): JobSpec(d, app, length) for d in DESIGN_NAMES for app in apps}
    )
    loss: dict[str, dict[str, float]] = {}
    for app in apps:
        base = results["baseline", app].timing
        loss[app] = {
            design: results[design, app].timing.perf_loss_vs(base)
            for design in DESIGN_NAMES
            if design != "baseline"
        }
    return PerformanceTable(loss)
