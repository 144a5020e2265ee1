"""Sensitivity analysis: do the conclusions survive parameter changes?

The headline numbers depend on modelling constants (DRAM latency, L2
latency, write-contention factor) that the paper's testbed pins and we
calibrate.  These sweeps vary each one and re-measure the headline, so a
reader can see which conclusions are robust and which are knife-edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.engine.spec import JobSpec
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH, run_specs
from repro.report import format_table

__all__ = ["SensitivityResult", "dram_latency_sensitivity", "l2_latency_sensitivity"]


@dataclass(frozen=True)
class SensitivityRow:
    """Headline metrics at one parameter value."""

    parameter_value: float
    static_stt_energy_norm: float
    static_stt_perf_loss: float


@dataclass(frozen=True)
class SensitivityResult:
    """A one-parameter sweep of the static-technique headline."""

    parameter: str
    rows: tuple[SensitivityRow, ...]

    def render(self) -> str:
        return format_table(
            f"Sensitivity: static-stt headline vs {self.parameter}",
            [self.parameter, "norm. energy", "perf loss"],
            [
                [f"{r.parameter_value:g}", f"{r.static_stt_energy_norm:.3f}",
                 f"{r.static_stt_perf_loss:+.2%}"]
                for r in self.rows
            ],
        )

    def energy_spread(self) -> float:
        """Max-min normalized energy across the sweep."""
        values = [r.static_stt_energy_norm for r in self.rows]
        return max(values) - min(values)


def _sweep(
    parameter: str, platforms: dict[float, PlatformConfig], apps, length
) -> SensitivityResult:
    """The static-stt headline on each platform variant, in one batch."""
    results = run_specs({
        (value, design, app): JobSpec(design, app, length, platform=platform)
        for value, platform in platforms.items()
        for design in ("baseline", "static-stt")
        for app in apps
    })
    rows = []
    for value in platforms:
        energy, loss = [], []
        for app in apps:
            base, stt = results[value, "baseline", app], results[value, "static-stt", app]
            energy.append(stt.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(stt.timing.perf_loss_vs(base.timing))
        rows.append(SensitivityRow(value, float(np.mean(energy)), float(np.mean(loss))))
    return SensitivityResult(parameter, tuple(rows))


def dram_latency_sensitivity(
    length: int = EXPERIMENT_TRACE_LENGTH,
    apps: tuple[str, ...] = ("browser", "game"),
    latencies: tuple[int, ...] = (80, 140, 220, 300),
) -> SensitivityResult:
    """Sweep the flat DRAM latency."""
    platforms = {
        dram: replace(DEFAULT_PLATFORM, latency=replace(DEFAULT_PLATFORM.latency, dram=dram))
        for dram in latencies
    }
    return _sweep("DRAM latency (cycles)", platforms, apps, length)


def l2_latency_sensitivity(
    length: int = EXPERIMENT_TRACE_LENGTH,
    apps: tuple[str, ...] = ("browser", "game"),
    latencies: tuple[int, ...] = (12, 20, 30),
) -> SensitivityResult:
    """Sweep the L2 hit latency."""
    platforms = {
        l2_hit: replace(DEFAULT_PLATFORM, latency=replace(DEFAULT_PLATFORM.latency, l2_hit=l2_hit))
        for l2_hit in latencies
    }
    return _sweep("L2 hit latency (cycles)", platforms, apps, length)
