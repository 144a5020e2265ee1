"""Seed robustness: the headline across independent trace generations.

The workload generator is stochastic; a result that only holds for seed
0 would be an artifact.  This experiment regenerates the whole suite
under several seeds and reports the headline's mean and spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.spec import JobSpec
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH, run_specs
from repro.report import format_table
from repro.trace.workloads import APP_NAMES

__all__ = ["SeedRobustnessResult", "seed_robustness"]


@dataclass(frozen=True)
class SeedRobustnessResult:
    """Per-seed headline metrics plus mean/std."""

    seeds: tuple[int, ...]
    static_savings: tuple[float, ...]
    dynamic_savings: tuple[float, ...]
    static_losses: tuple[float, ...]
    dynamic_losses: tuple[float, ...]

    def render(self) -> str:
        rows = [
            [str(seed), f"{ss:.1%}", f"{ds:.1%}", f"{sl:+.2%}", f"{dl:+.2%}"]
            for seed, ss, ds, sl, dl in zip(
                self.seeds, self.static_savings, self.dynamic_savings,
                self.static_losses, self.dynamic_losses,
            )
        ]
        rows.append([
            "mean±std",
            f"{np.mean(self.static_savings):.1%}±{np.std(self.static_savings):.1%}",
            f"{np.mean(self.dynamic_savings):.1%}±{np.std(self.dynamic_savings):.1%}",
            f"{np.mean(self.static_losses):+.2%}",
            f"{np.mean(self.dynamic_losses):+.2%}",
        ])
        return format_table(
            "Seed robustness of the headline (suite mean per seed)",
            ["seed", "static saving", "dynamic saving", "static loss", "dynamic loss"],
            rows,
        )

    def static_saving_std(self) -> float:
        """Standard deviation of the static technique's saving."""
        return float(np.std(self.static_savings))


def seed_robustness(
    length: int = EXPERIMENT_TRACE_LENGTH,
    seeds: tuple[int, ...] = (0, 1, 2),
    apps: tuple[str, ...] = APP_NAMES,
) -> SeedRobustnessResult:
    """Measure the headline under each seed."""
    designs = ("baseline", "static-stt", "dynamic-stt")
    results = run_specs({
        (d, app, seed): JobSpec(d, app, length, seed)
        for seed in seeds
        for d in designs
        for app in apps
    })
    static_savings, dynamic_savings, static_losses, dynamic_losses = [], [], [], []
    for seed in seeds:
        s_energy, d_energy, s_loss, d_loss = [], [], [], []
        for app in apps:
            base, static, dynamic = (results[d, app, seed] for d in designs)
            s_energy.append(static.l2_energy.normalized_to(base.l2_energy))
            d_energy.append(dynamic.l2_energy.normalized_to(base.l2_energy))
            s_loss.append(static.timing.perf_loss_vs(base.timing))
            d_loss.append(dynamic.timing.perf_loss_vs(base.timing))
        static_savings.append(1.0 - float(np.mean(s_energy)))
        dynamic_savings.append(1.0 - float(np.mean(d_energy)))
        static_losses.append(float(np.mean(s_loss)))
        dynamic_losses.append(float(np.mean(d_loss)))
    return SeedRobustnessResult(
        seeds=tuple(seeds),
        static_savings=tuple(static_savings),
        dynamic_savings=tuple(dynamic_savings),
        static_losses=tuple(static_losses),
        dynamic_losses=tuple(dynamic_losses),
    )
