"""Energy/performance Pareto frontier across all implemented designs.

The paper's two techniques are points in a larger space this library can
populate: SRAM variants (full, shrunk, drowsy), STT variants (retention
assignments, refresh policies) and the dynamic controller.  This
experiment runs them all and reports which are Pareto-optimal in
(normalized energy, performance loss) — the synthesis artifact a design
review would ask for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.spec import JobSpec
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH, run_specs
from repro.report import format_table

__all__ = ["ParetoPoint", "ParetoResult", "pareto_frontier"]


@dataclass(frozen=True)
class ParetoPoint:
    """One design's position in (energy, performance) space."""

    design: str
    energy_norm: float
    perf_loss: float
    on_frontier: bool = False


@dataclass(frozen=True)
class ParetoResult:
    """All evaluated designs with frontier membership."""

    points: tuple[ParetoPoint, ...]

    def frontier(self) -> tuple[ParetoPoint, ...]:
        """Only the Pareto-optimal points, by increasing energy."""
        return tuple(sorted((p for p in self.points if p.on_frontier),
                            key=lambda p: p.energy_norm))

    def render(self) -> str:
        rows = [
            [p.design, f"{p.energy_norm:.3f}", f"{p.perf_loss:+.2%}",
             "*" if p.on_frontier else ""]
            for p in sorted(self.points, key=lambda p: p.energy_norm)
        ]
        return format_table(
            "Energy/performance Pareto space (suite subset mean; * = frontier)",
            ["design", "norm. energy", "perf loss", "Pareto"],
            rows,
        )


def _mark_frontier(points: list[ParetoPoint]) -> tuple[ParetoPoint, ...]:
    """A point is dominated if another has <= energy AND <= loss (one strict)."""
    marked = []
    for p in points:
        dominated = any(
            (q.energy_norm <= p.energy_norm and q.perf_loss <= p.perf_loss)
            and (q.energy_norm < p.energy_norm or q.perf_loss < p.perf_loss)
            for q in points
        )
        marked.append(ParetoPoint(p.design, p.energy_norm, p.perf_loss, not dominated))
    return tuple(marked)


def candidate_designs() -> dict[str, tuple[str, dict]]:
    """The design variants the frontier is drawn over.

    Maps each point's label to its registered design name and
    constructor kwargs (see :func:`~repro.core.designs.make_design`).
    """
    return {
        "baseline": ("baseline", {}),
        "static-sram": ("static-sram", {}),
        "drowsy-sram": ("drowsy-sram", {}),
        "static-stt": ("static-stt", {}),
        "static-stt-rewrite": ("static-stt", {"refresh_mode": "rewrite"}),
        "static-stt-allshort": ("static-stt", {"user_retention": "short"}),
        "static-stt-alllong": (
            "static-stt", {"user_retention": "long", "kernel_retention": "long"}),
        "hybrid": ("hybrid", {}),
        "dynamic-stt": ("dynamic-stt", {}),
    }


def pareto_frontier(
    length: int = EXPERIMENT_TRACE_LENGTH,
    apps: tuple[str, ...] = ("browser", "social", "game"),
) -> ParetoResult:
    """Evaluate every candidate design and mark the frontier."""
    candidates = candidate_designs()
    results = run_specs({
        (label, app): JobSpec(design, app, length, design_kwargs=kwargs)
        for label, (design, kwargs) in candidates.items()
        for app in apps
    })
    points = []
    for label in candidates:
        energy, loss = [], []
        for app in apps:
            r, base = results[label, app], results["baseline", app]
            energy.append(r.l2_energy.total_j / base.l2_energy.total_j)
            loss.append(r.timing.perf_loss_vs(base.timing))
        points.append(ParetoPoint(label, float(np.mean(energy)), float(np.mean(loss))))
    return ParetoResult(_mark_frontier(points))
