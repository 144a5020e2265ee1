"""Grid sweeps: design x app x seed batches over the engine.

:func:`run_sweep` is what ``repro sweep`` calls: it expands the grid
into :class:`~repro.engine.spec.JobSpec` rows (in a stable order, so
repeated sweeps address the same store entries), hands the batch to
:func:`~repro.engine.executor.run_jobs`, and wraps the outcomes in a
:class:`SweepResult` that renders the paper-style summary table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.engine.executor import BatchProgress, JobOutcome, run_jobs
from repro.engine.spec import EXPERIMENT_TRACE_LENGTH, JobSpec
from repro.engine.store import ResultStore

__all__ = ["SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """Outcomes of one grid sweep plus batch-level accounting."""

    outcomes: tuple[JobOutcome, ...]
    wall_s: float

    @property
    def cached(self) -> int:
        """Jobs answered from the persistent store."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def simulated(self) -> int:
        """Jobs that ran fresh simulations."""
        return len(self.outcomes) - self.cached

    def hit_rate(self) -> float:
        """Store hit rate over the batch (0.0 for an empty sweep)."""
        return self.cached / len(self.outcomes) if self.outcomes else 0.0

    @property
    def fastsim_jobs(self) -> int:
        """Jobs whose replay ran on the vectorized fast kernel."""
        return sum(
            1 for o in self.outcomes
            if o.result.extras.get("sim_engine") == "fastsim"
        )

    @property
    def reference_jobs(self) -> int:
        """Jobs whose replay used the per-access reference engine."""
        return sum(
            1 for o in self.outcomes
            if o.result.extras.get("sim_engine") == "reference"
        )

    def render(self) -> str:
        """Summary table plus the store-accounting footer line."""
        from repro.report import format_table

        rows = []
        for o in self.outcomes:
            stats = o.result.l2_stats
            rows.append([
                o.spec.design,
                o.spec.app,
                str(o.spec.seed),
                f"{stats.demand_miss_rate:6.2%}",
                f"{o.result.l2_energy.total_j * 1e6:9.1f}",
                f"{o.result.timing.busy_cycles / 1e6:8.2f}",
                "store" if o.cached else f"{o.wall_s:.1f}s",
            ])
        table = format_table(
            "sweep results",
            ["design", "app", "seed", "miss rate", "L2 uJ", "Mcycles", "source"],
            rows,
            align_left_cols=2,
        )
        footer = (
            f"store: {self.cached}/{len(self.outcomes)} jobs served from cache "
            f"({self.hit_rate():.1%}); {self.simulated} simulated in {self.wall_s:.1f}s; "
            f"sim engine: {self.fastsim_jobs} fastsim / {self.reference_jobs} reference"
        )
        return f"{table}\n{footer}"


def run_sweep(
    designs: Sequence[str],
    apps: Sequence[str],
    seeds: Sequence[int] = (0,),
    length: int = EXPERIMENT_TRACE_LENGTH,
    platform: PlatformConfig = DEFAULT_PLATFORM,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
) -> SweepResult:
    """Run the full design x app x seed grid through the engine."""
    specs = [
        JobSpec(design=design, app=app, length=length, seed=seed, platform=platform)
        for design, app, seed in product(designs, apps, seeds)
    ]
    start = time.perf_counter()
    outcomes = run_jobs(specs, jobs=jobs, store=store, progress=progress)
    return SweepResult(outcomes=tuple(outcomes), wall_s=time.perf_counter() - start)
