"""Experiment harness: one function per figure/table of the paper.

``figures`` and ``tables`` return result objects with ``render()``
methods.  Every experiment declares its simulations as
:class:`~repro.engine.spec.JobSpec` values and resolves them in one
store-backed engine batch (:func:`~repro.experiments.runner.run_specs`),
so experiments share results through the persistent store; streams come
from the one loader, :func:`~repro.engine.streamcache.load_stream`.
"""

from repro.experiments.figures import (
    fig1_kernel_share,
    fig2_interference,
    fig3_size_sweep,
    fig4_static_space,
    fig5_intervals,
    fig6_energy_breakdown,
    fig7_dynamic_timeline,
    fig8_energy_summary,
)
from repro.experiments.characterization import (
    CharacterizationResult,
    characterize_suite,
)
from repro.experiments.export import export_grid_csv
from repro.experiments.pareto import ParetoPoint, ParetoResult, pareto_frontier
from repro.report import format_bars, format_percent, format_series, format_table
from repro.experiments.robustness import SeedRobustnessResult, seed_robustness
from repro.experiments.segments import (
    SegmentBreakdownResult,
    segment_breakdown,
)
from repro.experiments.sensitivity import (
    SensitivityResult,
    dram_latency_sensitivity,
    l2_latency_sensitivity,
)
from repro.experiments.runner import EXPERIMENT_TRACE_LENGTH, run_specs
from repro.experiments.tables import (
    table1_configuration,
    table2_technology,
    table3_workloads,
    table4_performance,
)

__all__ = [
    "fig1_kernel_share",
    "fig2_interference",
    "fig3_size_sweep",
    "fig4_static_space",
    "fig5_intervals",
    "fig6_energy_breakdown",
    "fig7_dynamic_timeline",
    "fig8_energy_summary",
    "format_bars",
    "format_percent",
    "format_series",
    "format_table",
    "CharacterizationResult",
    "characterize_suite",
    "export_grid_csv",
    "ParetoPoint",
    "ParetoResult",
    "pareto_frontier",
    "SeedRobustnessResult",
    "seed_robustness",
    "SegmentBreakdownResult",
    "segment_breakdown",
    "SensitivityResult",
    "dram_latency_sensitivity",
    "l2_latency_sensitivity",
    "EXPERIMENT_TRACE_LENGTH",
    "run_specs",
    "table1_configuration",
    "table2_technology",
    "table3_workloads",
    "table4_performance",
]
