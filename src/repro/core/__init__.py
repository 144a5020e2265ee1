"""The paper's contribution: partitioned, multi-retention, dynamic L2 designs.

Public surface:

* :class:`BaselineDesign` — shared SRAM L2 reference.
* :class:`DrowsySRAMDesign` — drowsy-mode SRAM competitor (extension).
* :class:`HybridPartitionDesign` — SRAM+STT hybrid segments (extension).
* :class:`StaticPartitionDesign` — static user/kernel way partition with
  per-segment technology.
* :func:`multi_retention_design` — the canonical static + multi-retention
  STT-RAM configuration.
* :class:`DynamicPartitionDesign` / :class:`DynamicControllerConfig` —
  epoch-based dynamic partitioning with power-gated ways.
* :func:`partition_point` / :func:`choose_partition` — the partition
  search's selection rule (the sweep is
  :func:`repro.experiments.fig4_static_space`).
* :func:`make_design` / :data:`DESIGN_NAMES` / :data:`REGISTERED_DESIGNS`
  — the design registry.
* :class:`DesignResult` / :class:`SegmentReport` — results.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "BaselineDesign": "baseline",
    "DEFAULT_DROWSY_WINDOW": "drowsy",
    "DROWSY_LEAKAGE_SCALE": "drowsy",
    "DrowsySRAMDesign": "drowsy",
    "DESIGN_NAMES": "designs",
    "REGISTERED_DESIGNS": "designs",
    "make_design": "designs",
    "paper_designs": "designs",
    "DynamicControllerConfig": "dynamic_partition",
    "DynamicPartitionDesign": "dynamic_partition",
    "HybridPartitionDesign": "hybrid",
    "KERNEL_RETENTION_CLASS": "multi_retention",
    "USER_RETENTION_CLASS": "multi_retention",
    "multi_retention_design": "multi_retention",
    "FixedSegment": "pipeline",
    "ReplaySession": "pipeline",
    "ResultAssembler": "pipeline",
    "SegmentOutcome": "pipeline",
    "run_fixed_design": "pipeline",
    "DesignResult": "result",
    "SegmentReport": "result",
    "PartitionPoint": "search",
    "choose_partition": "search",
    "partition_point": "search",
    "DEFAULT_KERNEL_WAYS": "static_partition",
    "DEFAULT_USER_WAYS": "static_partition",
    "StaticPartitionDesign": "static_partition",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
