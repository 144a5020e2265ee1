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
* :func:`find_static_partition` / :func:`sweep_partitions` /
  :func:`choose_partition` — the partition design-space search.
* :func:`make_design` / :data:`DESIGN_NAMES` / :data:`REGISTERED_DESIGNS`
  — the design registry.
* :class:`DesignResult` / :class:`SegmentReport` — results.
"""

from repro.core.baseline import BaselineDesign
from repro.core.designs import DESIGN_NAMES, REGISTERED_DESIGNS, make_design, paper_designs
from repro.core.drowsy import DEFAULT_DROWSY_WINDOW, DROWSY_LEAKAGE_SCALE, DrowsySRAMDesign
from repro.core.dynamic_partition import DynamicControllerConfig, DynamicPartitionDesign
from repro.core.hybrid import HybridPartitionDesign
from repro.core.multi_retention import (
    KERNEL_RETENTION_CLASS,
    USER_RETENTION_CLASS,
    multi_retention_design,
)
from repro.core.pipeline import (
    FixedSegment,
    ReplaySession,
    ResultAssembler,
    SegmentOutcome,
    run_fixed_design,
)
from repro.core.result import DesignResult, SegmentReport
from repro.core.search import (
    PartitionPoint,
    choose_partition,
    find_static_partition,
    partition_point,
    sweep_partitions,
)
from repro.core.static_partition import (
    DEFAULT_KERNEL_WAYS,
    DEFAULT_USER_WAYS,
    StaticPartitionDesign,
)

__all__ = [
    "BaselineDesign",
    "DEFAULT_DROWSY_WINDOW",
    "DROWSY_LEAKAGE_SCALE",
    "DrowsySRAMDesign",
    "DESIGN_NAMES",
    "REGISTERED_DESIGNS",
    "make_design",
    "paper_designs",
    "DynamicControllerConfig",
    "DynamicPartitionDesign",
    "HybridPartitionDesign",
    "KERNEL_RETENTION_CLASS",
    "USER_RETENTION_CLASS",
    "multi_retention_design",
    "FixedSegment",
    "ReplaySession",
    "ResultAssembler",
    "SegmentOutcome",
    "run_fixed_design",
    "DesignResult",
    "SegmentReport",
    "PartitionPoint",
    "choose_partition",
    "find_static_partition",
    "partition_point",
    "sweep_partitions",
    "DEFAULT_KERNEL_WAYS",
    "DEFAULT_USER_WAYS",
    "StaticPartitionDesign",
]
