"""Selection rule of the static partition search.

The paper picks the static (user, kernel) segment sizes by sweeping the
partition space and choosing the smallest total size whose miss rate
stays close to the full-size shared baseline.  The sweep is one
store-backed spec batch,
:func:`repro.experiments.figures.fig4_static_space` (``repro search``
runs it over a wider grid); this module holds what it applies to the
results: :func:`partition_point` summarises one partition and
:func:`choose_partition` picks among the evaluated points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import PlatformConfig
from repro.core.result import DesignResult

__all__ = ["PartitionPoint", "partition_point", "choose_partition"]


@dataclass(frozen=True)
class PartitionPoint:
    """One evaluated static partition configuration."""

    user_ways: int
    kernel_ways: int
    total_bytes: int
    demand_miss_rate: float
    user_miss_rate: float
    kernel_miss_rate: float

    @property
    def total_ways(self) -> int:
        """Combined way count of both segments."""
        return self.user_ways + self.kernel_ways


def _mean_miss_rates(results: list[DesignResult]) -> tuple[float, float, float]:
    """(overall, user-segment, kernel-segment) demand miss rates, averaged."""
    overall, user, kernel = [], [], []
    for result in results:
        overall.append(result.l2_stats.demand_miss_rate)
        try:
            user.append(result.segment("user").stats.demand_miss_rate)
            kernel.append(result.segment("kernel").stats.demand_miss_rate)
        except KeyError:
            user.append(result.l2_stats.demand_miss_rate)
            kernel.append(result.l2_stats.demand_miss_rate)
    return float(np.mean(overall)), float(np.mean(user)), float(np.mean(kernel))


def partition_point(
    user_ways: int, kernel_ways: int, results: list[DesignResult], platform: PlatformConfig
) -> PartitionPoint:
    """Summarise one partition's per-app results as a :class:`PartitionPoint`."""
    overall, user_mr, kernel_mr = _mean_miss_rates(results)
    return PartitionPoint(
        user_ways=user_ways,
        kernel_ways=kernel_ways,
        total_bytes=(user_ways + kernel_ways) * platform.l2.num_sets * platform.l2.block_size,
        demand_miss_rate=overall,
        user_miss_rate=user_mr,
        kernel_miss_rate=kernel_mr,
    )


def choose_partition(
    points: list[PartitionPoint], baseline_miss_rate: float, tolerance: float = 0.10
) -> PartitionPoint:
    """Smallest evaluated partition whose miss rate stays within ``tolerance``.

    The budget is ``baseline_miss_rate * (1 + tolerance)``.  Among
    admissible points the smallest total size wins; miss rate breaks
    ties.  If no point is admissible, the lowest-miss-rate point is
    returned (the caller can inspect it).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    budget = baseline_miss_rate * (1.0 + tolerance)
    admissible = [p for p in points if p.demand_miss_rate <= budget]
    if admissible:
        return min(admissible, key=lambda p: (p.total_bytes, p.demand_miss_rate))
    return min(points, key=lambda p: p.demand_miss_rate)
