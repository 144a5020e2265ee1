"""Static user/kernel partitioning of the L2 (the paper's first technique).

The L2 is split into two way-partitions: a user segment reachable only
by user-privilege accesses and a kernel segment reachable only by kernel
accesses.  Removing cross-privilege interference lets the *combined*
size shrink well below the shared baseline at a similar miss rate —
that shrink, not the partition itself, is where the energy goes.

The class is technology-agnostic per segment, so it also implements the
paper's second technique (multi-retention STT-RAM segments): pass a
different :class:`~repro.energy.technology.MemoryTechnology` per side.
See :mod:`repro.core.multi_retention` for the canonical configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import PlatformConfig
from repro.core.pipeline import FixedSegment, check_prefetch, memory_models, run_fixed_design
from repro.core.result import DesignResult
from repro.energy.technology import MemoryTechnology, sram
from repro.types import Privilege

if TYPE_CHECKING:
    from repro.dram.model import DRAMConfig

__all__ = ["StaticPartitionDesign", "DEFAULT_USER_WAYS", "DEFAULT_KERNEL_WAYS"]

#: Default shrunk partition, chosen by :mod:`repro.core.search` over the
#: eight-app suite: 8 user ways + 4 kernel ways of a 1024-set array =
#: 512 KB + 256 KB, a 1024 KB -> 768 KB shrink at a similar miss rate.
#: (The shrink is deliberately modest — the bulk of the paper's static
#: energy saving comes from the multi-retention STT-RAM array, not from
#: capacity; see EXPERIMENTS.md.)
DEFAULT_USER_WAYS = 8
DEFAULT_KERNEL_WAYS = 4


@dataclass(frozen=True)
class StaticPartitionDesign:
    """Statically partitioned L2 with per-segment technology.

    Both segments replace LRU.

    Args:
        user_ways: Way count of the user segment.
        kernel_ways: Way count of the kernel segment.
        user_tech: Array technology of the user segment.
        kernel_tech: Array technology of the kernel segment.
        refresh_mode: How finite-retention segments handle decay
            (``"invalidate"`` or ``"rewrite"``); ignored for segments
            whose technology has no retention limit.
        retention_distribution: ``"fixed"`` (hard window at the spec
            value) or ``"exponential"`` (thermally realistic lifetimes
            with the spec value as mean).
        dram: Bank/row-buffer DRAM device the misses and write-backs
            go through (see :mod:`repro.dram`); ``None`` charges the
            platform's flat DRAM latency and energy.
        prefetch: L2 prefetcher name (``"nextline"`` or ``"stride"``,
            see :mod:`repro.cache.prefetch`), or ``None``.  Prefetches
            fill the missing access's own segment.
        name: Design label in results.
    """

    user_ways: int = DEFAULT_USER_WAYS
    kernel_ways: int = DEFAULT_KERNEL_WAYS
    user_tech: MemoryTechnology = field(default_factory=lambda: sram())
    kernel_tech: MemoryTechnology = field(default_factory=lambda: sram())
    refresh_mode: str = "invalidate"
    retention_distribution: str = "fixed"
    dram: DRAMConfig | None = None
    prefetch: str | None = None
    name: str = "static"

    def __post_init__(self) -> None:
        check_prefetch(self.prefetch)
        if self.user_ways <= 0 or self.kernel_ways <= 0:
            raise ValueError("both segments need at least one way")

    def _segment(
        self, platform: PlatformConfig, ways: int, tech: MemoryTechnology, label: str
    ) -> SetAssociativeCache:
        geometry = platform.l2.with_ways(ways)
        retention = tech.retention_ticks(platform.clock_hz)
        return SetAssociativeCache(
            geometry,
            "lru",
            retention_ticks=retention,
            refresh_mode="none" if retention is None else self.refresh_mode,
            retention_distribution=self.retention_distribution,
            name=f"l2-{label}",
        )

    def run(
        self, stream: L2Stream, platform: PlatformConfig, engine: str = "auto"
    ) -> DesignResult:
        """Replay ``stream`` through the two privilege segments.

        ``engine`` picks the replay path (``"auto"``/``"fast"``/
        ``"reference"``, see :func:`~repro.core.pipeline.run_fixed_design`).
        """
        user = self._segment(platform, self.user_ways, self.user_tech, "user")
        kernel = self._segment(platform, self.kernel_ways, self.kernel_tech, "kernel")
        segments = [
            FixedSegment("user", user, self.user_tech),
            FixedSegment("kernel", kernel, self.kernel_tech),
        ]
        kernel_priv = int(Privilege.KERNEL)
        return run_fixed_design(self.name, stream, platform, segments,
                                lambda priv: kernel if priv == kernel_priv else user,
                                *memory_models(self.dram, self.prefetch), engine)
