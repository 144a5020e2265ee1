"""The baseline design: a shared SRAM L2.

This is the conventional mobile L2 the paper starts from — one array
serving user and kernel accesses alike, where the two streams interfere
freely.  Every other design is evaluated relative to it.
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

if TYPE_CHECKING:
    from repro.dram.model import DRAMConfig

__all__ = ["BaselineDesign"]


@dataclass(frozen=True)
class BaselineDesign:
    """Shared (unpartitioned) L2 of the platform's full size.

    Args:
        ways: Way count at the platform L2's set count (capacity scales
            with it); defaults to the platform L2 itself.
        tech: Array technology (SRAM unless an ablation says otherwise).
        policy: Replacement policy name.
        dram: Bank/row-buffer DRAM device the misses and write-backs
            go through (see :mod:`repro.dram`); ``None`` charges the
            platform's flat DRAM latency and energy.
        prefetch: L2 prefetcher name (``"nextline"`` or ``"stride"``,
            see :mod:`repro.cache.prefetch`), or ``None``.
    """

    ways: int | None = None
    # default factories look their module global up per call, so a
    # patched ``sram`` is what a new design (and its key) sees
    tech: MemoryTechnology = field(default_factory=lambda: sram())
    policy: str = "lru"
    dram: DRAMConfig | None = None
    prefetch: str | None = None
    name: str = "baseline"

    def __post_init__(self) -> None:
        check_prefetch(self.prefetch)
        if self.tech.retention is not None:
            raise ValueError(
                "BaselineDesign models retention-free storage; use a design "
                "with refresh handling for finite-retention STT-RAM"
            )

    def run(
        self, stream: L2Stream, platform: PlatformConfig, engine: str = "auto"
    ) -> DesignResult:
        """Replay ``stream`` through the shared L2.

        ``engine`` picks the replay path (``"auto"``/``"fast"``/
        ``"reference"``, see :func:`~repro.core.pipeline.run_fixed_design`).
        """
        geometry = platform.l2 if self.ways is None else platform.l2.with_ways(self.ways)
        cache = SetAssociativeCache(geometry, self.policy, name="l2-shared")
        segment = FixedSegment("shared", cache, self.tech)
        return run_fixed_design(self.name, stream, platform, [segment], lambda priv: cache,
                                *memory_models(self.dram, self.prefetch), engine)
