"""The baseline design: a shared SRAM L2.

This is the conventional mobile L2 the paper starts from — one array
serving user and kernel accesses alike, where the two streams interfere
freely.  Every other design is evaluated relative to it.
"""

from __future__ import annotations

from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import PlatformConfig
from repro.core.pipeline import FixedSegment, run_fixed_design
from repro.core.result import DesignResult
from repro.energy.technology import MemoryTechnology, sram

__all__ = ["BaselineDesign"]


class BaselineDesign:
    """Shared (unpartitioned) L2 of the platform's full size.

    Args:
        ways: Way count at the platform L2's set count (capacity scales
            with it); defaults to the platform L2 itself.
        tech: Array technology (SRAM unless an ablation says otherwise).
        policy: Replacement policy name.
    """

    def __init__(
        self,
        ways: int | None = None,
        tech: MemoryTechnology | None = None,
        policy: str = "lru",
        name: str = "baseline",
    ) -> None:
        self.ways = ways
        self.tech = tech if tech is not None else sram()
        self.policy = policy
        self.name = name
        if self.tech.retention is not None:
            raise ValueError(
                "BaselineDesign models retention-free storage; use a design "
                "with refresh handling for finite-retention STT-RAM"
            )

    def run(
        self, stream: L2Stream, platform: PlatformConfig, dram_model=None, prefetcher=None,
        engine: str = "auto",
    ) -> DesignResult:
        """Replay ``stream`` through the shared L2.

        ``dram_model`` optionally routes misses through a bank-level
        DRAM model (see :mod:`repro.dram`); ``prefetcher`` optionally
        adds an L2 prefetcher (see :mod:`repro.cache.prefetch`).
        ``engine`` picks the replay path (``"auto"``/``"fast"``/
        ``"reference"``, see :func:`~repro.core.pipeline.run_fixed_design`).
        """
        geometry = platform.l2 if self.ways is None else platform.l2.with_ways(self.ways)
        cache = SetAssociativeCache(geometry, self.policy, name="l2-shared")
        segment = FixedSegment("shared", cache, self.tech)
        return run_fixed_design(
            self.name, stream, platform, [segment], lambda priv: cache,
            dram_model, prefetcher, engine,
        )
