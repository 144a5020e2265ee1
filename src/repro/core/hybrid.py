"""Hybrid SRAM/STT-RAM partitioned L2 (extension: the literature's rival).

Before multi-retention STT-RAM, the standard answer to STT's expensive
writes was a *hybrid* cache (Sun et al., HPCA 2009 lineage): a few SRAM
ways absorb the write-intensive traffic while STT-RAM ways carry the
read-mostly capacity.  This design combines that idea with the paper's
user/kernel partition: each privilege segment is a hybrid pair, with

* **write-back traffic** (dirty data evicted from the L1D — the L2's
  write-intensive stream) allocated into the segment's SRAM part, and
* **demand fills** (read-mostly) allocated into the STT part.

An access is routed to whichever part currently holds the block, so no
block is ever duplicated.  Comparing this against the multi-retention
design shows which lever pays more on these workloads: segregating
writes into SRAM, or cheapening every STT write via relaxed retention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import PlatformConfig
from repro.core.pipeline import FixedSegment, ReplaySession, ResultAssembler, SegmentOutcome
from repro.core.result import DesignResult
from repro.energy.technology import MemoryTechnology, sram, stt_ram
from repro.types import Privilege

__all__ = ["HybridPartitionDesign"]


class _HybridSegment:
    """One privilege side: an SRAM write part plus an STT capacity part."""

    def __init__(
        self,
        label: str,
        platform: PlatformConfig,
        sram_ways: int,
        stt_ways: int,
        sram_tech: MemoryTechnology,
        stt_tech: MemoryTechnology,
    ) -> None:
        retention = stt_tech.retention_ticks(platform.clock_hz)
        self.label = label
        self.sram_tech = sram_tech
        self.stt_tech = stt_tech
        self.sram = SetAssociativeCache(
            platform.l2.with_ways(sram_ways), "lru", name=f"l2-{label}-sram"
        )
        self.stt = SetAssociativeCache(
            platform.l2.with_ways(stt_ways),
            "lru",
            retention_ticks=retention,
            refresh_mode="none" if retention is None else "invalidate",
            name=f"l2-{label}-stt",
        )
        self._block_mask = ~(platform.l2.block_size - 1)
        self.migrate_threshold = 2
        self._write_counts: dict[int, int] = {}
        self.migrations = 0

    def access(self, addr: int, is_write: bool, priv: int, tick: int, demand: bool):
        """Route to the part holding the block, else to the fill target.

        A write that finds its block in the STT part *migrates* it to
        the SRAM part (write-hit migration — the defining move of hybrid
        caches): the STT copy is read out and invalidated, and the write
        lands in SRAM.  The read and the SRAM fill are charged to their
        respective parts.
        """
        if self.sram.contains(addr):
            return self.sram.access(addr, is_write, priv, tick, demand)
        if self.stt.contains(addr):
            if not is_write:
                return self.stt.access(addr, is_write, priv, tick, demand)
            # count writes per block; only write-*intensive* blocks earn
            # migration — migrating on the first write thrashes the small
            # SRAM part with blocks written once and read forever after
            block = addr & self._block_mask
            count = self._write_counts.get(block, 0) + 1
            if count < self.migrate_threshold:
                self._write_counts[block] = count
                if len(self._write_counts) > 8192:
                    self._write_counts.pop(next(iter(self._write_counts)))
                return self.stt.access(addr, is_write, priv, tick, demand)
            self._write_counts.pop(block, None)
            read = self.stt.access(addr, False, priv, tick, demand=False)
            if read.hit:  # may have expired between contains() and here
                self.stt.invalidate(addr, tick)
            self.migrations += 1
            return self.sram.access(addr, True, priv, tick, demand)
        # absent everywhere: write-backs allocate in SRAM, fills in STT
        target = self.sram if is_write else self.stt
        return target.access(addr, is_write, priv, tick, demand)

    def parts(self) -> tuple[FixedSegment, FixedSegment]:
        """The SRAM and STT parts, for replay and reporting."""
        return (
            FixedSegment(f"{self.label}-sram", self.sram, self.sram_tech),
            FixedSegment(f"{self.label}-stt", self.stt, self.stt_tech),
        )


@dataclass(frozen=True)
class HybridPartitionDesign:
    """User/kernel partition whose segments are SRAM+STT hybrids.

    Every part replaces LRU.

    Args:
        user_sram_ways/user_stt_ways: The user segment's split (default
            1 SRAM + 7 STT ways = the canonical 512 KB).
        kernel_sram_ways/kernel_stt_ways: The kernel segment's split
            (default 1 + 3 = 256 KB).

    Both SRAM parts use :func:`~repro.energy.technology.sram` and both
    STT parts medium-retention STT-RAM.  They are fields (not
    constructor arguments) so the content key hashes their parameters.
    """

    user_sram_ways: int = 1
    user_stt_ways: int = 7
    kernel_sram_ways: int = 1
    kernel_stt_ways: int = 3
    name: str = "hybrid"
    sram_tech: MemoryTechnology = field(init=False, default_factory=lambda: sram())
    stt_tech: MemoryTechnology = field(
        init=False, default_factory=lambda: stt_ram("medium")
    )

    def __post_init__(self) -> None:
        if min(self.user_sram_ways, self.user_stt_ways,
               self.kernel_sram_ways, self.kernel_stt_ways) <= 0:
            raise ValueError("every hybrid part needs at least one way")

    def run(
        self, stream: L2Stream, platform: PlatformConfig, engine: str = "auto"
    ) -> DesignResult:
        """Replay ``stream`` through the two hybrid segments.

        ``engine`` follows the shared contract (see
        :func:`~repro.core.pipeline.run_fixed_design`); block migration
        between parts has no vectorized path, so ``"fast"`` raises and
        ``"auto"`` always replays through the reference engine.
        """
        session = ReplaySession(self.name, stream, engine)
        session.dispatch_fast(
            None, "cross-part block migration needs the per-access engine"
        )
        user = _HybridSegment("user", platform, self.user_sram_ways, self.user_stt_ways,
                              self.sram_tech, self.stt_tech)
        kernel = _HybridSegment("kernel", platform, self.kernel_sram_ways,
                                self.kernel_stt_ways, self.sram_tech, self.stt_tech)
        kernel_priv = int(Privilege.KERNEL)
        parts = [*user.parts(), *kernel.parts()]
        session.replay_fixed(parts, lambda priv: kernel if priv == kernel_priv else user)

        assembler = ResultAssembler(session, platform)
        assembler.weigh_timing([(part.cache.stats, part.tech) for part in parts])
        return assembler.finish(
            [
                SegmentOutcome(part.name, part.tech, part.cache.stats, part.cache.size_bytes)
                for part in parts
            ],
            extras={"migrations": user.migrations + kernel.migrations},
        )
