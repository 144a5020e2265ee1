"""Drowsy-SRAM baseline (extension: the paper's natural SRAM competitor).

Before reaching for a new memory technology, an SRAM designer would try
*drowsy caching* (Flautner et al., ISCA 2002): lines untouched for a
window drop to a state-preserving low-voltage mode that cuts their
leakage by ~3-4x, waking with a one-cycle penalty on the next access.
Comparing the paper's STT-RAM designs against this stronger SRAM
baseline shows how much of the win survives: drowsy mode attacks the
same leakage but cannot approach STT-RAM's near-zero cell leakage, and
it must keep full voltage on everything recently used.

The cache engine does exact awake-time accounting per line (see
``SetAssociativeCache.drowsy_window``); this design converts awake/
drowsy byte-seconds into leakage energy and charges the wake-up cycles.
"""

from __future__ import annotations

from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import CacheGeometry, PlatformConfig
from repro.core.pipeline import FixedSegment, ReplaySession, ResultAssembler, SegmentOutcome
from repro.core.result import DesignResult
from repro.energy.model import EnergyBreakdown
from repro.energy.technology import MemoryTechnology, sram

__all__ = ["DrowsySRAMDesign", "DROWSY_LEAKAGE_SCALE", "DEFAULT_DROWSY_WINDOW"]

#: Leakage of a drowsy line relative to full voltage (ISCA'02 ballpark).
DROWSY_LEAKAGE_SCALE = 0.28

#: Ticks a line stays at full voltage after its last access.
DEFAULT_DROWSY_WINDOW = 4_000

#: Extra cycles to wake a drowsy line on access.
WAKEUP_CYCLES = 1


class DrowsySRAMDesign:
    """Shared SRAM L2 with per-line drowsy mode.

    Args:
        geometry: L2 geometry; defaults to the platform L2.
        drowsy_window: Full-voltage window after each access, in ticks.
        tech: SRAM parameter set (the leakage number is the full-voltage
            figure; drowsy lines burn ``DROWSY_LEAKAGE_SCALE`` of it).
        policy: Replacement policy.
    """

    def __init__(
        self,
        geometry: CacheGeometry | None = None,
        drowsy_window: int = DEFAULT_DROWSY_WINDOW,
        tech: MemoryTechnology | None = None,
        policy: str = "lru",
        name: str = "drowsy-sram",
    ) -> None:
        if drowsy_window <= 0:
            raise ValueError(f"drowsy_window must be positive, got {drowsy_window}")
        self.geometry = geometry
        self.drowsy_window = drowsy_window
        self.tech = tech if tech is not None else sram()
        if self.tech.retention is not None:
            raise ValueError("drowsy mode is an SRAM technique; use a retention-free tech")
        self.policy = policy
        self.name = name

    def run(
        self, stream: L2Stream, platform: PlatformConfig, engine: str = "auto"
    ) -> DesignResult:
        """Replay ``stream``; leakage splits into awake and drowsy parts.

        ``engine`` follows the shared contract (see
        :func:`~repro.core.pipeline.run_fixed_design`); drowsy mode has
        no vectorized path, so ``"fast"`` raises and ``"auto"`` always
        replays through the reference engine.
        """
        geometry = self.geometry if self.geometry is not None else platform.l2
        session = ReplaySession(self.name, stream, engine)
        session.dispatch_fast(
            None, "per-line drowsy voltage tracking needs the per-access engine"
        )
        cache = SetAssociativeCache(
            geometry, self.policy, drowsy_window=self.drowsy_window, name="l2-drowsy"
        )
        session.replay_fixed([FixedSegment("shared", cache, self.tech)], lambda priv: cache)

        stats = cache.stats
        assembler = ResultAssembler(session, platform)
        # wake-ups delay the demand accesses that find their line drowsy
        assembler.weigh_timing(
            [(stats, self.tech)],
            extra_read=(
                cache.drowsy_wakeups * WAKEUP_CYCLES / stats.demand_accesses
                if stats.demand_accesses
                else 0.0
            ),
            extra_write=0.0,
        )

        size = cache.size_bytes
        total_byte_seconds = size * assembler.seconds
        # exact awake integral from the engine, scaled (like the dynamic
        # design) for the stall/CPI dilation beyond trace ticks
        awake_byte_seconds = (
            cache.awake_block_ticks * geometry.block_size * assembler.dilation
            / platform.clock_hz
        )
        awake_byte_seconds = min(awake_byte_seconds, total_byte_seconds)
        drowsy_byte_seconds = total_byte_seconds - awake_byte_seconds
        weighted_byte_seconds = awake_byte_seconds + DROWSY_LEAKAGE_SCALE * drowsy_byte_seconds
        mb = 1024 * 1024
        leakage_j = self.tech.leakage_mw_per_mb * 1e-3 * weighted_byte_seconds / mb
        read_j = stats.accesses * self.tech.read_energy_nj(size) * 1e-9
        write_j = (stats.fills + stats.write_accesses) * self.tech.write_energy_nj(size) * 1e-9

        outcome = SegmentOutcome(
            name="shared",
            tech=self.tech,
            stats=stats,
            size_bytes=size,
            byte_seconds=weighted_byte_seconds,
            energy=EnergyBreakdown(leakage_j, read_j, write_j, 0.0),
            tech_name=f"{self.tech.name}-drowsy",
        )
        return assembler.finish(
            [outcome],
            extras={
                "drowsy_wakeups": cache.drowsy_wakeups,
                "awake_fraction": awake_byte_seconds / total_byte_seconds
                if total_byte_seconds
                else 0.0,
            },
        )
