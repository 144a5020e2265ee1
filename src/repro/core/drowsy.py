"""Drowsy-SRAM baseline (extension: the paper's natural SRAM competitor).

Before reaching for a new memory technology, an SRAM designer would try
*drowsy caching* (Flautner et al., ISCA 2002): lines untouched for a
window drop to a state-preserving low-voltage mode that cuts their
leakage by ~3-4x, waking with a one-cycle penalty on the next access.
Comparing the paper's STT-RAM designs against this stronger SRAM
baseline shows how much of the win survives: drowsy mode attacks the
same leakage but cannot approach STT-RAM's near-zero cell leakage, and
it must keep full voltage on everything recently used.

Drowsy mode is state-preserving, so the design replays like the SRAM
baseline, on either engine, and reads each line's voltage history off
the replay afterwards: :func:`awake_ticks` integrates the exact
awake time from the stream's ticks and the replay's evictions
(:class:`~repro.cache.fastsim.MissEvents`).  The design
converts awake/drowsy byte-seconds into leakage energy and charges the
wake-up cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache import fastsim
from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import CacheGeometry, PlatformConfig
from repro.core.pipeline import FixedSegment, ReplaySession, ResultAssembler, SegmentOutcome
from repro.core.result import DesignResult
from repro.energy.model import EnergyBreakdown
from repro.energy.technology import MemoryTechnology, sram

__all__ = ["DrowsySRAMDesign", "DROWSY_LEAKAGE_SCALE", "DEFAULT_DROWSY_WINDOW", "awake_ticks"]

#: Leakage of a drowsy line relative to full voltage (ISCA'02 ballpark).
DROWSY_LEAKAGE_SCALE = 0.28

#: Ticks a line stays at full voltage after its last access.
DEFAULT_DROWSY_WINDOW = 4_000

#: Extra cycles to wake a drowsy line on access.
WAKEUP_CYCLES = 1


def awake_ticks(ticks, addrs, events, finalize_tick: int, window: int,
                block_size: int) -> tuple[int, int]:
    """Drowsy accounting of one replay: ``(awake block-ticks, wake-ups)``.

    A line stays at full voltage for ``window`` ticks after each touch,
    then drops into the drowsy mode until touched again.  Every row
    touches its block and opens a gap that runs to the block's next
    touch or departure: the miss that evicted the row's residency
    (``events``), else the next row of its block (the block stayed
    resident), else ``finalize_tick``.  A gap is awake for
    ``min(gap, window)`` ticks and counts one wake-up when it outlasts
    the window, settled at an eviction or the finalize tick alike.
    State-preserving SRAM loses a block only to eviction, so the
    evictions alone say which gaps end early.

    ``ticks``/``addrs`` are the replayed stream's columns and ``events``
    the replay's :class:`~repro.cache.fastsim.MissEvents`, whose indices
    are rows of that stream.
    """
    ticks = np.asarray(ticks, dtype=np.int64)
    n = len(ticks)
    shift = np.uint64(block_size.bit_length() - 1)
    blocks = np.asarray(addrs, dtype=np.uint64) >> shift
    order = np.argsort(blocks, kind="stable")  # each block's rows in stream order
    grouped = blocks[order]
    same = grouped[1:] == grouped[:-1]  # order[i + 1] is order[i]'s block's next row
    end = np.full(n, finalize_tick, dtype=np.int64)
    end[order[:-1][same]] = ticks[order[1:][same]]
    if len(events.evict_idx):
        # An evicted residency's last row is its block's last row before
        # the evicting miss: search (dense block id, row) keys.
        group = np.cumsum(np.r_[0, ~same])
        key = group * n + order
        victim = group[np.searchsorted(grouped, events.evict_addr >> shift)]
        last = order[np.searchsorted(key, victim * n + events.evict_idx) - 1]
        end[last] = ticks[events.evict_idx]
    gaps = end - ticks
    return int(np.minimum(gaps, window).sum()), int(np.count_nonzero(gaps > window))


@dataclass(frozen=True)
class DrowsySRAMDesign:
    """Shared LRU SRAM L2 with per-line drowsy mode.

    Args:
        geometry: L2 geometry; defaults to the platform L2.
        drowsy_window: Full-voltage window after each access, in ticks.
        tech: SRAM parameter set (the leakage number is the full-voltage
            figure; drowsy lines burn ``DROWSY_LEAKAGE_SCALE`` of it).
    """

    geometry: CacheGeometry | None = None
    drowsy_window: int = DEFAULT_DROWSY_WINDOW
    tech: MemoryTechnology = field(default_factory=lambda: sram())
    name: str = "drowsy-sram"

    def __post_init__(self) -> None:
        if self.drowsy_window <= 0:
            raise ValueError(f"drowsy_window must be positive, got {self.drowsy_window}")
        if self.tech.retention is not None:
            raise ValueError("drowsy mode is an SRAM technique; use a retention-free tech")

    def run(
        self, stream: L2Stream, platform: PlatformConfig, engine: str = "auto"
    ) -> DesignResult:
        """Replay ``stream``; leakage splits into awake and drowsy parts.

        ``engine`` follows the shared contract (see
        :func:`~repro.core.pipeline.run_fixed_design`).  Either engine's
        replay feeds :func:`awake_ticks`, which reads the awake time off
        its eviction events.
        """
        geometry = self.geometry if self.geometry is not None else platform.l2
        session = ReplaySession(self.name, stream, engine)
        cache = SetAssociativeCache(geometry, "lru", name="l2-drowsy")
        segments = [FixedSegment("shared", cache, self.tech)]
        if session.dispatch_fast(True, "always qualifies"):
            with session.replay_span():
                events = fastsim.run_fixed(stream, segments, lambda priv: cache, record_events=True)
        else:
            _, _, events = session.replay_fixed(segments, lambda priv: cache)
        awake, wakeups = awake_ticks(
            stream.ticks, stream.addrs, events, stream.duration_ticks, self.drowsy_window,
            geometry.block_size,
        )

        stats = cache.stats
        assembler = ResultAssembler(session, platform)
        # wake-ups delay the demand accesses that find their line drowsy
        assembler.weigh_timing(
            [(stats, self.tech)],
            extra_read=(
                wakeups * WAKEUP_CYCLES / stats.demand_accesses
                if stats.demand_accesses
                else 0.0
            ),
            extra_write=0.0,
        )

        size = cache.size_bytes
        total_byte_seconds = size * assembler.seconds
        # exact awake integral from the replay, scaled (like the dynamic
        # design) for the stall/CPI dilation beyond trace ticks
        awake_byte_seconds = awake * geometry.block_size * assembler.dilation / platform.clock_hz
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
                "drowsy_wakeups": wakeups,
                "awake_fraction": awake_byte_seconds / total_byte_seconds
                if total_byte_seconds
                else 0.0,
            },
        )
