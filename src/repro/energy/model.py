"""Energy accounting: turn cache statistics into joules.

The L2 energy of a design is the sum over its segments of

* **leakage** — leakage power of the active array integrated over time
  (``byte_seconds`` lets the dynamic design pay only for powered ways),
* **reads** — every lookup reads the tag+data arrays,
* **writes** — fills, store hits and retention refreshes pay the write
  pulse, and
* **refresh** — the refresh share is also reported separately so the
  retention ablation can show it.

DRAM transfer energy is kept out of the L2 total (the paper's headline
is cache energy) but computed for the system-level sanity view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.stats import CacheStats
from repro.energy.technology import DRAM_ACCESS_ENERGY_NJ, MemoryTechnology
from repro.types import sum_fields

__all__ = ["EnergyBreakdown", "segment_energy", "dram_energy_j"]

_NJ = 1e-9


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one cache (or cache segment) in joules."""

    leakage_j: float
    read_j: float
    write_j: float
    refresh_j: float

    @property
    def dynamic_j(self) -> float:
        """All non-leakage energy."""
        return self.read_j + self.write_j + self.refresh_j

    @property
    def total_j(self) -> float:
        """Leakage plus dynamic energy."""
        return self.leakage_j + self.dynamic_j

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return sum_fields(self, other)

    @classmethod
    def zero(cls) -> "EnergyBreakdown":
        """Additive identity."""
        return cls(0.0, 0.0, 0.0, 0.0)

    def normalized_to(self, baseline: "EnergyBreakdown") -> float:
        """This total as a fraction of ``baseline``'s total."""
        if baseline.total_j <= 0:
            raise ValueError("baseline energy must be positive")
        return self.total_j / baseline.total_j


def segment_energy(
    stats: CacheStats,
    tech: MemoryTechnology,
    size_bytes: int,
    byte_seconds: float,
) -> EnergyBreakdown:
    """Energy of one cache segment.

    Args:
        stats: The segment's counters after simulation.
        tech: Array technology of the segment.
        size_bytes: Capacity used for per-access energy scaling (for a
            resizable segment, its maximum provisioned size).
        byte_seconds: Integral of powered capacity over wall-clock time;
            ``size_bytes * seconds`` for a fixed-size segment.

    Returns:
        The segment's :class:`EnergyBreakdown`.
    """
    if byte_seconds < 0:
        raise ValueError(f"byte_seconds must be >= 0, got {byte_seconds}")
    read_nj = tech.read_energy_nj(size_bytes)
    write_nj = tech.write_energy_nj(size_bytes)
    leakage_j = tech.leakage_mw_per_mb * 1e-3 * (byte_seconds / (1024 * 1024))
    read_j = stats.accesses * read_nj * _NJ
    data_writes = stats.fills + stats.write_accesses
    write_j = data_writes * write_nj * _NJ
    refresh_j = stats.refresh_writes * write_nj * _NJ
    return EnergyBreakdown(leakage_j, read_j, write_j, refresh_j)


def dram_energy_j(dram_reads: int, dram_writes: int) -> float:
    """Energy of the DRAM transfers a design caused (system view only)."""
    if dram_reads < 0 or dram_writes < 0:
        raise ValueError("DRAM access counts must be >= 0")
    return (dram_reads + dram_writes) * DRAM_ACCESS_ENERGY_NJ * _NJ
