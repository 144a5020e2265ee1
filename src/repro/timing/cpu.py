"""In-order CPU timing model.

The paper reports performance loss of each cache design relative to the
SRAM baseline.  A full out-of-order model is unnecessary for an in-order
mobile core: execution time decomposes into a base CPI term plus memory
stall terms, which is the classic analytical model for such cores.

* Every L1 demand miss stalls for the L2 access latency (plus any extra
  read latency of the L2 technology).
* Every L2 demand miss additionally stalls for the DRAM latency.
* L2 write traffic (fills, write-backs, refreshes) occupies the L2 write
  port; long STT-RAM write pulses delay a fraction of subsequent demand
  reads.  We charge ``WRITE_CONTENTION_FACTOR`` of each extra write
  cycle, the standard buffered-write approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PlatformConfig

__all__ = ["TimingResult", "compute_timing", "WRITE_CONTENTION_FACTOR"]

#: Fraction of each *extra* L2 write-pulse cycle that ends up stalling
#: the core (write buffers hide the rest).
WRITE_CONTENTION_FACTOR = 0.12


@dataclass(frozen=True)
class TimingResult:
    """Execution-time accounting of one design on one workload."""

    instructions: int
    base_cycles: float
    l2_access_stall_cycles: float
    dram_stall_cycles: float
    write_contention_cycles: float
    duration_ticks: int

    @property
    def stall_cycles(self) -> float:
        """All memory stall cycles."""
        return (
            self.l2_access_stall_cycles
            + self.dram_stall_cycles
            + self.write_contention_cycles
        )

    @property
    def busy_cycles(self) -> float:
        """Cycles the core is executing or stalled (excludes idle waits).

        This is the quantity performance loss is measured on — idle time
        between user interactions is not "performance"."""
        return self.base_cycles + self.stall_cycles

    @property
    def total_cycles(self) -> float:
        """Wall-clock cycles including inter-event idle time.

        Leakage energy burns for this long.  ``duration_ticks`` already
        contains one tick per instruction slot; the stall cycles and the
        above-1.0 share of the base CPI extend it.
        """
        return self.duration_ticks + (self.base_cycles - self.instructions) + self.stall_cycles

    @property
    def ipc(self) -> float:
        """Instructions per busy cycle."""
        return self.instructions / self.busy_cycles if self.busy_cycles else 0.0

    def perf_loss_vs(self, baseline: "TimingResult") -> float:
        """Relative slowdown of this design against ``baseline``."""
        if baseline.busy_cycles <= 0:
            raise ValueError("baseline busy cycles must be positive")
        return self.busy_cycles / baseline.busy_cycles - 1.0

    def seconds(self, platform: PlatformConfig) -> float:
        """Wall-clock duration at the platform clock."""
        return platform.seconds(self.total_cycles)


def compute_timing(
    platform: PlatformConfig,
    instructions: int,
    duration_ticks: int,
    l1_demand_misses: int,
    l2_demand_misses: int,
    l2_extra_read_cycles: float,
    l2_extra_write_cycles: float,
    l2_writes: int,
    dram_stall_override: float | None = None,
) -> TimingResult:
    """Assemble a :class:`TimingResult` from simulation counts.

    Args:
        platform: Latency and CPI parameters.
        instructions: Dynamic instruction count of the trace.
        duration_ticks: Trace tick span (instruction slots plus idle).
        l1_demand_misses: Demand misses of both L1s (each pays one L2
            round trip).
        l2_demand_misses: Demand misses of the L2 (each pays DRAM).
        l2_extra_read_cycles: Technology read-latency penalty per L2
            access (0 for SRAM).
        l2_extra_write_cycles: Technology write-pulse penalty per L2
            write (0 for SRAM).
        l2_writes: L2 array writes (fills + write hits + refreshes).
        dram_stall_override: Total DRAM stall cycles measured by a
            detailed DRAM model; replaces the flat
            ``l2_demand_misses * latency.dram`` term when given.
    """
    if instructions <= 0:
        raise ValueError(f"instructions must be positive, got {instructions}")
    if min(l1_demand_misses, l2_demand_misses, l2_writes) < 0:
        raise ValueError("event counts must be >= 0")
    lat = platform.latency
    base = instructions * platform.base_cpi
    l2_stall = l1_demand_misses * (lat.l2_hit + l2_extra_read_cycles)
    if dram_stall_override is not None:
        if dram_stall_override < 0:
            raise ValueError("dram_stall_override must be >= 0")
        dram_stall = dram_stall_override
    else:
        dram_stall = l2_demand_misses * lat.dram
    contention = l2_writes * l2_extra_write_cycles * WRITE_CONTENTION_FACTOR
    return TimingResult(
        instructions=instructions,
        base_cycles=base,
        l2_access_stall_cycles=float(l2_stall),
        dram_stall_cycles=float(dram_stall),
        write_contention_cycles=float(contention),
        duration_ticks=duration_ticks,
    )
