"""Memory technology parameters: SRAM and multi-retention STT-RAM.

The paper takes its technology numbers from CACTI/NVSim runs that we
cannot reproduce offline; the constants here are chosen inside published
ranges (CACTI 6.5 low-power SRAM; Sun et al., HPCA 2011 multi-retention
STT-RAM; Smullen et al., HPCA 2011) and then *calibrated as a set* so the
baseline L2 energy splits between leakage and dynamic energy the way the
paper's results imply (see EXPERIMENTS.md).  What the conclusions rely on
is preserved structurally:

* SRAM leakage dominates L2 energy and scales with capacity;
* STT-RAM has near-zero array leakage but expensive writes;
* relaxing STT-RAM retention (lower thermal stability factor Δ) lowers
  write energy and latency roughly linearly in Δ, at the price of data
  decay that must be handled by refresh or invalidation.

Retention windows are scaled to the simulated trace span (a few ms of
execution standing in for seconds of real app time) so that the ratio
``retention / reuse interval`` sits in the same regime as the paper's
10 years / 1 s / 10 ms classes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "RetentionClass",
    "MemoryTechnology",
    "RETENTION_CLASSES",
    "sram",
    "stt_ram",
    "REFERENCE_SIZE_BYTES",
    "DYNAMIC_ENERGY_SIZE_EXPONENT",
    "DRAM_ACCESS_ENERGY_NJ",
]

#: Capacity at which the per-access energies below are quoted.
REFERENCE_SIZE_BYTES = 1024 * 1024

#: Per-access (read or write) energy scales as capacity**exponent — the
#: CACTI-style wordline/bitline/H-tree growth.
DYNAMIC_ENERGY_SIZE_EXPONENT = 0.5

#: Energy of one DRAM block transfer (row activation amortised).  Used
#: for the system-level view only; the paper's headline metric is L2
#: cache energy.
DRAM_ACCESS_ENERGY_NJ = 18.0


@dataclass(frozen=True)
class RetentionClass:
    """One STT-RAM retention level.

    Attributes:
        name: ``"long"``, ``"medium"`` or ``"short"``.
        retention_s: Data retention window in seconds, or ``None`` for a
            window far beyond any simulation (the 10-year class).
        write_energy_scale: Write pulse energy relative to the long
            class (lower thermal stability needs a weaker/shorter pulse).
        write_latency_cycles: Extra write-pulse latency in core cycles
            over an SRAM write.
    """

    name: str
    retention_s: float | None
    write_energy_scale: float
    write_latency_cycles: int

    def retention_ticks(self, clock_hz: float) -> int | None:
        """Retention window in ticks at ``clock_hz`` (None = unbounded)."""
        if self.retention_s is None:
            return None
        return max(1, int(self.retention_s * clock_hz))


#: The three retention levels of the multi-retention design.  The medium
#: and short windows are scaled to the ~3-5 ms trace span (see module
#: docstring); their *ratios* to block reuse intervals match the paper's
#: regime: kernel blocks are re-referenced well inside the short window,
#: user blocks have dead times far beyond it.
RETENTION_CLASSES: dict[str, RetentionClass] = {
    "long": RetentionClass("long", None, 1.0, 10),
    "medium": RetentionClass("medium", 4.0e-2, 0.45, 5),
    "short": RetentionClass("short", 8.0e-3, 0.22, 2),
}


@dataclass(frozen=True)
class MemoryTechnology:
    """Energy/latency parameters of one cache array technology.

    Per-access energies are quoted at :data:`REFERENCE_SIZE_BYTES` and
    scaled by :meth:`read_energy_nj` / :meth:`write_energy_nj`.
    """

    name: str
    read_energy_nj_ref: float
    write_energy_nj_ref: float
    leakage_mw_per_mb: float
    extra_read_cycles: int = 0
    extra_write_cycles: int = 0
    retention: RetentionClass | None = None
    non_volatile: bool = False

    def _scale(self, size_bytes: int) -> float:
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes}")
        return (size_bytes / REFERENCE_SIZE_BYTES) ** DYNAMIC_ENERGY_SIZE_EXPONENT

    def read_energy_nj(self, size_bytes: int) -> float:
        """Per-read energy (nJ) of an array of ``size_bytes``."""
        return self.read_energy_nj_ref * self._scale(size_bytes)

    def write_energy_nj(self, size_bytes: int) -> float:
        """Per-write energy (nJ) of an array of ``size_bytes``."""
        return self.write_energy_nj_ref * self._scale(size_bytes)

    def retention_ticks(self, clock_hz: float) -> int | None:
        """Retention window in ticks, or ``None`` when effectively infinite."""
        if self.retention is None:
            return None
        return self.retention.retention_ticks(clock_hz)


def sram() -> MemoryTechnology:
    """Low-power SRAM as used by the baseline mobile L2."""
    return MemoryTechnology(
        name="sram",
        read_energy_nj_ref=0.75,
        write_energy_nj_ref=0.75,
        leakage_mw_per_mb=95.0,
        extra_read_cycles=0,
        extra_write_cycles=0,
        retention=None,
        non_volatile=False,
    )


def stt_ram(retention: str = "long") -> MemoryTechnology:
    """STT-RAM at the given retention class (``RETENTION_CLASSES`` key)."""
    if retention not in RETENTION_CLASSES:
        raise ValueError(
            f"unknown retention class {retention!r}; choose from {sorted(RETENTION_CLASSES)}"
        )
    cls = RETENTION_CLASSES[retention]
    base_write_nj = 5.8  # long-retention write pulse at the reference size
    return MemoryTechnology(
        name=f"stt-{cls.name}",
        read_energy_nj_ref=0.62,
        write_energy_nj_ref=base_write_nj * cls.write_energy_scale,
        leakage_mw_per_mb=24.0,
        extra_read_cycles=0,
        extra_write_cycles=cls.write_latency_cycles,
        retention=cls,
        non_volatile=True,
    )
