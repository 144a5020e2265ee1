"""Configuration dataclasses for the simulated platform.

Every knob of the model platform lives here so that experiments are fully
described by plain data.  The default values model the kind of mobile SoC
the paper evaluates: a dual-issue in-order ARM application core with split
32 KB L1 caches and a shared 1 MB 16-way L2, clocked at 1 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import CACHE_BLOCK_SIZE

__all__ = [
    "CacheGeometry",
    "LatencyConfig",
    "PlatformConfig",
    "DEFAULT_PLATFORM",
    "platform_preset",
]


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache level.

    ``size_bytes`` must equal ``num_sets * associativity * block_size``
    with power-of-two sets and block size; :meth:`validate` checks this.
    """

    size_bytes: int
    associativity: int
    block_size: int = CACHE_BLOCK_SIZE

    def __post_init__(self) -> None:
        self.validate()

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, associativity and block size."""
        return self.size_bytes // (self.associativity * self.block_size)

    @property
    def num_blocks(self) -> int:
        """Total number of block frames in the cache."""
        return self.size_bytes // self.block_size

    def validate(self) -> None:
        """Raise :class:`ValueError` for a geometry the model cannot index."""
        if self.size_bytes <= 0 or self.associativity <= 0 or self.block_size <= 0:
            raise ValueError(f"cache geometry fields must be positive: {self}")
        if self.block_size & (self.block_size - 1):
            raise ValueError(f"block_size must be a power of two, got {self.block_size}")
        sets = self.size_bytes / (self.associativity * self.block_size)
        if sets != int(sets) or int(sets) < 1:
            raise ValueError(
                f"size {self.size_bytes} not divisible into {self.associativity}-way "
                f"sets of {self.block_size}-byte blocks"
            )
        n = int(sets)
        if n & (n - 1):
            raise ValueError(f"number of sets must be a power of two, got {n}")

    def with_ways(self, associativity: int) -> "CacheGeometry":
        """Same set count and block size, different way count.

        This is how partitioned segments are derived from a parent
        geometry: a segment of *k* ways of a 1024-set cache keeps the
        1024 sets and has ``k * num_sets * block_size`` bytes.
        """
        if associativity <= 0:
            raise ValueError(f"associativity must be positive, got {associativity}")
        return CacheGeometry(
            size_bytes=self.num_sets * associativity * self.block_size,
            associativity=associativity,
            block_size=self.block_size,
        )


@dataclass(frozen=True)
class LatencyConfig:
    """Access latencies in core cycles for the timing model.

    ``l2_extra_write`` models the longer write pulse of STT-RAM; it is
    zero for SRAM and filled in per retention class by the energy layer.
    """

    l1_hit: int = 2
    l2_hit: int = 20
    l2_extra_write: int = 0
    dram: int = 140

    def __post_init__(self) -> None:
        if min(self.l1_hit, self.l2_hit, self.dram) <= 0 or self.l2_extra_write < 0:
            raise ValueError(f"latencies must be positive (extra write >= 0): {self}")


@dataclass(frozen=True)
class PlatformConfig:
    """Complete description of the simulated mobile platform."""

    l1i: CacheGeometry = field(default_factory=lambda: CacheGeometry(32 * 1024, 4))
    l1d: CacheGeometry = field(default_factory=lambda: CacheGeometry(32 * 1024, 4))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(1024 * 1024, 16))
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    clock_hz: float = 1.0e9
    base_cpi: float = 1.2

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {self.clock_hz}")
        if self.base_cpi <= 0:
            raise ValueError(f"base_cpi must be positive, got {self.base_cpi}")
        if not (self.l1i.block_size == self.l1d.block_size == self.l2.block_size):
            raise ValueError("all cache levels must share one block size")

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall-clock seconds at ``clock_hz``."""
        return cycles / self.clock_hz


#: The default platform used by every experiment unless overridden.
DEFAULT_PLATFORM = PlatformConfig()


def platform_preset(name: str) -> PlatformConfig:
    """Named platform configurations for cross-platform robustness checks.

    * ``"default"`` — the paper-era mobile SoC (1 GHz, 1 MB/16-way L2).
    * ``"little"`` — an efficiency core: 800 MHz, 16 KB L1s, 512 KB/8-way
      L2, slower DRAM path.
    * ``"big"`` — a performance core: 2 GHz, 64 KB L1s, 2 MB/16-way L2,
      lower base CPI.
    """
    if name == "default":
        return DEFAULT_PLATFORM
    if name == "little":
        return PlatformConfig(
            l1i=CacheGeometry(16 * 1024, 4),
            l1d=CacheGeometry(16 * 1024, 4),
            l2=CacheGeometry(512 * 1024, 8),
            latency=LatencyConfig(l1_hit=2, l2_hit=16, dram=170),
            clock_hz=0.8e9,
            base_cpi=1.4,
        )
    if name == "big":
        return PlatformConfig(
            l1i=CacheGeometry(64 * 1024, 4),
            l1d=CacheGeometry(64 * 1024, 4),
            l2=CacheGeometry(2 * 1024 * 1024, 16),
            latency=LatencyConfig(l1_hit=3, l2_hit=24, dram=220),
            clock_hz=2.0e9,
            base_cpi=0.9,
        )
    raise ValueError(f"unknown platform preset {name!r}; choose default/little/big")
