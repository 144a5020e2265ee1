"""Mutable per-cache statistics counters and derived metrics.

One :class:`CacheStats` instance accompanies every simulated cache (or
cache segment).  Counters are plain integers updated on the hot path;
derived rates are properties.  ``merge`` lets partitioned designs report
a whole-L2 view from per-segment counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import Privilege, sum_fields

__all__ = ["CacheStats"]

@dataclass
class CacheStats:
    """Counters for one cache.

    ``evictions_cross[victim][aggressor]`` counts evictions where a block
    owned by privilege ``victim`` was replaced to make room for an access
    at privilege ``aggressor`` — the paper's user/kernel interference
    metric is the off-diagonal mass of this 2x2 matrix.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    expiry_invalidations: int = 0
    expiry_writebacks: int = 0
    refresh_writes: int = 0
    gate_flushes: int = 0
    demand_accesses: int = 0
    demand_misses: int = 0
    write_accesses: int = 0
    accesses_by_priv: list[int] = field(default_factory=lambda: [0, 0])
    misses_by_priv: list[int] = field(default_factory=lambda: [0, 0])
    evictions_cross: list[list[int]] = field(default_factory=lambda: [[0, 0], [0, 0]])

    @property
    def miss_rate(self) -> float:
        """Misses per access over all accesses (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def demand_miss_rate(self) -> float:
        """Misses per *demand* access (writebacks from L1 excluded)."""
        return self.demand_misses / self.demand_accesses if self.demand_accesses else 0.0

    def miss_rate_of(self, privilege: Privilege) -> float:
        """Miss rate restricted to one privilege level."""
        acc = self.accesses_by_priv[privilege]
        return self.misses_by_priv[privilege] / acc if acc else 0.0

    def access_share_of(self, privilege: Privilege) -> float:
        """Fraction of accesses issued at ``privilege``."""
        return self.accesses_by_priv[privilege] / self.accesses if self.accesses else 0.0

    @property
    def cross_privilege_evictions(self) -> int:
        """Evictions where aggressor and victim privilege differ."""
        return self.evictions_cross[0][1] + self.evictions_cross[1][0]

    @property
    def total_writes(self) -> int:
        """All array writes: fills, write hits and refresh rewrites.

        This is the quantity the STT-RAM dynamic-energy model charges at
        write-pulse cost.
        """
        return self.fills + self.write_accesses + self.refresh_writes

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` if counters are inconsistent."""
        assert self.hits + self.misses == self.accesses, "hits + misses != accesses"
        assert self.fills <= self.misses, "more fills than misses"
        assert self.evictions <= self.fills, "more evictions than fills"
        assert self.writebacks <= self.evictions + self.expiry_writebacks + self.gate_flushes, (
            "writebacks exceed evictions + expiry writebacks + gating flushes"
        )
        assert sum(self.accesses_by_priv) == self.accesses, "privilege access split broken"
        assert sum(self.misses_by_priv) == self.misses, "privilege miss split broken"
        assert self.demand_misses <= self.demand_accesses, "demand miss overflow"

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the element-wise sum of two stats objects."""
        return sum_fields(self, other)
