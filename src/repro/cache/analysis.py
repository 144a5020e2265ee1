"""Diagnostic analyses of cache pressure and set balance.

Utilities for answering "is this miss rate capacity or conflict?" —
useful when sizing partitions (a high coefficient of variation across
sets means more ways fix less than more sets would).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CacheGeometry

__all__ = ["SetPressure", "set_pressure"]


@dataclass(frozen=True)
class SetPressure:
    """Distribution of accesses and distinct blocks across sets."""

    accesses_per_set: np.ndarray
    blocks_per_set: np.ndarray

    @property
    def access_cov(self) -> float:
        """Coefficient of variation of per-set access counts."""
        mean = self.accesses_per_set.mean()
        return float(self.accesses_per_set.std() / mean) if mean else 0.0

    @property
    def block_cov(self) -> float:
        """Coefficient of variation of per-set distinct-block counts."""
        mean = self.blocks_per_set.mean()
        return float(self.blocks_per_set.std() / mean) if mean else 0.0

    @property
    def max_blocks_in_a_set(self) -> int:
        """Worst-case distinct blocks competing for one set."""
        return int(self.blocks_per_set.max()) if len(self.blocks_per_set) else 0

    def conflict_prone(self, associativity: int) -> float:
        """Fraction of sets whose distinct-block demand exceeds the ways."""
        if not len(self.blocks_per_set):
            return 0.0
        return float(np.mean(self.blocks_per_set > associativity))


def set_pressure(addrs: np.ndarray, geometry: CacheGeometry) -> SetPressure:
    """Measure per-set pressure of an address stream under ``geometry``."""
    geometry.validate()
    block_bits = geometry.block_size.bit_length() - 1
    sets = geometry.num_sets
    blocks = (np.asarray(addrs, dtype=np.uint64) >> np.uint64(block_bits))
    set_idx = (blocks % np.uint64(sets)).astype(np.int64)
    accesses = np.bincount(set_idx, minlength=sets)
    unique_blocks = np.unique(blocks)
    unique_sets = (unique_blocks % np.uint64(sets)).astype(np.int64)
    distinct = np.bincount(unique_sets, minlength=sets)
    return SetPressure(accesses_per_set=accesses, blocks_per_set=distinct)
