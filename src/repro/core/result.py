"""Result containers shared by every L2 design."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.cache.stats import CacheStats
from repro.energy.model import EnergyBreakdown
from repro.timing.cpu import TimingResult
from repro.types import from_data, to_data

__all__ = ["SegmentReport", "DesignResult"]

#: ``json.dumps(..., allow_nan=False)`` builds this encoder on every call.
_EXTRAS_JSON = json.JSONEncoder(allow_nan=False)


@dataclass(frozen=True)
class SegmentReport:
    """Post-simulation report of one cache segment.

    ``size_bytes`` is the provisioned capacity (the array that exists in
    silicon); ``byte_seconds`` integrates the *powered* capacity over
    time, which is smaller when the dynamic controller gates ways off.
    """

    name: str
    tech_name: str
    size_bytes: int
    byte_seconds: float
    stats: CacheStats
    energy: EnergyBreakdown


@dataclass(frozen=True)
class DesignResult:
    """Everything one design produced on one workload."""

    design: str
    app: str
    segments: tuple[SegmentReport, ...]
    timing: TimingResult
    dram_j: float
    extras: dict = field(default_factory=dict)

    @property
    def l2_stats(self) -> CacheStats:
        """Whole-L2 statistics (all segments merged)."""
        merged = CacheStats()
        for seg in self.segments:
            merged = merged.merge(seg.stats)
        return merged

    @property
    def l2_energy(self) -> EnergyBreakdown:
        """Whole-L2 energy (all segments summed)."""
        total = EnergyBreakdown.zero()
        for seg in self.segments:
            total = total + seg.energy
        return total

    @property
    def active_bytes(self) -> int:
        """Total provisioned L2 capacity of the design."""
        return sum(seg.size_bytes for seg in self.segments)

    def segment(self, name: str) -> SegmentReport:
        """Look up a segment report by name."""
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"design {self.design!r} has no segment {name!r}")

    def to_dict(self) -> dict:
        """Plain-data form for the result store (:func:`repro.types.to_data`).

        ``extras`` are JSON-shaped (scalars, lists, dicts) for every
        design, the banked DRAM model's ``dram_stats`` included; a live
        object there raises :class:`TypeError`.
        """
        data = to_data(self)
        try:
            data["extras"] = json.loads(_EXTRAS_JSON.encode(self.extras))
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"result extras of {self.design!r} on {self.app!r} are not "
                f"JSON-serialisable: {exc}"
            ) from exc
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DesignResult":
        """Inverse of :meth:`to_dict`; a missing field raises ``KeyError``."""
        return from_data(cls, data)
