"""The :class:`Trace` container — a tagged memory-access stream.

A trace is the unit of workload in this library.  It holds four parallel
C-contiguous columns (tick, address, access kind, privilege) plus the
workload name and the number of instructions the stream represents, and
offers cheap views (slices, privilege filters) used throughout the
experiment harness.  The generator writes the columns and the L1 filter
reads them in place; :attr:`Trace.records` packs them into the
:data:`repro.types.TRACE_DTYPE` record layout that ``.npz`` files and the
golden digests use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import TRACE_DTYPE, AccessKind, Privilege

__all__ = ["Trace"]

#: Column attribute -> its ``TRACE_DTYPE`` field.
_FIELDS = {"ticks": "tick", "addrs": "addr", "kinds": "kind", "privs": "priv"}


@dataclass(frozen=True)
class Trace:
    """An immutable memory-access trace.

    Attributes:
        name: Workload identifier (for example ``"browser"``).
        ticks: Tick (cycle) of each access, ``uint64``, non-decreasing.
        addrs: Byte address of each access, ``uint64``.
        kinds: Access kind (values of :class:`AccessKind`), ``uint8``.
        privs: Privilege (values of :class:`Privilege`), ``uint8``.
        instructions: Number of dynamic instructions the trace stands
            for.  The timing model charges ``base_cpi`` cycles per
            instruction on top of memory stalls.

    Each column is a 1-D C-contiguous array with the dtype of its
    :data:`~repro.types.TRACE_DTYPE` field, and all four have one length.
    """

    name: str
    ticks: np.ndarray
    addrs: np.ndarray
    kinds: np.ndarray
    privs: np.ndarray
    instructions: int

    def __post_init__(self) -> None:
        n = len(self.ticks)
        for attr, field in _FIELDS.items():
            col = getattr(self, attr)
            if col.dtype != TRACE_DTYPE[field]:
                raise TypeError(f"{attr} must have the TRACE_DTYPE {field!r} dtype "
                                f"{TRACE_DTYPE[field]}, got {col.dtype}")
            if col.ndim != 1 or not col.flags.c_contiguous or len(col) != n:
                raise ValueError(f"{attr} must be a C-contiguous 1-D column of {n} "
                                 f"rows, got shape {col.shape}")
        if self.instructions < n:
            raise ValueError(
                f"instructions ({self.instructions}) cannot be fewer than "
                f"accesses ({n})"
            )
        if n > 1 and (self.ticks[1:] < self.ticks[:-1]).any():
            raise ValueError("trace ticks must be non-decreasing")

    @classmethod
    def from_records(cls, name: str, records: np.ndarray, instructions: int) -> "Trace":
        """A trace holding a copy of each field of a ``TRACE_DTYPE`` array."""
        if records.dtype != TRACE_DTYPE:
            raise TypeError(f"records must have TRACE_DTYPE, got {records.dtype}")
        if records.ndim != 1:
            raise ValueError(f"records must be 1-D, got shape {records.shape}")
        return cls(name, *(np.ascontiguousarray(records[field]) for field in _FIELDS.values()),
                   instructions)

    @property
    def records(self) -> np.ndarray:
        """The columns packed into a new ``TRACE_DTYPE`` record array."""
        records = np.empty(len(self), dtype=TRACE_DTYPE)
        for attr, field in _FIELDS.items():
            records[field] = getattr(self, attr)
        return records

    def __len__(self) -> int:
        return len(self.ticks)

    @property
    def duration_ticks(self) -> int:
        """Tick span covered by the trace (0 for an empty trace)."""
        if not len(self):
            return 0
        return int(self.ticks[-1]) + 1

    def privilege_mask(self, privilege: Privilege) -> np.ndarray:
        """Boolean mask selecting accesses at ``privilege``."""
        return self.privs == np.uint8(privilege)

    def kind_mask(self, kind: AccessKind) -> np.ndarray:
        """Boolean mask selecting accesses of ``kind``."""
        return self.kinds == np.uint8(kind)

    def select(self, mask: np.ndarray) -> "Trace":
        """New trace keeping only ``mask``-selected accesses."""
        return Trace(self.name, self.ticks[mask], self.addrs[mask], self.kinds[mask],
                     self.privs[mask], self.instructions)

    def head(self, n: int) -> "Trace":
        """Prefix of at most ``n`` accesses (instruction count scaled)."""
        if n >= len(self):
            return self
        frac = n / len(self)
        return Trace(self.name, self.ticks[:n], self.addrs[:n], self.kinds[:n],
                     self.privs[:n], max(n, int(self.instructions * frac)))

    def kernel_fraction(self) -> float:
        """Fraction of accesses issued at kernel privilege."""
        if not len(self):
            return 0.0
        return float(np.mean(self.privilege_mask(Privilege.KERNEL)))

    def write_fraction(self) -> float:
        """Fraction of accesses that are stores."""
        if not len(self):
            return 0.0
        return float(np.mean(self.kind_mask(AccessKind.STORE)))

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"Trace({self.name!r}: {len(self):,} accesses, "
            f"{self.instructions:,} instructions, "
            f"kernel {self.kernel_fraction():.1%}, stores {self.write_fraction():.1%})"
        )
