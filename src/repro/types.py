"""Fundamental value types shared across the whole library.

The simulator is trace driven: a workload is a sequence of tagged memory
accesses (see :mod:`repro.trace`).  The types here define the vocabulary
used by every layer — privilege levels, access kinds, and the numpy record
layout of a trace — so that the trace generator, the cache simulator, the
energy model, and the experiment harness all agree on the encoding.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "Privilege",
    "AccessKind",
    "TRACE_DTYPE",
    "CACHE_BLOCK_SIZE",
    "KERNEL_SPACE_START",
    "is_kernel_address",
]


#: Cache block (line) size in bytes used throughout the model hierarchy.
#: The paper's platform uses 64-byte lines, the near-universal choice for
#: ARM application processors of the era.
CACHE_BLOCK_SIZE = 64

#: Start of the kernel virtual address range.  We follow the classic
#: 32-bit Linux 3G/1G split used by the Android platforms the paper
#: studies: user addresses live below ``0xC0000000``, kernel addresses at
#: or above it.
KERNEL_SPACE_START = 0xC000_0000


class Privilege(enum.IntEnum):
    """Privilege level of a memory access (who issued it)."""

    USER = 0
    KERNEL = 1

    @property
    def label(self) -> str:
        """Lower-case human-readable name (``"user"`` / ``"kernel"``)."""
        return self.name.lower()


class AccessKind(enum.IntEnum):
    """What a memory access does.

    ``IFETCH`` goes through the L1 instruction cache, ``LOAD`` and
    ``STORE`` through the L1 data cache.  ``WRITEBACK`` never appears in a
    generated trace; it is synthesised by the cache model when a dirty
    block is evicted from an upper level.
    """

    IFETCH = 0
    LOAD = 1
    STORE = 2
    WRITEBACK = 3

    @property
    def is_write(self) -> bool:
        """True for kinds that modify the target block."""
        return self in (AccessKind.STORE, AccessKind.WRITEBACK)


#: Numpy record layout of one trace entry.
#:
#: ``tick``
#:     Logical time of the access in core cycles since trace start.  Ticks
#:     are strictly non-decreasing.  They drive the leakage/refresh clock
#:     of the energy model and the retention-expiry clock of STT-RAM.
#: ``addr``
#:     Byte address of the access.
#: ``kind``
#:     An :class:`AccessKind` value.
#: ``priv``
#:     A :class:`Privilege` value.
TRACE_DTYPE = np.dtype(
    [
        ("tick", np.uint64),
        ("addr", np.uint64),
        ("kind", np.uint8),
        ("priv", np.uint8),
    ]
)


def is_kernel_address(addr: int | np.ndarray) -> bool | np.ndarray:
    """True when ``addr`` lies in the kernel half of the address space."""
    return addr >= KERNEL_SPACE_START
