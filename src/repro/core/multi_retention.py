"""Multi-retention STT-RAM assignment for the static partition.

The paper's second observation: once the L2 is split, the two segments
behave *completely differently*.

* **Kernel blocks** are re-referenced on every syscall, interrupt and
  IPC — their inter-access intervals are short and regular.  A
  short-retention STT-RAM cell (cheap, fast writes) never decays before
  its next use.
* **User blocks** have long dead times (the user working set turns over
  between interactions and sleeps across idle periods).  They need a
  longer retention window or they would miss on every return; the
  medium class covers their reuse horizon while still writing at less
  than half the long-retention pulse energy.

Hence the canonical assignment built here: user segment = medium
retention, kernel segment = short retention, both with invalidate-on-
expiry handling (dead blocks simply decay — that is free — and
Figure 5's interval distributions show live blocks are re-referenced
well inside their windows).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.static_partition import (
    DEFAULT_KERNEL_WAYS,
    DEFAULT_USER_WAYS,
    StaticPartitionDesign,
)
from repro.energy.technology import stt_ram

if TYPE_CHECKING:
    from repro.dram.model import DRAMConfig

__all__ = [
    "multi_retention_design",
    "USER_RETENTION_CLASS",
    "KERNEL_RETENTION_CLASS",
]

#: Retention class of the user segment (long dead times -> medium window).
USER_RETENTION_CLASS = "medium"

#: Retention class of the kernel segment (tight reuse -> short window).
KERNEL_RETENTION_CLASS = "short"


def multi_retention_design(
    user_ways: int = DEFAULT_USER_WAYS,
    kernel_ways: int = DEFAULT_KERNEL_WAYS,
    user_retention: str = USER_RETENTION_CLASS,
    kernel_retention: str = KERNEL_RETENTION_CLASS,
    refresh_mode: str = "invalidate",
    retention_distribution: str = "fixed",
    dram: DRAMConfig | None = None,
    prefetch: str | None = None,
    name: str = "static-stt",
) -> StaticPartitionDesign:
    """The paper's static technique: partition + multi-retention STT-RAM.

    Returns a :class:`StaticPartitionDesign` whose segments use STT-RAM
    at the given retention classes (``dram`` and ``prefetch`` pass
    through to it).
    """
    return StaticPartitionDesign(
        user_ways=user_ways,
        kernel_ways=kernel_ways,
        user_tech=stt_ram(user_retention),
        kernel_tech=stt_ram(kernel_retention),
        refresh_mode=refresh_mode,
        retention_distribution=retention_distribution,
        dram=dram,
        prefetch=prefetch,
        name=name,
    )
