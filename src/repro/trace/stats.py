"""Trace-level statistics used by the motivation experiments.

These functions characterise an access stream *before* it meets a cache:
privilege mix, footprints, block reuse distances and inter-access
intervals.  Figure 5 of the reproduction uses the interval statistics of
the L2-filtered streams to justify the retention classes chosen for the
multi-retention STT-RAM design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytic import stack_distances
from repro.trace.access import Trace
from repro.types import CACHE_BLOCK_SIZE, Privilege

__all__ = [
    "kernel_access_share",
    "unique_blocks",
    "footprint_bytes",
    "reuse_distances",
    "inter_access_intervals",
    "IntervalSummary",
    "summarize_intervals",
]


def kernel_access_share(trace: Trace) -> float:
    """Fraction of accesses issued at kernel privilege."""
    return trace.kernel_fraction()


def unique_blocks(trace: Trace, privilege: Privilege | None = None) -> int:
    """Number of distinct cache blocks touched (optionally one privilege)."""
    addrs = trace.addrs
    if privilege is not None:
        addrs = addrs[trace.privilege_mask(privilege)]
    if not len(addrs):
        return 0
    return int(np.unique(addrs // np.uint64(CACHE_BLOCK_SIZE)).size)


def footprint_bytes(trace: Trace, privilege: Privilege | None = None) -> int:
    """Total bytes of distinct blocks touched (the working footprint)."""
    return unique_blocks(trace, privilege) * CACHE_BLOCK_SIZE


def reuse_distances(trace: Trace, max_samples: int = 50_000) -> np.ndarray:
    """LRU stack reuse distances of block references.

    Returns one distance per *reused* reference (first touches are
    excluded).  Distance is the number of distinct other blocks touched
    since the previous reference to the same block — the classic stack
    distance that determines hit/miss in a fully associative LRU cache
    (:func:`repro.analytic.stack_distances`).  Computed over at most
    ``max_samples`` leading references.
    """
    d = stack_distances(trace.addrs[:max_samples] // np.uint64(CACHE_BLOCK_SIZE))
    return d[d >= 0]


def inter_access_intervals(
    trace: Trace, privilege: Privilege | None = None
) -> np.ndarray:
    """Tick gaps between consecutive references to the same block.

    This is the quantity that decides whether a retention time is long
    enough: a block whose next reference arrives after its segment's
    retention window has expired and must be refetched.
    """
    addrs, ticks = trace.addrs, trace.ticks
    if privilege is not None:
        mask = trace.privilege_mask(privilege)
        addrs, ticks = addrs[mask], ticks[mask]
    if len(addrs) < 2:
        return np.empty(0, dtype=np.int64)
    blocks = addrs // np.uint64(CACHE_BLOCK_SIZE)
    ticks = ticks.astype(np.int64)
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    sorted_ticks = ticks[order]
    same = sorted_blocks[1:] == sorted_blocks[:-1]
    gaps = sorted_ticks[1:] - sorted_ticks[:-1]
    return gaps[same]


@dataclass(frozen=True)
class IntervalSummary:
    """Summary statistics of an inter-access interval distribution."""

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    max: float

    def row(self) -> tuple[float, ...]:
        """Values in display order (count, mean, median, p90, p99, max)."""
        return (self.count, self.mean, self.median, self.p90, self.p99, self.max)


def summarize_intervals(intervals: np.ndarray) -> IntervalSummary:
    """Condense an interval sample into an :class:`IntervalSummary`."""
    if not len(intervals):
        return IntervalSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return IntervalSummary(
        count=int(len(intervals)),
        mean=float(np.mean(intervals)),
        median=float(np.median(intervals)),
        p90=float(np.percentile(intervals, 90)),
        p99=float(np.percentile(intervals, 99)),
        max=float(np.max(intervals)),
    )
