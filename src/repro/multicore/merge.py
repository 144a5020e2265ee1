"""Multi-core shared-L2 streams (extension beyond the paper).

The paper evaluates a single core, but every phone SoC shares its L2
among cores.  This module builds a multi-programmed shared-L2 stream:
one app per core, private L1s per core (each stream is already
L1-filtered), user address spaces made disjoint per core (separate
ASIDs), and — the physically important part — **one shared kernel
address space**: every core's syscalls walk the same kernel code and
data, so kernel blocks enjoy cross-core reuse in the shared L2 while
user blocks compete.

That asymmetry *amplifies* the paper's motivation with core count: the
kernel's share of useful L2 content grows, and so does the benefit of
giving it a protected segment.  ``benchmarks/bench_multicore.py``
quantifies it.
"""

from __future__ import annotations

import numpy as np

from repro.cache.hierarchy import L2Stream, l1_filter
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.trace.transform import remap_user_space
from repro.trace.workloads import suite_trace
from repro.types import Privilege

__all__ = ["merge_streams", "multicore_stream"]

#: Per-core user address-space stride (ASID placement).
_ASID_STRIDE = 1 << 34


def merge_streams(streams: list[L2Stream], name: str | None = None) -> L2Stream:
    """Interleave per-core L2 streams by tick into one shared-L2 stream.

    The inputs must already be per-core L1-filtered streams with
    disjoint user address ranges (see :func:`multicore_stream`).
    Instruction counts add (they execute in parallel on separate
    cores); the duration is the longest core's.
    """
    if not streams:
        raise ValueError("need at least one stream")
    ticks = np.concatenate([s.ticks for s in streams])
    order = np.argsort(ticks, kind="stable")
    merged_l1i = streams[0].l1i_stats
    merged_l1d = streams[0].l1d_stats
    for s in streams[1:]:
        merged_l1i = merged_l1i.merge(s.l1i_stats)
        merged_l1d = merged_l1d.merge(s.l1d_stats)
    return L2Stream(
        name=name if name is not None else "+".join(s.name for s in streams),
        ticks=ticks[order],
        addrs=np.concatenate([s.addrs for s in streams])[order],
        privs=np.concatenate([s.privs for s in streams])[order],
        writes=np.concatenate([s.writes for s in streams])[order],
        demand=np.concatenate([s.demand for s in streams])[order],
        instructions=sum(s.instructions for s in streams),
        trace_accesses=sum(s.trace_accesses for s in streams),
        duration_ticks=max(s.duration_ticks for s in streams),
        l1i_stats=merged_l1i,
        l1d_stats=merged_l1d,
    )


def multicore_stream(
    apps: tuple[str, ...],
    length: int,
    platform: PlatformConfig = DEFAULT_PLATFORM,
    seed: int = 0,
) -> L2Stream:
    """Build the shared-L2 stream of ``len(apps)`` cores running ``apps``.

    Core *i* runs ``apps[i]`` (seeded per core so two cores running the
    same app do not execute in lock-step), its user space is remapped to
    ASID *i*, and its trace goes through its own private L1 pair before
    merging.
    """
    if not apps:
        raise ValueError("need at least one app")
    per_core = []
    for core, app in enumerate(apps):
        trace = suite_trace(app, length, seed=seed + core)
        trace = remap_user_space(trace, asid=core, stride=_ASID_STRIDE)
        per_core.append(l1_filter(trace, platform))
    return merge_streams(per_core)


def kernel_block_sharing(stream: L2Stream) -> float:
    """Fraction of distinct kernel blocks the merged stream touches more
    than once — a proxy for the cross-core kernel reuse the shared
    address space creates (user blocks, being per-ASID, cannot share).
    """
    kernel = stream.addrs[stream.privilege_rows()[Privilege.KERNEL]]
    if not len(kernel):
        return 0.0
    blocks, counts = np.unique(kernel // np.uint64(64), return_counts=True)
    return float(np.mean(counts > 1))
