"""Trace transformations: slicing, shifting, timeslicing, remapping.

Utilities for composing workloads out of existing traces — used by the
multi-core extension (:mod:`repro.multicore`) and handy for anyone
importing external traces.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.trace.access import Trace
from repro.types import KERNEL_SPACE_START

__all__ = [
    "slice_window",
    "shift_ticks",
    "remap_user_space",
    "timeslice",
]


def slice_window(trace: Trace, start_tick: int, end_tick: int) -> Trace:
    """Accesses with ``start_tick <= tick < end_tick``, rebased to 0."""
    if not start_tick <= end_tick:
        raise ValueError(f"need start_tick <= end_tick, got [{start_tick}, {end_tick})")
    ticks = trace.ticks.astype(np.int64)
    sub = trace.select((ticks >= start_tick) & (ticks < end_tick))
    ticks = sub.ticks
    if len(ticks):
        ticks = ticks - np.uint64(start_tick)
    window = end_tick - start_tick
    frac = min(1.0, window / max(1, trace.duration_ticks))
    return replace(sub, ticks=ticks, instructions=max(len(sub), int(trace.instructions * frac)))


def shift_ticks(trace: Trace, offset: int) -> Trace:
    """Delay every access by ``offset`` ticks (>= 0)."""
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    return replace(trace, ticks=trace.ticks + np.uint64(offset),
                   instructions=trace.instructions + offset)


def _joined(name: str, traces: list[Trace], instructions: int) -> Trace:
    """The traces played back to back, column by column."""
    return Trace(name, *(np.concatenate([getattr(t, attr) for t in traces])
                         for attr in ("ticks", "addrs", "kinds", "privs")), instructions)


def timeslice(traces: list[Trace], quantum_ticks: int, total_ticks: int | None = None) -> Trace:
    """Round-robin the traces on one core with a scheduler quantum.

    Models foreground-app switching: window *k* of the output replays
    window *k* of trace ``k % n`` (each trace advances through its own
    timeline, so every visit brings a *different* slice of that app).
    User address spaces should be remapped per app beforehand (see
    :func:`remap_user_space`); the kernel space stays shared, which is
    why kernel L2 content survives an app switch while user content
    turns over.
    """
    if not traces:
        raise ValueError("need at least one trace")
    if quantum_ticks <= 0:
        raise ValueError(f"quantum_ticks must be positive, got {quantum_ticks}")
    horizon = total_ticks if total_ticks is not None else min(t.duration_ticks for t in traces)
    pieces = []
    out_tick = 0
    window = 0
    n = len(traces)
    # window k replays per-trace window k // n of trace k % n; the loop
    # runs until every trace's own timeline is consumed up to `horizon`
    # (the output therefore spans ~n * horizon ticks: n apps timesliced
    # on one core take n times as long).
    while (window // n) * quantum_ticks < horizon:
        trace = traces[window % n]
        start = window // n * quantum_ticks  # per-trace progress
        piece = slice_window(trace, start, start + quantum_ticks)
        if len(piece):
            pieces.append(shift_ticks(piece, out_tick))
        out_tick += quantum_ticks
        window += 1
    if not pieces:
        raise ValueError("timeslice produced an empty trace; quantum too small?")
    accesses = sum(map(len, pieces))
    instructions = max(accesses, int(sum(t.instructions for t in traces) * horizon
                                     / max(1, sum(t.duration_ticks for t in traces))))
    return _joined("|".join(t.name for t in traces), pieces, instructions)


def remap_user_space(trace: Trace, asid: int, stride: int = 1 << 34) -> Trace:
    """Move the user half of the address space to a per-ASID region.

    Kernel addresses are left untouched — every address space shares one
    kernel, which is precisely why kernel blocks enjoy cross-process
    reuse in a shared L2.  ``asid`` 0 is the identity mapping.
    """
    if asid < 0:
        raise ValueError(f"asid must be >= 0, got {asid}")
    if stride < KERNEL_SPACE_START:
        raise ValueError("stride must clear the user address range")
    if asid == 0:
        return trace
    addrs = trace.addrs.copy()
    addrs[addrs < np.uint64(KERNEL_SPACE_START)] += np.uint64(asid * stride)
    return replace(trace, addrs=addrs)
