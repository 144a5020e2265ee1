"""Two-level hierarchy: split L1 caches filtering the trace into an L2 stream.

The paper's techniques act on the shared L2, so the hierarchy is split in
two stages for speed and composability:

1. :func:`l1_filter` simulates the split L1I/L1D pair once per trace and
   captures everything that escapes to the L2 — demand misses plus dirty
   write-backs — as a compact :class:`L2Stream` of numpy columns.
2. Each L2 *design* (baseline, static partition, dynamic partition, ...)
   replays that stream.  A design sweep therefore pays the L1 cost once.

This staging is exact for designs that do not change L1 behaviour, which
holds for every design in the paper (all operate strictly below the L1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import PlatformConfig
from repro.types import AccessKind, Privilege

if TYPE_CHECKING:
    from repro.trace.access import Trace

__all__ = ["STREAM_COLUMNS", "L2Stream", "l1_filter"]

#: The five parallel column arrays of an :class:`L2Stream`, with the
#: exact dtype each must carry.  This is the stream's serialization
#: contract: :meth:`L2Stream.columns` exports them in this order and
#: :meth:`L2Stream.from_columns` refuses any deviation, so a stream
#: that round-trips through disk is bit-identical to a fresh build.
STREAM_COLUMNS = (
    ("ticks", np.dtype(np.int64)),
    ("addrs", np.dtype(np.uint64)),
    ("privs", np.dtype(np.uint8)),
    ("writes", np.dtype(np.bool_)),
    ("demand", np.dtype(np.bool_)),
)


@dataclass(frozen=True)
class L2Stream:
    """Everything the L1 pair sends to the L2, in program order.

    Columns are parallel numpy arrays (one row per L2 access):

    * ``ticks`` — trace tick of the access;
    * ``addrs`` — block-aligned byte address;
    * ``privs`` — :class:`Privilege` of the requester (for write-backs,
      of the block's owner);
    * ``writes`` — True for write-backs arriving from the L1D;
    * ``demand`` — True for demand fetches (False for write-backs).

    ``instructions``, ``trace_accesses`` and ``duration_ticks`` carry the
    source-trace context the timing and energy models need.
    """

    name: str
    ticks: np.ndarray
    addrs: np.ndarray
    privs: np.ndarray
    writes: np.ndarray
    demand: np.ndarray
    instructions: int
    trace_accesses: int
    duration_ticks: int
    l1i_stats: CacheStats
    l1d_stats: CacheStats

    def __len__(self) -> int:
        return len(self.ticks)

    @property
    def l1_demand_misses(self) -> int:
        """Demand misses of both L1s (each stalls the core for L2 latency)."""
        return self.l1i_stats.demand_misses + self.l1d_stats.demand_misses

    def kernel_share(self) -> float:
        """Fraction of L2 accesses at kernel privilege — the paper's
        motivating >40% statistic."""
        if not len(self.ticks):
            return 0.0
        return float(np.mean(self.privs == np.uint8(Privilege.KERNEL)))

    def privilege_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The user and kernel row indices, indexable by :class:`Privilege`.

        Every per-privilege view of the stream gathers its columns with
        these indices: after one ``flatnonzero`` per privilege, each
        column gather costs a fraction of a boolean-mask gather.
        """
        kernel = self.privs == np.uint8(Privilege.KERNEL)
        return np.flatnonzero(~kernel), np.flatnonzero(kernel)

    def columns(self) -> dict[str, np.ndarray]:
        """The five parallel column arrays keyed by name (views, not copies)."""
        return {name: getattr(self, name) for name, _ in STREAM_COLUMNS}

    def context(self) -> dict:
        """Scalar trace context plus L1 stats as a JSON-ready payload.

        Together with :meth:`columns` this is everything a stream holds;
        :meth:`from_columns` is the exact inverse.
        """
        return {
            "name": self.name,
            "instructions": self.instructions,
            "trace_accesses": self.trace_accesses,
            "duration_ticks": self.duration_ticks,
            "l1i_stats": self.l1i_stats.to_dict(),
            "l1d_stats": self.l1d_stats.to_dict(),
        }

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray], context: dict) -> "L2Stream":
        """Rebuild a stream from :meth:`columns` / :meth:`context` payloads.

        Arrays are adopted as-is (memory-mapped inputs stay memory-mapped);
        a missing column, a wrong dtype or mismatched lengths raises
        ``ValueError`` — deserialization is exact or it is an error.
        """
        rows = None
        for name, dtype in STREAM_COLUMNS:
            arr = columns.get(name)
            if arr is None:
                raise ValueError(f"stream column {name!r} is missing")
            if arr.dtype != dtype:
                raise ValueError(f"stream column {name!r} has dtype {arr.dtype}, expected {dtype}")
            if arr.ndim != 1:
                raise ValueError(f"stream column {name!r} must be 1-D, got shape {arr.shape}")
            if rows is None:
                rows = len(arr)
            elif len(arr) != rows:
                raise ValueError(
                    f"stream column {name!r} has {len(arr)} rows, expected {rows}"
                )
        return cls(
            name=context["name"],
            ticks=columns["ticks"],
            addrs=columns["addrs"],
            privs=columns["privs"],
            writes=columns["writes"],
            demand=columns["demand"],
            instructions=int(context["instructions"]),
            trace_accesses=int(context["trace_accesses"]),
            duration_ticks=int(context["duration_ticks"]),
            l1i_stats=CacheStats.from_dict(context["l1i_stats"]),
            l1d_stats=CacheStats.from_dict(context["l1d_stats"]),
        )


def l1_filter(trace: Trace, platform: PlatformConfig, engine: str = "auto") -> L2Stream:
    """Run ``trace`` through split LRU L1 caches, returning the L2 stream.

    Instruction fetches go through the L1I, loads/stores through the L1D
    (write-back, write-allocate).  Dirty L1D victims become write-back
    rows in the output at the tick of the access that evicted them.

    ``engine`` selects the simulation path: ``"auto"`` and ``"fast"``
    use the vectorized fast kernel (:mod:`repro.cache.fastsim`), unless
    ``REPRO_FASTSIM=0`` turns ``"auto"`` to the per-access reference
    engine; ``"reference"`` forces that engine.  Both paths produce
    bit-identical streams and L1 stats.
    """
    if engine not in ("auto", "fast", "reference"):
        raise ValueError(f"engine must be 'auto', 'fast' or 'reference', got {engine!r}")
    with obs.span("l1.filter", app=trace.name, accesses=len(trace)) as sp:
        from repro.cache import fastsim

        if engine == "fast" or (engine == "auto" and fastsim.enabled()):
            obs.inc("l1.dispatch.fastsim")
            sp.note(engine="fastsim")
            return fastsim.fast_l1_filter(trace, platform)
        obs.inc("l1.dispatch.reference")
        sp.note(engine="reference")
        return _reference_l1_filter(trace, platform)


def _reference_l1_filter(trace: Trace, platform: PlatformConfig) -> L2Stream:
    """The per-access L1 filter (see :func:`l1_filter` for the contract)."""
    l1i = SetAssociativeCache(platform.l1i, "lru", name="l1i")
    l1d = SetAssociativeCache(platform.l1d, "lru", name="l1d")

    out_tick: list[int] = []
    out_addr: list[int] = []
    out_priv: list[int] = []
    out_write: list[bool] = []
    out_demand: list[bool] = []

    ticks = trace.ticks.tolist()
    addrs = trace.addrs.tolist()
    kinds = trace.kinds.tolist()
    privs = trace.privs.tolist()
    ifetch = int(AccessKind.IFETCH)
    store = int(AccessKind.STORE)

    for tick, addr, kind, priv in zip(ticks, addrs, kinds, privs):
        if kind == ifetch:
            result = l1i.access(addr, False, priv, tick)
        else:
            result = l1d.access(addr, kind == store, priv, tick)
        if result.hit:
            continue
        out_tick.append(tick)
        out_addr.append(addr)
        out_priv.append(priv)
        out_write.append(False)
        out_demand.append(True)
        if result.writeback:
            out_tick.append(tick)
            out_addr.append(result.victim_addr)
            out_priv.append(result.victim_priv)
            out_write.append(True)
            out_demand.append(False)

    return L2Stream(
        name=trace.name,
        ticks=np.asarray(out_tick, dtype=np.int64),
        addrs=np.asarray(out_addr, dtype=np.uint64),
        privs=np.asarray(out_priv, dtype=np.uint8),
        writes=np.asarray(out_write, dtype=bool),
        demand=np.asarray(out_demand, dtype=bool),
        instructions=trace.instructions,
        trace_accesses=len(trace),
        duration_ticks=trace.duration_ticks,
        l1i_stats=l1i.stats,
        l1d_stats=l1d.stats,
    )
