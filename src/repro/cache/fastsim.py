"""Vectorized fast-path simulation kernel for LRU set-associative caches.

The reference engine (:class:`repro.cache.set_assoc.SetAssociativeCache`)
pays per-access Python overhead — an ``Entry`` object per block, a
replacement-policy virtual call per access, an ``AccessResult`` per call —
which bounds every experiment at single-digit M-accesses/s.  This module
replays an *entire trace at once* instead:

1. NumPy decomposes all addresses into (set, tag) columns and groups the
   trace by set (one stable argsort); every scalar counter that does not
   depend on hit/miss outcomes (access totals, privilege and write splits)
   is reduced vectorially.
2. ``invalidate`` retention whose window covers the stream's whole tick
   span (finalize tick included) replays as retention ``none``: no decay
   test ``t - lastref > window`` can fire inside that span.  Any other
   ``invalidate`` stream replays in set-major order as one chunk of an
   :class:`EpochReplaySegment` (all ways powered, no hit ranks): its
   clean sets (below) resolve in NumPy, and its decay-aware loop takes
   each set from its first eviction or expiry on.
3. With retention ``none``, every row whose block equals the previous
   row of its set is dropped: under LRU it is a hit on the block already
   at MRU, so it changes nothing but the dirty bit, which the kept first
   row of the run takes as the OR of the run's write flags.  Totals
   still come from the full columns.  Sets that never see more than
   ``ways`` distinct blocks miss on each block's first row only.
4. Every other row gets its outcome from the LRU inclusion property:
   a row whose block last ran at row ``p`` of its set hits exactly when
   fewer than ``ways`` distinct blocks occur in between.  Cheap bounds
   settle most rows; a vectorized scan from ``p``, whose window doubles
   each pass, counts the rest (counters ``fastsim.prefix.rows`` and
   ``fastsim.scan.rows``).
5. Victims come without replay: a full set evicts its least recent
   resident, so each set's residencies (a block's rows from a miss to
   the row before its next miss) leave in the order of their last rows,
   one per miss after the ``ways`` that filled the set.  That pairing
   gives the evictions, write-backs (dirty = OR of the residency's
   writes), cross-privilege evictions (the fill row's privilege) and
   :class:`MissEvents`.  No step loops per access.

The kernel is **bit-identical** to the reference engine inside its
supported envelope (checked by :func:`supports_cache`):

* true-LRU replacement,
* fixed geometry: every way powered (no power gating),
* retention ``none``, or ``invalidate`` with the fixed-window model.

:class:`EpochReplaySegment` replays every stream that can decay, and
extends the envelope to the dynamic partition design's **epoch-chunked
replay**: the geometry stays fixed *within* a chunk (one controller
epoch), while powered-way gating and wake-on-first-access are applied
between chunks — exactly where the reference engine applies them — so
the epoch controller's decisions, timelines and resize counters come out
bit-identical too.  Step 2's elision applies there to a whole segment
whose window outlasts it up to its finalize tick, else per chunk; a
fixed design's expiring stream is the special case of one chunk.  The rows
of *clean sets* (see the class) resolve in NumPy, once per run of
chunks at constant powered ways (``fastsim.epoch.runs``), and a loop
replays each other set from its first event on (counters
``fastsim.prefix.rows`` and ``fastsim.loop.rows``).

Everything outside the envelope — ``rewrite`` refresh, exponential
retention lifetimes, non-LRU policies, and prefetching (its fills
interleave with the accesses) — replays on the reference engine.
Designs decide the engine before replay: a fixed design checks
:func:`fixed_envelope` and then replays unconditionally with
:func:`run_fixed`, recording :class:`MissEvents` when a post-pass (the
banked DRAM model) reads them.  ``tests/test_fastsim.py`` holds
the randomized differential harness (``tests/diffsim.py``) that
proves the exact :class:`~repro.cache.stats.CacheStats` equality this
module promises, for fixed and epoch-chunked replay alike.

Set ``REPRO_FASTSIM=0`` to disable the fast path globally (every replay
then uses the reference engine, useful when bisecting a discrepancy).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from repro import obs
from repro.cache.replacement import LRUPolicy
from repro.cache.stats import CacheStats
from repro.config import CacheGeometry, PlatformConfig
from repro.types import AccessKind, Privilege

__all__ = [
    "enabled",
    "supports_cache",
    "simulate_trace",
    "EpochReplaySegment",
    "MissEvents",
    "fast_l1_filter",
    "fixed_envelope",
    "run_fixed",
]

#: Refresh modes the kernel reproduces exactly.
SUPPORTED_REFRESH_MODES = ("none", "invalidate")

#: Widest way index a clean set's rank mask holds; rows of a clean set
#: at way ``_MASK_BITS`` or beyond leave it (no real geometry gets there).
_MASK_BITS = 64

#: Chunks an epoch replay resolves when a run of constant ways starts;
#: each further span of the run is twice the one before.
_FIRST_SPAN = 64


def enabled() -> bool:
    """True unless the ``REPRO_FASTSIM`` environment variable disables us."""
    return os.environ.get("REPRO_FASTSIM", "1").strip().lower() not in ("0", "false", "off")


def supports_cache(cache) -> bool:
    """True when ``cache`` (a fresh ``SetAssociativeCache``) is inside the
    kernel's exact-equivalence envelope.

    The cache must be untouched (no accesses, no resident blocks): the
    kernel replays from a cold array, so a warm reference cache cannot be
    taken over mid-run.
    """
    return (
        type(cache.policy) is LRUPolicy
        and cache.refresh_mode in SUPPORTED_REFRESH_MODES
        and cache.retention_distribution == "fixed"
        and cache.powered_ways == cache.ways
        and cache.stats.accesses == 0
        and cache.is_empty()
    )


@dataclass
class MissEvents:
    """Per-miss side channel of one replay.

    ``miss_idx`` holds the caller-supplied index of every missing access,
    in no particular order.  ``evict_idx``/``evict_addr``/``evict_priv``/
    ``evict_dirty`` describe every victim, in the same order as each
    other: the index of the miss that evicted it, its block address, its
    owner's privilege and whether it was dirty (written back); decayed
    blocks are not victims.  ``prefetch`` rows are the reference engine's
    prefetch traffic in issue order: (issuing demand miss, address, 0 for
    the fill's read or 1 for its dirty victim's write-back).  The L1
    filter builds an :class:`~repro.cache.hierarchy.L2Stream` from the
    misses and dirty victims; the drowsy design reads awake time off the
    evictions (:func:`repro.core.drowsy.awake_ticks`); the banked DRAM
    model replays all of it (:func:`repro.core.pipeline.dram_pass`).
    """

    miss_idx: np.ndarray
    evict_idx: np.ndarray
    evict_addr: np.ndarray
    evict_priv: np.ndarray
    evict_dirty: np.ndarray
    prefetch: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), np.uint64))


def simulate_trace(
    geometry: CacheGeometry,
    ticks,
    addrs,
    privs,
    writes,
    demand=None,
    *,
    retention_ticks: int | None = None,
    refresh_mode: str = "none",
    finalize_tick: int | None = None,
    record_events: bool = False,
    orig_indices: np.ndarray | None = None,
) -> tuple[CacheStats, MissEvents | None]:
    """Replay one access stream through an array-backed LRU cache.

    Args:
        geometry: Cache geometry (fixed for the whole run).
        ticks, addrs, privs, writes: Parallel access columns (any
            array-likes; addresses may carry sub-block offsets).  Only
            the ``invalidate`` mode reads ``ticks``; others may pass None.
        demand: Optional demand-fetch mask; ``None`` means every access
            is a demand access (the L1 case).
        retention_ticks: Fixed retention window, or ``None``.
        refresh_mode: ``"none"`` or ``"invalidate"`` (the envelope).
        finalize_tick: When given, settle end-of-simulation accounting at
            this tick exactly like ``SetAssociativeCache.finalize`` (the
            expiry write-backs of dirty blocks that decayed unobserved).
        record_events: Collect a :class:`MissEvents` side channel.
        orig_indices: Caller-space index of each access, recorded in the
            events (defaults to 0..n-1).

    Returns:
        ``(stats, events)`` — ``stats`` is bit-identical to the reference
        engine's counters; ``events`` is ``None`` unless requested.
    """
    _check_refresh(refresh_mode, retention_ticks)
    addrs = np.asarray(addrs, dtype=np.uint64)
    n = len(addrs)
    stats = CacheStats()
    events = None
    if record_events:
        events = MissEvents(*(np.zeros(0, t) for t in (np.int64, np.int64, np.uint64,
                                                         np.uint8, bool)))
        orig_indices = np.arange(n) if orig_indices is None else np.asarray(orig_indices)
    if n == 0:
        return stats, events

    block_bits = geometry.block_size.bit_length() - 1
    num_sets = geometry.num_sets

    privs = _checked_privs(privs)
    writes = np.asarray(writes)
    blocks = addrs >> np.uint64(block_bits)
    if demand is not None:
        demand = np.asarray(demand)
    if refresh_mode == "invalidate":
        # With nothing able to expire, fills take the lowest free way and
        # victims the least recent block: the retention-free replay.
        ticks = np.asarray(ticks)
        horizon = int(ticks.max())
        if finalize_tick is not None:
            horizon = max(horizon, finalize_tick)
        if horizon - int(ticks.min()) <= retention_ticks:
            obs.inc("fastsim.retention.elided")
        else:
            # Sets are independent under a fixed geometry, so the rows
            # replay in set-major order as one chunk of an epoch segment:
            # all ways powered, and no controller reads the hit ranks.
            obs.inc("fastsim.retention.expiring")
            order = _set_order(blocks, num_sets)
            seg = EpochReplaySegment(geometry, retention_ticks=retention_ticks,
                                     refresh_mode="invalidate", min_rank_accesses=n + 1,
                                     record_events=record_events)
            seg.load(ticks[order], addrs[order], privs[order], writes[order],
                     np.ones(n, dtype=bool) if demand is None else demand[order],
                     np.zeros(n, dtype=np.int64), 1, horizon)
            seg.replay_chunk(0)
            if finalize_tick is not None:
                seg.finalize(finalize_tick)
            return seg.stats, seg.miss_events(orig_indices[order]) if record_events else None

    _replay_retention_free(
        stats, geometry.associativity, num_sets, blocks, privs, writes, demand,
        orig_indices, events, block_bits,
    )

    kernel_accesses = int(np.count_nonzero(privs))
    stats.accesses = n
    stats.hits = n - stats.misses
    stats.fills = stats.misses
    stats.demand_accesses = n if demand is None else int(np.count_nonzero(demand))
    if demand is None:
        stats.demand_misses = stats.misses
    stats.write_accesses = int(np.count_nonzero(writes))
    stats.accesses_by_priv = [n - kernel_accesses, kernel_accesses]
    return stats, events


def _check_refresh(refresh_mode, retention_ticks) -> None:
    if refresh_mode not in SUPPORTED_REFRESH_MODES:
        raise ValueError(
            f"fastsim supports refresh modes {SUPPORTED_REFRESH_MODES}, got {refresh_mode!r}"
        )
    if refresh_mode == "invalidate" and retention_ticks is None:
        raise ValueError("refresh_mode 'invalidate' needs a finite retention_ticks")


def _checked_privs(privs) -> np.ndarray:
    """``privs`` as an array, failing as loudly as the reference engine's
    ``accesses_by_priv[priv]`` on a privilege other than 0 or 1."""
    privs = np.asarray(privs)
    if len(privs) and int(privs.max()) > 1:
        raise ValueError(
            f"privilege values must be 0 (user) or 1 (kernel), got {int(privs.max())}"
        )
    return privs


def _set_order(blocks, num_sets):
    """Stable order of the rows grouped by set (one argsort)."""
    set_idx = blocks & np.uint64(num_sets - 1)
    # An 8- or 16-bit key lets the stable argsort run as a radix sort;
    # the stable order is the same for any key dtype.
    key = np.uint8 if num_sets <= 1 << 8 else np.uint16 if num_sets <= 1 << 16 else np.int64
    return np.argsort(set_idx.astype(key), kind="stable")


def _block_order(blocks, num_sets: int = 1):
    """Stable argsort of ``blocks``: rows grouped by block, each block's
    rows in their original order.

    With ``num_sets``, the rows must already be grouped by set in
    ascending set order (set-major): a stable sort by tag (the block
    without its set bits) then keeps equal tags in set order, which is
    block order."""
    n = len(blocks)
    tags = blocks >> np.uint64(num_sets.bit_length() - 1)
    low = int(tags.min())
    if int(tags.max()) - low < 1 << 16:
        # a 16-bit key: the stable argsort runs as a radix sort
        return np.argsort((tags - np.uint64(low)).astype(np.uint16), kind="stable")
    if int(blocks.max()) < np.iinfo(np.int64).max // n:
        # block * n + row is unique and sorts the same: a quicksort
        # instead of the slower stable sort
        return np.argsort(blocks.astype(np.int64) * n + np.arange(n))
    return np.argsort(blocks, kind="stable")


def _first_occurrences(set_blocks, set_idx, set_bounds):
    """Each set's distinct blocks in first-occurrence order.

    ``set_blocks`` are block numbers in set-major order (each set's rows
    contiguous and in stream order) and ``set_idx`` their sets; set
    ``s`` holds positions ``set_bounds[s]`` to ``set_bounds[s + 1]``.
    Returns ``(by_block, opens, first_pos, way)``: the positions
    grouped by block (``by_block``, each block's ascending; ``opens``
    marks each group's first entry), and each group's first position
    (``first_pos``) and rank among its set's distinct blocks (``way``).
    """
    # A block's rows all lie in its set's range, so each block group's
    # first row is the block's first occurrence in its set.
    by_block = _block_order(set_blocks, len(set_bounds) - 1)
    grouped = set_blocks[by_block]
    opens = np.empty(len(grouped), dtype=bool)
    opens[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=opens[1:])
    first_pos = by_block.take(np.flatnonzero(opens))
    # The first occurrences up to each position; a set's first position
    # is one.
    seen = np.zeros(len(grouped), dtype=bool)
    seen[first_pos] = True
    seen = np.cumsum(seen, dtype=np.int32)
    way = seen[first_pos] - seen[set_bounds[set_idx[first_pos]]]
    return by_block, opens, first_pos, way


def _replay_retention_free(stats, ways, num_sets, blocks, privs, writes, demand,
                           orig_indices, events, block_bits):
    """Retention-free replay of the access rows with block numbers ``blocks``.

    Collapses same-block repeats, decides each row's hit or miss from the
    distinct blocks its set sees since the row's block last ran (rule 1),
    and pairs every evicting miss with its victim (rule 2), all in NumPy.
    Credits the outcome counters to ``stats`` and fills ``events``.
    """
    # Under plain LRU a row whose block equals the previous row of the
    # same set is a guaranteed hit on the MRU block: it leaves the
    # recency order and the block's privilege unchanged and can only set
    # the dirty bit.  Keep the first row of every such run and give it
    # the OR of the run's write flags.  (With retention a store also
    # refreshes the block's timestamp, so repeats are not free there.)
    # Only the kept rows go on.
    order = _set_order(blocks, num_sets)
    sorted_blocks = blocks[order]
    kept = np.empty(len(order), dtype=bool)
    kept[0] = True
    np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=kept[1:])
    kept = np.flatnonzero(kept)
    k_writes = np.logical_or.reduceat(writes[order].astype(bool, copy=False), kept)
    k_blocks = sorted_blocks[kept]
    order = order[kept]
    del sorted_blocks, kept
    k_set = (k_blocks & np.uint64(num_sets - 1)).astype(np.intp)
    # The rows grouped by block, each block's rows ascending (they all
    # lie in its set's range); ``opens`` marks each block's first row.
    kept_rows = len(order)
    idx = np.int32 if kept_rows < 1 << 31 else np.int64
    by_block = _block_order(k_blocks, num_sets).astype(idx)
    grouped = k_blocks[by_block]
    opens = np.empty(kept_rows, dtype=bool)
    opens[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=opens[1:])
    del grouped, k_blocks
    firsts = by_block[opens]
    distinct = np.bincount(k_set[firsts], minlength=num_sets)
    # A set that never sees more than ``ways`` blocks misses on each
    # block's first row only; the rows of the other sets go on.
    evicting = distinct > ways
    quiet_misses = order[firsts[~evicting[k_set[firsts]]]]
    del firsts
    if not evicting.all():
        rows = evicting[k_set]
        grouped = rows[by_block]
        by_block = (np.cumsum(rows, dtype=idx) - 1)[by_block[grouped]]
        opens = opens[grouped]
        order, k_writes, k_set = order[rows], k_writes[rows], k_set[rows]
        del rows, grouped
    m = len(order)
    prev = np.empty(m, idx)  # the row of the same block before, or -1
    prev[by_block[1:]] = by_block[:-1]
    prev[by_block[opens]] = -1
    miss = prev < 0
    del opens

    # Rule 1 (LRU inclusion): a repeat row j whose block last ran at row
    # p hits exactly when fewer than ``ways`` distinct blocks occur
    # strictly between.  It hits outright while its set has seen at most
    # ``ways`` blocks, or when fewer than ``ways`` rows lie between; it
    # misses outright when ``ways`` blocks first occur between.  Only the
    # rest are counted by a scan.
    seen = np.cumsum(miss, dtype=idx)  # first rows up to each row
    set_seen = np.zeros(num_sets, idx)
    np.cumsum(np.where(evicting, distinct, 0)[:-1], out=set_seen[1:])
    j = np.flatnonzero(~miss).astype(idx)
    p = prev[j]
    late = (seen[j] - set_seen[k_set[j]] > ways) & (j - p > ways)
    j, p = j[late], p[late]
    sure = seen[j] - seen[p] >= ways
    miss[j[sure]] = True
    j, p = j[~sure], p[~sure]
    miss[j[_window_misses(prev, p, j, ways)]] = True
    obs.inc("fastsim.prefix.rows", kept_rows - len(j))
    obs.inc("fastsim.scan.rows", len(j))
    del prev, seen, j, p, late, sure

    # Rule 2: a residency runs from a block's miss to the row before its
    # next miss.  A full set evicts its least recent resident, so a set's
    # residencies leave in the order of their last rows, and its misses
    # after the ``ways`` that filled it evict them, one each, in that
    # order.  A victim is dirty when any row of its residency wrote, and
    # keeps its fill row's privilege.
    res_lo = np.flatnonzero(miss[by_block])
    fill = by_block[res_lo]
    dirty = np.logical_or.reduceat(k_writes[by_block], res_lo)
    last = np.empty_like(fill)
    last[:-1] = by_block[res_lo[1:] - 1]
    last[-1:] = by_block[-1:]
    del by_block, res_lo, k_writes
    ends = np.zeros(m, dtype=bool)
    ends[last] = True
    by_last = np.empty(m, idx)
    by_last[last] = np.arange(len(last), dtype=idx)
    by_last = by_last[ends]  # residency ids by last row (grouped by set)
    del last, ends
    miss_rows = np.flatnonzero(miss)
    del miss
    miss_set = k_set[miss_rows]
    set_misses = np.bincount(miss_set, minlength=num_sets)
    # The set's q-th miss in row order and its q-th residency by last
    # row: the residency is the victim of miss q + ways, if any.
    q = np.arange(len(miss_rows)) - (np.cumsum(set_misses) - set_misses)[miss_set]
    evict = np.flatnonzero(q < (set_misses - ways)[miss_set])
    del q, miss_set
    aggressor = order[miss_rows[evict + ways]]
    victim = by_last[evict]
    del by_last, evict

    missed = np.concatenate([quiet_misses, order[miss_rows]])
    kernel_misses = int(np.count_nonzero(privs[missed]))
    stats.misses = len(missed)
    stats.misses_by_priv = [stats.misses - kernel_misses, kernel_misses]
    if demand is not None:
        stats.demand_misses = int(np.count_nonzero(demand[missed]))
    victim_fill = order[fill[victim]]
    victim_priv = privs[victim_fill]
    cross = np.bincount(victim_priv.astype(np.intp) << 1 | privs[aggressor], minlength=4)
    stats.evictions = len(victim)
    stats.evictions_cross = [cross[:2].tolist(), cross[2:].tolist()]
    written = dirty[victim]
    stats.writebacks = int(np.count_nonzero(written))
    if events is not None:
        events.miss_idx = orig_indices[missed]
        events.evict_idx = orig_indices[aggressor]
        events.evict_addr = blocks[victim_fill] << np.uint64(block_bits)
        events.evict_priv = victim_priv
        events.evict_dirty = written


def _window_misses(prev, p, j, ways):
    """Which rows ``j`` (previous row of their block ``p``) see at least
    ``ways`` distinct blocks strictly between ``p`` and ``j``.

    Such a block is a row ``i`` in ``(p, j)`` with ``prev[i] < p``.  Each
    pass counts the next window of every open row vectorially; a row
    closes at ``j`` (a hit) or at its ``ways``-th block (a miss), and the
    window doubles each pass, so the passes grow with the log of the
    longest scan while the work stays within about ``2 * ways`` per row
    (a position lies in at most ``ways`` open windows).
    """
    miss = np.zeros(len(j), dtype=bool)
    todo = np.arange(len(j))
    pos = p + 1
    count = np.zeros(len(j), prev.dtype)
    width = ways
    while len(todo):
        span = np.minimum(j - pos, width)
        ends = np.cumsum(span)
        at = np.repeat(pos - (ends - span), span)
        at += np.arange(len(at), dtype=at.dtype)
        new = prev[at] < np.repeat(p, span)
        del at
        count += np.add.reduceat(new, ends - span, dtype=count.dtype)
        del new
        pos += span
        full = count >= ways
        miss[todo[full]] = True
        live = ~full & (pos < j)
        todo, p, j, pos, count = todo[live], p[live], j[live], pos[live], count[live]
        width *= 2
    return miss


def _between_masks(way, p, q, dtype):
    """Bitset of the ways accessed strictly between set-major positions
    ``p`` and ``q`` (pairwise, ``q > p + 1``), given each position's way.
    A way past ``dtype``'s width adds no bit.  A sparse table of OR-ed
    way bits over power-of-two spans answers each gap with two lookups."""
    if len(p) == 0:
        return np.zeros(0, dtype)
    n = len(way)
    span = q - p - 1
    # table[k, i]: OR of the bits of positions i to i + 2**k - 1 (valid
    # for i <= n - 2**k); NumPy shifts a bit past the width out to 0
    table = np.empty((int(span.max()).bit_length(), n), dtype)
    np.left_shift(dtype.type(1), np.minimum(way, 8 * dtype.itemsize).astype(dtype), out=table[0])
    for k in range(1, len(table)):
        half = 1 << (k - 1)
        np.bitwise_or(table[k - 1, :n - half], table[k - 1, half:], out=table[k, :n - half])
    k = np.frexp(span)[1] - 1  # floor(log2(span))
    flat, row = table.ravel(), k * n
    return flat.take(row + p + 1) | flat.take(row + q - np.left_shift(1, k))


# ----------------------------------------------------------------------
# epoch-chunked replay (the dynamic partition design)


@dataclass(eq=False)
class _Span:
    """Chunks ``first`` to ``stop`` of a run: consecutive chunks an
    :class:`EpochReplaySegment` replays at the same powered ``ways``.

    Rows from ``lo`` on.  Each ``*_off`` list cuts its array by chunk:
    chunk ``first + i`` owns ``[off[i], off[i + 1])``.  Per chunk: the
    sets whose first event falls in it (``turn_sets``) and the blocks
    they hand the loop (``handover`` columns, see
    :meth:`EpochReplaySegment._handover`); the rows the loop replays
    (``loop``, their seven loop columns in ``cols``, None without any);
    and the frames its clean stores dirty (``store_frames``).  ``ranks``
    is each row's clean-hit rank, when some chunk tracks ranks.  The
    first ``done`` chunks are replayed, and the stores of the first
    ``flushed`` applied.
    """

    ways: int
    first: int
    stop: int
    lo: int
    ranks: np.ndarray | None
    turn_sets: np.ndarray
    turn_off: list[int]
    handover: np.ndarray
    hand_off: list[int]
    loop: np.ndarray
    loop_off: list[int]
    cols: np.ndarray | None
    store_frames: np.ndarray
    store_off: list[int]
    done: int = 0
    flushed: int = 0


class EpochReplaySegment:
    """Array-backed cache replayed one controller epoch at a time.

    Duck-types the slice of :class:`~repro.cache.set_assoc.
    SetAssociativeCache` the dynamic partition design drives —
    ``powered_ways``/``powered_bytes``, ``set_powered_ways``,
    ``begin_epoch``, the epoch counters and ``stats`` — while replaying
    accesses in stream order over flat frame-state arrays.  The
    caller (``DynamicPartitionDesign``) splits the stream into *chunks*
    (maximal runs between controller-epoch boundaries), loads a
    segment's rows once with :meth:`load`, and then alternates
    ``replay_chunk`` with its controller steps.  Because the controller
    only reconfigures the segment at epoch boundaries — and the one
    mid-chunk reconfiguration, wake-on-first-access, is a free power-up
    the caller applies via ``set_powered_ways`` before the chunk replays
    — the geometry is constant inside every chunk and the replay is
    bit-identical to the reference engine's per-access loop.
    :func:`simulate_trace` replays a fixed design's expiring stream as a
    single chunk of a segment; with ``record_events`` the segment keeps
    its misses and evictions for :meth:`miss_events`.

    Most rows never reach that loop.  A set is *clean* until its first
    event: an eviction, a gated miss, a decayed hit, a decayed-frame
    reclaim, or a gate that invalidates its blocks.  In a clean set the
    ``j``-th distinct block sits in way ``j``, so under ``P`` powered
    ways a row is a miss filling way ``j`` (first occurrence) or a hit
    whose LRU rank is the number of powered ways accessed since the
    block's last access — all known from :meth:`load`'s per-row columns.
    Each set goes to the loop at its first event row (way ``j >= P``, or
    a decayed hit), and the loop replays only the rows from there on.

    Given the sets already in the loop, which rows those are depends on
    ``P`` alone, so they are resolved once per *run* — consecutive
    chunks replayed at the same powered ways — in NumPy passes over
    spans of its chunks (:class:`_Span`);
    a new run starts when a chunk meets other ways, or after an SRAM
    gate dropped clean sets.  A chunk then costs list reads, the sets
    that reach their first event in it, and its loop rows.  The clean
    rows' stores reach ``dirty`` when something reads it (:meth:`_flush`),
    and a clean block's recency and last cell write are read off its
    rows when the loop takes the set over (:meth:`_handover`).

    The envelope matches :func:`supports_cache` plus gating: true LRU,
    retention ``none`` or fixed-window ``invalidate``, and power-gated
    ways with either gating semantics (``retains_when_gated`` True keeps
    contents through a gate like non-volatile STT-RAM; False invalidates
    like SRAM).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        *,
        retention_ticks: int | None = None,
        refresh_mode: str = "none",
        retains_when_gated: bool = True,
        min_rank_accesses: int = 0,
        record_events: bool = False,
        name: str = "fastseg",
    ) -> None:
        _check_refresh(refresh_mode, retention_ticks)
        geometry.validate()
        self.geometry = geometry
        self.name = name
        self.ways = geometry.associativity
        self.powered_ways = self.ways
        self._way_bytes = geometry.num_sets * geometry.block_size
        self.retention_ticks = retention_ticks
        self.refresh_mode = refresh_mode
        self.retains_when_gated = retains_when_gated
        # Rank-utility hits are only read by controller decisions, which
        # require at least ``decision_accesses`` samples; chunks below
        # ``min_rank_accesses`` rows skip the rank computation.
        self.min_rank_accesses = min_rank_accesses
        # Recorded events: missing row positions, and (position, block,
        # owner, dirty) rows of the evictions, one array per chunk.
        self._missed: list[np.ndarray] | None = [] if record_events else None
        self._evicted: list[np.ndarray] = []
        self._window = retention_ticks if refresh_mode == "invalidate" else None
        self.stats = CacheStats()
        self.gated_misses = 0
        self.epoch_accesses = 0
        self.epoch_misses = 0
        self.epoch_rank_hits: list[int] = [0] * self.ways
        # Flat frame state indexed by ``set * ways + way``.  L2 chunks
        # rarely revisit a set (L1s absorb the locality), so per-set
        # state objects would be re-fetched on almost every access;
        # flat arrays plus one block-keyed tag dict keep the per-access
        # work to a few C-level index operations.  A frame without a
        # resident block is always clean: the gating and finalize scans
        # rely on it.  ``dirty`` covers every set (:meth:`_flush` writes
        # the clean rows' stores in bulk) and has a NumPy view for those
        # scans; the tag map, ``valid``, ``privw``, ``lastref``, ``seqs``
        # and ``blockw`` only cover the sets the loop replays.
        n_frames = geometry.num_sets * self.ways
        self._valid = bytearray(n_frames)
        self._dirty = bytearray(n_frames)
        self._privw = bytearray(n_frames)
        self._lastref = [0] * n_frames
        self._seqs = [0] * n_frames
        self._blockw = [0] * n_frames
        self._tagmap: dict[int, int] = {}
        self._valid_np = np.frombuffer(self._valid, np.uint8)
        self._dirty_np = np.frombuffer(self._dirty, np.uint8)
        # Clean-set state (from :meth:`load`): the block and privilege
        # that fill each frame while its set is clean, the block's first
        # row (past every row if none) and its group in ``_block_key``.
        self._way_block = np.zeros(n_frames, np.int64)
        self._way_priv = np.zeros(n_frames, np.uint8)
        self._way_first = np.full(n_frames, np.iinfo(np.int64).max)
        self._way_group = np.zeros(n_frames, np.int64)
        # The row from which the loop replays each set: past every row
        # while the set is clean, its first event once it is handed over.
        self._handed = np.full(geometry.num_sets, np.iinfo(np.int64).max)
        # The loop's recency sequence: a clean row's is its row number
        # plus one; the loop counts on from the row count, so it stays
        # above every sequence a set brings from its clean state.
        self._seqc = 0
        self._loaded = False
        self._chunk_starts: list[int] = [0]
        # Lower bound of every ``lastref``, the first chunk that may
        # outlast the window from it, and the last tick a decay test may
        # read once rows are loaded (see :meth:`_decay_window`).
        self._tick_min = 0
        self._full_from = 0
        self._horizon: int | None = None
        # The span being replayed, how many rows are replayed, and the
        # gate masks by (new, old) powered ways.
        self._span: _Span | None = None
        self._replayed = 0
        self._gates: dict[tuple[int, int], np.ndarray] = {}

    # -- geometry ------------------------------------------------------

    @property
    def powered_bytes(self) -> int:
        return self._way_bytes * self.powered_ways

    # -- the SetAssociativeCache maintenance protocol ------------------

    def set_powered_ways(self, new_powered: int, tick: int) -> int:
        """Gate or re-enable ways; mirrors the reference semantics.

        Dirty live blocks in newly gated ways are flushed (write-back +
        gate flush); dirty decayed blocks are drained as expiry
        write-backs; with ``retains_when_gated=False`` every gated block
        is additionally invalidated.  Re-enabling is free.
        """
        if not 1 <= new_powered <= self.ways:
            raise ValueError(f"new_powered must be in [1, {self.ways}], got {new_powered}")
        flushes = 0
        if new_powered < self.powered_ways:
            self._flush()
            # The gated frames as a flat 0/1 mask: contiguous scans beat
            # strided views of the frame arrays.
            gate = self._gates.get((new_powered, self.powered_ways))
            if gate is None:
                gate = np.zeros((self.geometry.num_sets, self.ways), np.uint8)
                gate[:, new_powered:self.powered_ways] = 1
                gate = self._gates[new_powered, self.powered_ways] = gate.ravel()
            dirty = self._dirty_np & gate
            held = int(np.count_nonzero(dirty))
            window = self._decay_window(tick)
            expired = 0
            if held and window is not None:
                expired = int(np.count_nonzero(tick - self._refs(dirty.nonzero()[0]) > window))
            flushes = held - expired
            st = self.stats
            st.expiry_writebacks += expired
            st.writebacks += flushes
            st.gate_flushes += flushes
            if held:
                self._dirty_np ^= dirty  # clears the gated dirty bits
            if not self.retains_when_gated:
                # Dropping a clean set's blocks ends its clean state: the
                # loop replays all its remaining rows, in a new run (the
                # current one's loop rows no longer hold).
                filled = self._way_first.reshape(-1, self.ways)[:, new_powered:self.powered_ways]
                turned = np.flatnonzero((filled < self._replayed).any(axis=1)
                                        & (self._handed >= self._replayed))
                if len(turned):
                    self._close_span()
                    self._materialise(
                        self._handover(turned, np.full(len(turned), self._replayed))[0])
                    self._handed[turned] = self._replayed
                valid = self._valid_np & gate
                tagmap, blockw = self._tagmap, self._blockw
                for f in valid.nonzero()[0].tolist():
                    del tagmap[blockw[f]]
                self._valid_np ^= valid
        self.powered_ways = new_powered
        return flushes

    def begin_epoch(self) -> None:
        self.epoch_accesses = 0
        self.epoch_misses = 0
        self.epoch_rank_hits = [0] * self.ways

    def finalize(self, tick: int) -> None:
        """Drain dirty blocks that decayed unobserved (all ways, gated
        included — gated blocks are always clean, so only live-frame
        decay can charge here)."""
        self._flush()
        window = self._decay_window(tick)
        if window is None:
            return
        # dirty implies resident (class invariant), no valid check needed
        frames = self._dirty_np.nonzero()[0]
        stale = frames[tick - self._refs(frames) > window]
        self.stats.expiry_writebacks += len(stale)
        self._dirty_np[stale] = 0

    def _decay_window(self, tick: int) -> int | None:
        """The retention window, or None when no decay test at ``tick``
        can fire: every resident block was last written at or after
        ``_tick_min``, so ``tick - lastref`` cannot exceed the window.
        No test may read a tick past the horizon :meth:`load` was given."""
        if self._horizon is not None and tick > self._horizon:
            raise ValueError(f"{self.name}: tick {tick} is past the horizon {self._horizon}")
        window = self._window
        if window is None or tick - self._tick_min <= window:
            return None
        return window

    # -- clean sets ----------------------------------------------------

    def _refs(self, frames):
        """Last cell write of each of ``frames`` (flat indices, resident
        blocks): as of the block's latest replayed row in a clean set, or
        from the loop's list for a set it replays."""
        refs = np.empty(len(frames), np.int64)
        clean = self._handed[frames // self.ways] >= self._replayed
        lastref = self._lastref
        refs[~clean] = [lastref[f] for f in frames[~clean].tolist()]
        if clean.any():
            refs[clean] = self._ref[self._last_rows(frames[clean], self._replayed)]
        return refs

    def _last_rows(self, frames, before):
        """The latest row before ``before`` (a row, or one per frame) of
        the block each clean frame of ``frames`` holds; the block must
        have a row by then."""
        base = self._way_group[frames] * (len(self._reach) + 1)
        key = self._block_key
        # The search runs several times faster on ascending queries.
        query = base + before
        by_query = np.argsort(query)
        at = np.empty_like(by_query)
        at[by_query] = np.searchsorted(key, query[by_query])
        return key[at - 1] - base

    def _handover(self, sets, before):
        """What the loop takes over from clean ``sets`` at rows ``before``
        (one per set): columns (frame, block, recency, last cell write,
        privilege) of the blocks each set holds by then, and how many
        each holds.  A block's recency is its latest row plus one, and
        its last write that row's (read only under retention)."""
        if not len(sets):
            return np.zeros((5, 0), np.int64), np.zeros(0, np.int64)
        ways = self.ways
        frames = (sets[:, None] * ways + np.arange(ways)).ravel()
        before = before.repeat(ways)
        filled = self._way_first[frames] < before
        frames = frames[filled]
        last = self._last_rows(frames, before[filled])
        columns = np.stack([frames, self._way_block[frames], last + 1,
                            self._ref[last] if self._window is not None else last,
                            self._way_priv[frames]])
        return columns, filled.reshape(-1, ways).sum(axis=1)

    def _materialise(self, handover) -> None:
        """Hand clean sets to the loop: the blocks of ``handover``
        (columns from :meth:`_handover`) enter the tag map and the loop's
        frame columns."""
        valid, privw, blockw = self._valid, self._privw, self._blockw
        seqs, lastref, tagmap = self._seqs, self._lastref, self._tagmap
        for f, block, seq, ref, priv in zip(*handover.tolist()):
            valid[f] = 1
            privw[f] = priv
            blockw[f] = block
            seqs[f] = seq
            lastref[f] = ref
            tagmap[block] = f

    # -- runs of constant ways -----------------------------------------

    def _resolve(self, chunk: int, stop: int) -> _Span:
        """Resolve chunks ``chunk`` to ``stop`` of a run under the current
        powered ways ``P``: one NumPy pass over their rows.

        A clean set's first event is its first row with ``reach >= P``
        (a way at or past ``P``, or a decayed hit); from there on its
        rows go to the loop, as do those of every set already there."""
        powered, ways = self.powered_ways, self.ways
        starts = self._starts[chunk:stop + 1]
        lo, n = int(starts[0]), int(starts[-1])
        # A clean set (``_handed`` past every row) turns at its first
        # event.
        handed = self._handed
        at = np.flatnonzero(self._reach[lo:n] >= min(powered, _MASK_BITS)) + lo
        at_sets = self._set[at]
        clean = handed[at_sets] > n
        at, at_sets = at[clean], at_sets[clean]
        np.minimum.at(handed, at_sets, at)
        turned = np.flatnonzero(np.bincount(at_sets, minlength=len(handed)))
        at = handed[turned]
        by_event = np.argsort(at)
        turned, at = turned[by_event], at[by_event]
        # the rows of the sets handed over by then
        loop = np.flatnonzero((handed < n)[self._set[lo:n]]) + lo
        loop = loop[handed[self._set[loop]] <= loop]
        handover, held = self._handover(turned, at)
        # the clean stores, and their frames: a clean row's way is its reach
        stores = self._writes[lo:n].copy()
        stores[loop - lo] = False
        stores = np.flatnonzero(stores) + lo
        store_frames = self._set[stores] * ways + self._reach[stores]
        cols = np.stack([self._ticks[loop], self._blocks[loop],
                         self._set[loop] * ways, self._privs[loop], self._writes[loop],
                         self._demand[loop], self._first[loop]]) if len(loop) else None
        ranks = None
        if any(self._ranked[chunk:stop]):
            # A clean hit's rank: the powered ways accessed since its
            # block's previous access (a clean set has no stale frames),
            # so below ``P``.  First occurrences (all mask bits) and the
            # loop's rows rank ``P``, past every hit.
            top = min(powered, _MASK_BITS)
            ranks = np.bitwise_count(self._mask[lo:n] & ((1 << top) - 1))
            ranks[loop - lo] = top
        hand_off = np.concatenate(([0], held.cumsum()))
        turn_off = np.searchsorted(at, starts)
        return _Span(powered, chunk, stop, lo, ranks, turned, turn_off.tolist(), handover,
                     hand_off[turn_off].tolist(), loop, np.searchsorted(loop, starts).tolist(),
                     cols, store_frames, np.searchsorted(stores, starts).tolist())

    def _flush(self) -> None:
        """Set ``dirty`` for the stores of the span's replayed clean rows.
        Every reader of ``dirty`` flushes first: gates, materialisation
        and finalize."""
        span = self._span
        if span is not None and span.flushed < span.done:
            self._dirty_np[span.store_frames[span.store_off[span.flushed]:
                                             span.store_off[span.done]]] = 1
            span.flushed = span.done

    def _close_span(self) -> None:
        """Flush the current span, keep clean the sets whose first event
        falls in a chunk it did not replay, and book its replayed rows
        per route."""
        span = self._span
        if span is None:
            return
        self._flush()
        self._span = None
        self._handed[span.turn_sets[span.turn_off[span.done]:]] = np.iinfo(np.int64).max
        rows = self._chunk_starts[span.first + span.done] - span.lo
        looped = span.loop_off[span.done]
        obs.inc("fastsim.prefix.rows", rows - looped)
        obs.inc("fastsim.loop.rows", looped)

    # -- chunked replay ------------------------------------------------

    def load(self, ticks, addrs, privs, writes, demand, chunk_ids, n_chunks: int,
             horizon: int) -> None:
        """Decompose and index this segment's rows for chunked replay.

        ``chunk_ids`` must be this segment's (non-decreasing) chunk
        index per row — ``cummax(global ticks) // epoch_ticks`` masked
        to the segment — so chunk boundaries agree across segments.
        ``horizon`` is the last tick a gate or :meth:`finalize` may come
        at (the finalize tick).  Outcome-independent stats (access
        totals, privilege and write splits) are credited here; hit/miss
        counters accrue per chunk.  A segment loads its rows once.

        When the window covers every tick from the segment's first to
        its last row or the horizon, whichever is later, no decay test
        can fire and the segment replays retention-free
        (``fastsim.retention.elided``).  Otherwise the chunks whose ticks
        all lie within the window of the first tick skip the decay test
        (``fastsim.retention.elided_chunks``).
        """
        if self._loaded:
            raise RuntimeError(f"{self.name}: a segment loads its rows once")
        self._loaded = True
        self._horizon = horizon
        addrs = np.asarray(addrs, dtype=np.uint64)
        ticks = np.asarray(ticks, dtype=np.int64)
        privs = _checked_privs(privs)
        writes = np.asarray(writes, dtype=bool)
        demand = np.asarray(demand, dtype=bool)
        n = len(addrs)
        st = self.stats
        st.accesses += n
        kernel_accesses = int(np.count_nonzero(privs))
        st.accesses_by_priv[0] += n - kernel_accesses
        st.accesses_by_priv[1] += kernel_accesses
        st.write_accesses += int(np.count_nonzero(writes))
        st.demand_accesses += int(np.count_nonzero(demand))
        # Rows replay in the order given: stream order (exactly the
        # reference loop's order), or any order that keeps each set's rows
        # in stream order while the geometry is fixed.  ``chunk_ids`` is
        # non-decreasing, so each chunk is a contiguous slice found by
        # searchsorted.
        chunk_ids = np.asarray(chunk_ids, dtype=np.int64)
        starts = np.searchsorted(chunk_ids, np.arange(n_chunks + 1))
        self._starts = starts
        self._chunk_starts = starts.tolist()
        if n == 0:
            return

        self._seqc = n
        self._tick_min = int(ticks.min())
        self._full_from = n_chunks
        self._horizon = max(int(ticks.max()), horizon)
        if self._window is not None:
            if self._horizon - self._tick_min <= self._window:
                obs.inc("fastsim.retention.elided")
                self._window = None
            else:
                late = ticks > self._tick_min + self._window
                if late.any():
                    self._full_from = int(chunk_ids[late.argmax()])
                elided = int(np.count_nonzero(np.diff(starts[:self._full_from + 1])))
                if elided:
                    obs.inc("fastsim.retention.elided_chunks", elided)
        sizes = np.diff(starts)
        ranked = sizes >= self.min_rank_accesses
        self._ranked = ranked.tolist()
        self._model_rows(ticks, addrs, privs, writes, demand,
                         np.repeat(ranked, sizes) if ranked.any() else None)
        # Each chunk's first occurrences, and those of kernel rows and of
        # demand rows: its misses while every set it touches is clean.
        first = np.flatnonzero(self._first)
        chunk_ids = chunk_ids[first]
        self._chunk_fills = list(zip(*(
            np.bincount(ids, minlength=n_chunks).tolist()
            for ids in (chunk_ids, chunk_ids[privs[first] != 0], chunk_ids[demand[first]])
        )))

    def _model_rows(self, ticks, addrs, privs, writes, demand, ranked) -> None:
        """Per-row columns of the clean-set model, in row order.

        Row ``r`` accesses the ``j``-th distinct block of its set (in
        first-occurrence order), which a clean set holds in way ``j``;
        ``_first`` marks the block's first row, and ``_block_key`` lists
        each block's rows.  ``_reach`` is ``j``, or the int32 maximum for
        a hit whose block decayed since its last cell write (its fill or
        latest store, ``_ref`` under retention): the row keeps its set
        clean while ``_reach`` is below the powered ways.  When some
        chunk tracks ranks, ``ranked`` flags its rows, and ``_mask``
        holds such a hit's bitset of the ways accessed in its set since
        its block's previous access (all bits for a first occurrence).
        """
        geometry = self.geometry
        num_sets, ways = geometry.num_sets, self.ways
        n = len(addrs)
        blocks = addrs >> np.uint64(geometry.block_size.bit_length() - 1)
        set_idx = (blocks & np.uint64(num_sets - 1)).astype(np.intp)
        self._ticks, self._blocks, self._set = ticks, blocks.view(np.int64), set_idx
        self._privs, self._writes, self._demand = privs, writes, demand

        # First-occurrence ranks need each set's rows together: work in
        # set-major order (``order`` maps its positions to rows).
        order = _set_order(blocks, num_sets)
        s_blocks, s_set = blocks[order], set_idx[order]
        by_block, opens, first_pos, group_way = _first_occurrences(
            s_blocks, s_set, np.searchsorted(s_set, np.arange(num_sets + 1)))
        # The fill of frame (set, j) while the set is clean.
        fills = np.flatnonzero(group_way < ways)
        fill_pos = first_pos[fills]
        frames = s_set[fill_pos] * ways + group_way[fills]
        self._way_group[frames] = fills
        self._way_block[frames] = s_blocks[fill_pos]
        fill_rows = order[fill_pos]
        self._way_priv[frames] = privs[fill_rows]
        self._way_first[frames] = fill_rows

        # Each block's accesses in row order: ``by_block`` lists their
        # set-major positions block by block, ``r_rows`` their rows, and
        # ``opens`` marks each block's first.  Keyed ``group * (n + 1) +
        # row`` they ascend, so a block's latest row before any bound is
        # one search away (``_last_rows``).
        r_rows = order[by_block]
        group = np.zeros(n, np.intp)
        np.cumsum(opens[1:], out=group[1:])
        self._block_key = group * (n + 1)
        self._block_key += r_rows
        first_rows = order[first_pos]
        self._first = np.zeros(n, dtype=bool)
        self._first[first_rows] = True
        self._reach = np.empty(n, np.int32)
        self._reach[r_rows] = group_way[group]

        if ranked is not None:
            # Consecutive rows of a block lie at set-major positions
            # ``p < q``; a ranked hit with ways accessed between gets them.
            p, q, rows = by_block[:-1], by_block[1:], r_rows[1:]
            gaps = np.flatnonzero(~opens[1:] & ranked[rows] & (q - p > 1))
            dtype = np.dtype(np.uint16 if ways <= 16 else np.uint64)
            self._mask = np.zeros(n, dtype)
            self._mask[rows.take(gaps)] = _between_masks(
                self._reach[order], p.take(gaps), q.take(gaps), dtype)
            self._mask[first_rows] = ~dtype.type(0)

        if self._window is not None:
            # A hit decays when its tick is past the window from the
            # block's last cell write; no row of a chunk before
            # ``_full_from`` can, so the test is exact in every chunk, and
            # skipped when no chunk can decay.  Gates and finalize past
            # the window still read the last writes.
            r_ticks = ticks[r_rows]
            stores = opens | writes[r_rows]
            ref = r_ticks[np.maximum.accumulate(np.where(stores, np.arange(n), 0))]
            if self._full_from < len(self._chunk_starts) - 1:
                decayed = np.zeros(n, dtype=bool)
                np.greater(r_ticks[1:] - ref[:-1], self._window, out=decayed[1:])
                decayed &= ~opens
                self._reach[r_rows[decayed]] = np.iinfo(np.int32).max
            self._ref = np.empty(n, np.int64)
            self._ref[r_rows] = ref

    def replay_chunk(self, chunk: int) -> None:
        """Replay one chunk's accesses under the current powered ways.

        A chunk that meets other powered ways than the current run's, or
        follows a gate that dropped clean sets, starts a run; one past
        the resolved span of its run resolves the next span (see
        :class:`_Span`).  Then the chunk's clean rows cost list reads,
        the sets whose first event falls in it go to the loop, and the
        per-access loop replays the rows its span marked for it."""
        lo = self._chunk_starts[chunk]
        hi = self._chunk_starts[chunk + 1]
        self.epoch_accesses += hi - lo
        if lo == hi:
            return
        st = self.stats
        window = self._window if chunk >= self._full_from else None
        powered = self.powered_ways
        span = self._span
        if span is None or span.ways != powered or chunk >= span.stop:
            if span is None or span.ways != powered:
                obs.inc("fastsim.epoch.runs")
                width = _FIRST_SPAN
            else:  # the run goes on
                width = 2 * (span.stop - span.first)
            self._close_span()
            span = self._span = self._resolve(
                chunk, min(chunk + width, len(self._chunk_starts) - 1))
        c = chunk - span.first
        span.done = c + 1
        self._replayed = hi
        if span.turn_off[c] < span.turn_off[c + 1]:
            self._flush()
            self._materialise(span.handover[:, span.hand_off[c]:span.hand_off[c + 1]])
        # A first occurrence misses, in a clean set or in the loop.
        misses, kernel_misses, demand_misses = self._chunk_fills[chunk]
        a, b = span.loop_off[c], span.loop_off[c + 1]
        missed = self._missed
        if missed is not None:
            fills = self._first[lo:hi].copy()
            fills[span.loop[a:b] - lo] = False
            missed.append(np.flatnonzero(fills) + lo)
        track_ranks = self._ranked[chunk]
        if track_ranks:
            # the clean hits' ranks, without the bucket ``P`` (the rest)
            top = min(powered, _MASK_BITS)
            ranks = np.bincount(span.ranks[lo - span.lo:hi - span.lo], minlength=top + 1)
            rank_hits = self.epoch_rank_hits
            rank_hits[:top] = [x + y for x, y in zip(rank_hits, ranks[:top].tolist())]

        # The rows from each set's first event on: the per-access loop.
        if a < b:
            rank_hits = self.epoch_rank_hits
            tagmap = self._tagmap
            mget = tagmap.get
            valid = self._valid
            dirty = self._dirty
            privw = self._privw
            lastref = self._lastref
            seqs = self._seqs
            blockw = self._blockw
            evictions = writebacks = exp_inv = exp_wb = 0
            ec = [0, 0, 0, 0]
            seqc = seq0 = self._seqc
            record = missed is not None
            loop_missed, loop_evicted = [], []
            for tick, block, base, priv, isw, dm, fresh in zip(*span.cols[:, a:b].tolist()):
                seqc += 1
                f = mget(block)
                if f is not None:
                    if f - base >= powered:
                        # The block sits in a power-gated way: unreachable,
                        # so this access misses and the stale mapping dies.
                        # (Invalid frames stay clean — the gating and
                        # finalize scans rely on it.)
                        self.gated_misses += 1
                        valid[f] = 0
                        dirty[f] = 0
                        del tagmap[block]
                    elif window is not None and tick - lastref[f] > window:
                        # Resident but decayed: a retention-caused miss.
                        exp_inv += 1
                        if dirty[f]:
                            exp_wb += 1
                            dirty[f] = 0
                        valid[f] = 0
                        del tagmap[block]
                    else:
                        if track_ranks:
                            mine = seqs[f]
                            rank = 0
                            for x in seqs[base:base + powered]:
                                if x > mine:
                                    rank += 1
                            rank_hits[rank] += 1
                        seqs[f] = seqc
                        if isw:
                            dirty[f] = 1
                            lastref[f] = tick  # a store rewrites the cells
                        continue
                if not fresh:  # a first occurrence is counted above
                    misses += 1
                    if priv:
                        kernel_misses += 1
                    if dm:
                        demand_misses += 1
                end = base + powered
                target = valid.find(0, base, end)
                if target < 0:
                    expired = -1
                    if window is not None:
                        for i in range(base, end):
                            if tick - lastref[i] > window:
                                expired = i
                                break
                    if expired >= 0:
                        # Reclaim a decayed frame: not an interference
                        # eviction (data already gone).
                        target = expired
                        if dirty[target]:
                            exp_wb += 1
                        del tagmap[blockw[target]]
                    else:
                        sub = seqs[base:end]
                        target = base + sub.index(min(sub))
                        evictions += 1
                        if record:
                            loop_evicted += (seqc, blockw[target], privw[target], dirty[target])
                        ec[(privw[target] << 1) | priv] += 1
                        if dirty[target]:
                            writebacks += 1
                        del tagmap[blockw[target]]
                valid[target] = 1
                blockw[target] = block
                privw[target] = priv
                dirty[target] = 1 if isw else 0
                lastref[target] = tick
                seqs[target] = seqc
                tagmap[block] = target
                if record:
                    loop_missed.append(seqc)
            self._seqc = seqc
            if record:
                # a loop row's sequence number less ``seq0 + 1`` is its index in ``loop``
                loop = span.loop[a:b]
                missed.append(loop[np.array(loop_missed, dtype=np.int64) - (seq0 + 1)])
                evicted = np.array(loop_evicted, dtype=np.int64).reshape(-1, 4)
                evicted[:, 0] = loop[evicted[:, 0] - (seq0 + 1)]
                self._evicted.append(evicted)
            st.evictions += evictions
            st.writebacks += writebacks
            st.expiry_invalidations += exp_inv
            st.expiry_writebacks += exp_wb
            cross = st.evictions_cross
            cross[0][0] += ec[0]
            cross[0][1] += ec[1]
            cross[1][0] += ec[2]
            cross[1][1] += ec[3]
        self.epoch_misses += misses
        st.hits += hi - lo - misses  # every row that does not miss hits
        st.misses += misses
        st.fills += misses
        st.demand_misses += demand_misses
        st.misses_by_priv[0] += misses - kernel_misses
        st.misses_by_priv[1] += kernel_misses
        if hi == self._chunk_starts[-1]:
            self._close_span()  # the segment's last row

    def miss_events(self, rows) -> MissEvents:
        """The recorded misses and evictions, each row position mapped to
        the caller's index ``rows[position]``."""
        evicted = np.concatenate([np.zeros((0, 4), np.int64), *self._evicted])
        return MissEvents(
            rows[np.concatenate([np.zeros(0, np.intp), *self._missed])], rows[evicted[:, 0]],
            evicted[:, 1].astype(np.uint64) << np.uint64(self.geometry.block_size.bit_length() - 1),
            evicted[:, 2].astype(np.uint8), evicted[:, 3].astype(bool),
        )


# ----------------------------------------------------------------------
# front ends


def fast_l1_filter(trace, platform: PlatformConfig):
    """Array-backed equivalent of :func:`repro.cache.hierarchy.l1_filter`.

    Splits the trace into the L1I and L1D streams, replays each through
    the kernel with event recording, and merges the miss/write-back
    events back into program order — producing an ``L2Stream`` whose
    columns and L1 stats are bit-identical to the reference filter.
    """
    from repro.cache.hierarchy import L2Stream

    # Each L1's rows in program order.  The kernel reads addresses,
    # privileges and store flags only, gathered from the trace's
    # contiguous columns.
    addrs, kinds, privs = trace.addrs, trace.kinds, trace.privs
    is_data = kinds != np.uint8(AccessKind.IFETCH)
    (i_stats, i_ev), (d_stats, d_ev) = (
        simulate_trace(geometry, None, addrs[rows], privs[rows],
                       kinds[rows] == np.uint8(AccessKind.STORE),
                       record_events=True, orig_indices=rows)
        for geometry, rows in ((platform.l1i, np.flatnonzero(~is_data)),
                               (platform.l1d, np.flatnonzero(is_data)))
    )
    del is_data

    # Program order: the misses sorted by trace index, each L1D
    # write-back (a dirty victim) placed right after the miss that
    # evicted it, exactly like the reference filter's append order.  The
    # L1I never writes back.
    miss_idx = np.sort(np.concatenate([i_ev.miss_idx, d_ev.miss_idx]))
    wb = np.flatnonzero(d_ev.evict_dirty)
    wb = wb[np.argsort(d_ev.evict_idx[wb])]
    wb_idx = d_ev.evict_idx[wb]
    writes = np.zeros(len(miss_idx) + len(wb_idx), dtype=bool)
    writes[np.searchsorted(miss_idx, wb_idx) + np.arange(1, len(wb_idx) + 1)] = True
    demand = ~writes
    row_idx = np.empty(len(writes), dtype=np.int64)
    row_idx[demand] = miss_idx
    row_idx[writes] = wb_idx
    addrs = addrs[row_idx]
    addrs[writes] = d_ev.evict_addr[wb]
    privs = privs[row_idx]
    privs[writes] = d_ev.evict_priv[wb]

    return L2Stream(
        name=trace.name,
        # the int64 view holds what astype(np.int64) would copy out
        ticks=trace.ticks.view(np.int64)[row_idx],
        addrs=addrs,
        privs=privs,
        writes=writes,
        demand=demand,
        instructions=trace.instructions,
        trace_accesses=len(trace),
        duration_ticks=trace.duration_ticks,
        l1i_stats=i_stats,
        l1d_stats=d_stats,
    )


def fixed_envelope(segments, router) -> bool:
    """True when :func:`run_fixed` replays ``segments`` exactly.

    Every segment cache must be inside :func:`supports_cache`, and the
    router must be a pure privilege→segment mapping.  Designs decide
    their engine with this check before replay; each refusal books a
    ``fastsim.decline.*`` counter.
    """
    caches = [seg.cache for seg in segments]
    if not caches or not all(supports_cache(c) for c in caches):
        obs.inc("fastsim.decline.unsupported-cache")
        return False
    for priv in (Privilege.USER, Privilege.KERNEL):
        if not any(router(int(priv)) is c for c in caches):
            obs.inc("fastsim.decline.router")
            return False
    return True


def run_fixed(stream, segments, router, record_events: bool = False) -> MissEvents | None:
    """Replay ``stream`` through fixed segments with the fast kernel.

    The segments and router must pass :func:`fixed_envelope`.  The
    per-segment ``stats`` (including finalize accounting) are installed
    on each cache, so the caller skips its own ``finalize`` pass.  With
    ``record_events``, returns every segment's :class:`MissEvents`
    indexed by stream row; otherwise None.
    """
    user_cache = router(int(Privilege.USER))
    kernel_cache = router(int(Privilege.KERNEL))
    if user_cache is kernel_cache:
        jobs = [(user_cache, slice(None))]
    else:
        jobs = list(zip((user_cache, kernel_cache), stream.privilege_rows()))
    events = []
    for cache, rows in jobs:
        # ticks are read only where blocks can expire
        ticks = stream.ticks[rows] if cache.refresh_mode == "invalidate" else None
        cache.stats, ev = simulate_trace(
            cache.geometry, ticks, stream.addrs[rows], stream.privs[rows], stream.writes[rows],
            stream.demand[rows], retention_ticks=cache.retention_ticks,
            refresh_mode=cache.refresh_mode, finalize_tick=stream.duration_ticks,
            record_events=record_events, orig_indices=None if isinstance(rows, slice) else rows,
        )
        events.append(ev)
    if not record_events:
        return None
    return MissEvents(*(np.concatenate([getattr(ev, f.name) for ev in events])
                        for f in fields(MissEvents)))
