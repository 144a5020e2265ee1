"""The set-associative cache engine.

This is the workhorse of the reproduction: a single-level, write-back,
write-allocate, set-associative cache with

* pluggable replacement (:mod:`repro.cache.replacement`),
* per-block privilege ownership and cross-privilege eviction accounting
  (the paper's interference metric),
* optional finite data retention (STT-RAM) with two handling modes —
  ``"invalidate"`` (expired blocks silently die; a re-reference misses)
  and ``"rewrite"`` (a refresh controller rewrites live blocks each
  refresh period, charged to ``refresh_writes``), and
* way power-gating (:meth:`SetAssociativeCache.set_powered_ways`), used
  by the dynamic partition controller.

Time is the trace tick (core cycles).  Retention is expressed in ticks.
"""

from __future__ import annotations

from repro.cache.block import Entry
from repro.cache.replacement import LRUPolicy, ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats
from repro.config import CacheGeometry

__all__ = ["AccessResult", "SetAssociativeCache", "REFRESH_MODES"]

REFRESH_MODES = ("none", "invalidate", "rewrite")

#: Refresh period as a fraction of the retention window in ``rewrite``
#: mode.  Refreshing at 80% of retention guarantees no cell ever expires.
_REFRESH_FRACTION = 0.8


class AccessResult:
    """Outcome of one cache access (cheap value object).

    ``victim_addr``/``victim_priv`` describe the block evicted by this
    access (set whenever a valid victim was displaced, dirty or clean):
    when ``writeback`` is True the level above needs the address to
    forward the write-back downstream, and prefetch bookkeeping needs it
    either way to retire tracking for blocks that leave the cache.
    """

    __slots__ = ("hit", "writeback", "expired", "hit_rank", "victim_addr", "victim_priv")

    def __init__(
        self,
        hit: bool,
        writeback: bool,
        expired: bool,
        hit_rank: int | None,
        victim_addr: int | None = None,
        victim_priv: int | None = None,
    ) -> None:
        self.hit = hit
        self.writeback = writeback
        self.expired = expired
        self.hit_rank = hit_rank
        self.victim_addr = victim_addr
        self.victim_priv = victim_priv

    def __repr__(self) -> str:
        return (
            f"AccessResult(hit={self.hit}, writeback={self.writeback}, "
            f"expired={self.expired}, hit_rank={self.hit_rank})"
        )


class SetAssociativeCache:
    """A write-back write-allocate set-associative cache.

    Args:
        geometry: Size/associativity/block size.
        policy: Replacement policy instance or name.
        retention_ticks: Data-retention window in ticks, or ``None`` for
            non-volatile-enough storage (SRAM / long-retention STT-RAM).
        refresh_mode: ``"none"`` (requires ``retention_ticks is None``),
            ``"invalidate"`` or ``"rewrite"``.
        name: Label used in diagnostics.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy | str = "lru",
        retention_ticks: int | None = None,
        refresh_mode: str = "none",
        retains_when_gated: bool = True,
        retention_distribution: str = "fixed",
        retention_seed: int = 0xDECA,
        name: str = "cache",
    ) -> None:
        geometry.validate()
        if refresh_mode not in REFRESH_MODES:
            raise ValueError(f"refresh_mode must be one of {REFRESH_MODES}, got {refresh_mode!r}")
        if retention_ticks is None and refresh_mode != "none":
            raise ValueError("refresh_mode requires a finite retention_ticks")
        if retention_ticks is not None:
            if retention_ticks <= 0:
                raise ValueError(f"retention_ticks must be positive, got {retention_ticks}")
            if refresh_mode == "none":
                raise ValueError("finite retention needs refresh_mode 'invalidate' or 'rewrite'")
        if retention_distribution not in ("fixed", "exponential"):
            raise ValueError(
                f"retention_distribution must be 'fixed' or 'exponential', "
                f"got {retention_distribution!r}"
            )
        self.geometry = geometry
        self.name = name
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.retention_ticks = retention_ticks
        self.refresh_mode = refresh_mode
        self.retention_distribution = retention_distribution
        self._retention_rng = None
        if retention_distribution == "exponential" and retention_ticks is not None:
            import numpy as _np

            self._retention_rng = _np.random.default_rng(retention_seed)
        self._refresh_period = (
            max(1, int(retention_ticks * _REFRESH_FRACTION))
            if (retention_ticks is not None and refresh_mode == "rewrite")
            else None
        )
        self.stats = CacheStats()
        self._block_bits = geometry.block_size.bit_length() - 1
        self._num_sets = geometry.num_sets
        self._set_mask = self._num_sets - 1
        self._set_bits = self._num_sets.bit_length() - 1
        self.ways = geometry.associativity
        self.powered_ways = self.ways
        self.retains_when_gated = retains_when_gated
        self.gated_misses = 0
        # Per-set state is built on first use: a cache whose replay the
        # fast kernel takes over never pays for it.
        self._frames: list[list[Entry | None]] = _Unbuilt(self, "_frames")
        self._tagmaps: list[dict[int, int]] = _Unbuilt(self, "_tagmaps")
        self._pstates: list[object] = _Unbuilt(self, "_pstates")
        self._track_ranks = isinstance(self.policy, LRUPolicy)
        # Reused hit outcome: every hit returns this one object (with the
        # rank refreshed) instead of allocating a new AccessResult.  All
        # constant fields stay constant; callers consume the result
        # before the next access, so sharing is observationally safe.
        self._hit_result = AccessResult(True, False, False, None)
        # Epoch counters consumed by the dynamic partition controller.
        self.epoch_accesses = 0
        self.epoch_misses = 0
        self.epoch_rank_hits: list[int] = [0] * self.ways

    def _build_sets(self) -> None:
        """Build the per-set frames, tag maps and replacement states."""
        self._frames = [[None] * self.ways for _ in range(self._num_sets)]
        self._tagmaps = [dict() for _ in range(self._num_sets)]
        self._pstates = [self.policy.init_set(self.ways) for _ in range(self._num_sets)]

    def is_empty(self) -> bool:
        """True when no block is resident (without building per-set state)."""
        return type(self._tagmaps) is _Unbuilt or not any(self._tagmaps)

    # ------------------------------------------------------------------
    # geometry helpers

    @property
    def size_bytes(self) -> int:
        """Provisioned capacity (every way, powered or gated)."""
        return self._num_sets * self.ways * self.geometry.block_size

    @property
    def powered_bytes(self) -> int:
        """Currently powered capacity (leakage burns only here)."""
        return self._num_sets * self.powered_ways * self.geometry.block_size

    def _index(self, addr: int) -> tuple[int, int]:
        """Split an address into (set index, tag)."""
        blk = addr >> self._block_bits
        return blk & self._set_mask, blk >> self._set_bits

    def _frame_addr(self, set_i: int, tag: int) -> int:
        """Reconstruct the block-aligned address of (set, tag)."""
        return ((tag << self._set_bits) | set_i) << self._block_bits

    # ------------------------------------------------------------------
    # retention bookkeeping

    def _is_expired(self, entry: Entry, tick: int) -> bool:
        if self.refresh_mode != "invalidate":
            return False
        window = entry.life if entry.life is not None else self.retention_ticks
        return tick - entry.last_refresh > window

    def _draw_life(self, entry: Entry) -> None:
        """Under exponential retention, (re)draw the cell lifetime.

        Thermal retention failures are exponentially distributed; the
        fixed-window model is the mean of this draw.  Called on every
        fill and every cell rewrite (store hit / refresh).
        """
        if self._retention_rng is not None:
            entry.life = max(1, int(self._retention_rng.exponential(self.retention_ticks)))

    def _account_refresh(self, entry: Entry, tick: int) -> None:
        """Charge the refresh rewrites that kept ``entry`` alive until now."""
        if self._refresh_period is None:
            return
        elapsed = tick - entry.last_refresh
        if elapsed >= self._refresh_period:
            n = elapsed // self._refresh_period
            self.stats.refresh_writes += int(n)
            entry.last_refresh += int(n) * self._refresh_period

    def _retire_expired(self, entry: Entry) -> None:
        """Account the natural death of an expired block."""
        if entry.dirty:
            # The retention controller must drain dirty data before the
            # cell decays; we charge that early write-back here.
            self.stats.expiry_writebacks += 1

    # ------------------------------------------------------------------
    # the access path

    def access(
        self,
        addr: int,
        is_write: bool,
        priv: int,
        tick: int,
        demand: bool = True,
    ) -> AccessResult:
        """Look up ``addr``; fill on miss.  Returns the access outcome.

        ``demand=False`` marks write-backs arriving from the level above:
        they allocate on miss without a backing-store fetch and are
        excluded from demand-miss statistics (they sit off the critical
        path).
        """
        st = self.stats
        st.accesses += 1
        st.accesses_by_priv[priv] += 1
        if demand:
            st.demand_accesses += 1
        if is_write:
            st.write_accesses += 1
        self.epoch_accesses += 1

        set_i, tag = self._index(addr)
        tagmap = self._tagmaps[set_i]
        frames = self._frames[set_i]
        pstate = self._pstates[set_i]
        way = tagmap.get(tag)

        expired = False
        if way is not None and way >= self.powered_ways:
            # The block sits in a power-gated way: unreachable, so this
            # access misses.  Drop the stale mapping; the frame itself is
            # cleared so the refill cannot create a duplicate tag.
            self.gated_misses += 1
            frames[way] = None
            del tagmap[tag]
            way = None
        if way is not None:
            entry = frames[way]
            if self._is_expired(entry, tick):
                # The block was here but its cells have decayed: a miss
                # caused purely by finite retention.
                expired = True
                st.expiry_invalidations += 1
                self._retire_expired(entry)
                frames[way] = None
                del tagmap[tag]
                way = None
            else:
                # Hot hit path: guard the lazy refresh accounting inline
                # (the check is cheaper than the call it elides) and
                # return the preallocated hit result.
                if self._refresh_period is not None:
                    self._account_refresh(entry, tick)
                st.hits += 1
                if self._track_ranks:
                    rank = self.policy.hit_rank(pstate, way, self.powered_ways)
                    if rank < len(self.epoch_rank_hits):
                        self.epoch_rank_hits[rank] += 1
                else:
                    rank = None
                if is_write:
                    entry.dirty = True
                    entry.last_refresh = tick  # a store rewrites the cells
                    if self._retention_rng is not None:
                        self._draw_life(entry)
                self.policy.on_hit(pstate, way)
                hit_result = self._hit_result
                hit_result.hit_rank = rank
                return hit_result

        # Miss path ----------------------------------------------------
        st.misses += 1
        st.misses_by_priv[priv] += 1
        if demand:
            st.demand_misses += 1
        self.epoch_misses += 1

        victim_way = self._find_frame(set_i, tick)
        victim = frames[victim_way]
        writeback = False
        victim_addr = None
        victim_priv = None
        if victim is not None:
            st.evictions += 1
            st.evictions_cross[victim.priv][priv] += 1
            victim_addr = self._frame_addr(set_i, victim.tag)
            victim_priv = victim.priv
            if self._is_expired(victim, tick):
                self._retire_expired(victim)
            else:
                self._account_refresh(victim, tick)
                if victim.dirty:
                    st.writebacks += 1
                    writeback = True
            del tagmap[victim.tag]
        new_entry = Entry(tag, priv, is_write, tick)
        self._draw_life(new_entry)
        frames[victim_way] = new_entry
        tagmap[tag] = victim_way
        st.fills += 1
        self.policy.on_fill(pstate, victim_way)
        return AccessResult(False, writeback, expired, None, victim_addr, victim_priv)

    def _find_frame(self, set_i: int, tick: int) -> int:
        """Pick the frame to fill: free first, expired next, else victim.

        Only powered ways are candidates; gated frames keep their
        (retained) contents untouched."""
        frames = self._frames[set_i]
        expired_way = None
        for w in range(self.powered_ways):
            entry = frames[w]
            if entry is None:
                return w
            if expired_way is None and self._is_expired(entry, tick):
                expired_way = w
        if expired_way is not None:
            # Reclaim a decayed frame: its data is already gone, so this
            # is not an interference eviction.
            entry = frames[expired_way]
            self._retire_expired(entry)
            del self._tagmaps[set_i][entry.tag]
            frames[expired_way] = None
            return expired_way
        return self.policy.victim(self._pstates[set_i], self.powered_ways)

    # ------------------------------------------------------------------
    # maintenance operations

    def set_powered_ways(self, new_powered: int, tick: int) -> int:
        """Power-gate or re-enable ways in place; returns dirty flushes.

        Gating a way stops its leakage.  What happens to its contents
        depends on the technology:

        * ``retains_when_gated=True`` (STT-RAM): cells are non-volatile,
          so data stays put — but the way is unsearchable while gated, and
          the retention clock keeps running, so long-gated blocks decay
          normally.  Dirty blocks are flushed (written back) at gating
          time because a decayed dirty block would lose data.
        * ``retains_when_gated=False`` (SRAM): contents are lost; every
          block in the gated ways is flushed-if-dirty and invalidated.

        Re-enabling ways never costs anything: retained entries become
        visible again and the expiry check culls the stale ones.
        """
        if not 1 <= new_powered <= self.ways:
            raise ValueError(
                f"new_powered must be in [1, {self.ways}], got {new_powered}"
            )
        flushes = 0
        if new_powered < self.powered_ways:
            for set_i in range(self._num_sets):
                frames = self._frames[set_i]
                for w in range(new_powered, self.powered_ways):
                    entry = frames[w]
                    if entry is None:
                        continue
                    if entry.dirty and not self._is_expired(entry, tick):
                        self._account_refresh(entry, tick)
                        self.stats.writebacks += 1
                        self.stats.gate_flushes += 1
                        entry.dirty = False
                        flushes += 1
                    elif entry.dirty:
                        self._retire_expired(entry)
                        entry.dirty = False
                    if not self.retains_when_gated:
                        del self._tagmaps[set_i][entry.tag]
                        frames[w] = None
        self.powered_ways = new_powered
        return flushes

    def finalize(self, tick: int) -> None:
        """Settle lazy accounting at end of simulation.

        Charges outstanding refresh rewrites (``rewrite`` mode) and the
        expiry write-backs of dirty blocks that decayed unobserved
        (``invalidate`` mode).
        """
        for set_i in range(self._num_sets):
            for entry in self._frames[set_i]:
                if entry is None:
                    continue
                if self._is_expired(entry, tick):
                    self._retire_expired(entry)
                    entry.dirty = False  # drained; avoid double counting
                else:
                    self._account_refresh(entry, tick)

    def invalidate(self, addr: int, tick: int) -> Entry | None:
        """Remove the block holding ``addr``; returns its entry or None.

        No statistics are charged — the caller owns the consequence
        (e.g. a hybrid cache migrating the block charges the read and
        the destination write itself).  Outstanding refresh rewrites are
        settled first.
        """
        set_i, tag = self._index(addr)
        way = self._tagmaps[set_i].get(tag)
        if way is None:
            return None
        entry = self._frames[set_i][way]
        self._account_refresh(entry, tick)
        del self._tagmaps[set_i][tag]
        self._frames[set_i][way] = None
        return entry

    def begin_epoch(self) -> None:
        """Reset the epoch counters read by the dynamic controller."""
        self.epoch_accesses = 0
        self.epoch_misses = 0
        self.epoch_rank_hits = [0] * self.ways

    # ------------------------------------------------------------------
    # introspection

    def occupancy(self) -> float:
        """Fraction of frames currently holding a block."""
        filled = sum(len(t) for t in self._tagmaps)
        return filled / (self._num_sets * self.ways)

    def contains(self, addr: int) -> bool:
        """True when the block holding ``addr`` is present (may be expired)."""
        set_i, tag = self._index(addr)
        return tag in self._tagmaps[set_i]

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name!r}, {self.size_bytes // 1024} KB, "
            f"{self.ways}-way, policy={self.policy.name}, "
            f"retention={self.retention_ticks}, refresh={self.refresh_mode})"
        )


class _Unbuilt:
    """Stand-in for one per-set state list of a cache until first use.

    Indexing or iterating it builds the cache's per-set state and forwards
    to the real list.  The attributes stay plain instance
    attributes (no class-level lookup hook), so once built the access
    path pays nothing for the laziness.
    """

    __slots__ = ("cache", "name")

    def __init__(self, cache: SetAssociativeCache, name: str) -> None:
        self.cache = cache
        self.name = name

    def _built(self) -> list:
        cache = self.cache
        if type(getattr(cache, self.name)) is _Unbuilt:
            cache._build_sets()
        return getattr(cache, self.name)

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())
