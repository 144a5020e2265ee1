"""Per-access oracles of the user/kernel partition, for tests only.

The simulator builds its partitioned designs as independent per-segment
arrays behind one replay pipeline (:mod:`repro.core.pipeline`).  The two
models here are straightforward restatements of that structure that the
tests check the product against:

* :class:`PartitionedCache` routes every access to one
  :class:`~repro.cache.set_assoc.SetAssociativeCache` per privilege, so
  cross-privilege interference is impossible by construction;
* :class:`WayMaskPartitionedCache` is the single-array, per-privilege
  way-mask implementation a hardware team would start from.  With both
  lookup and allocation confined to the mask it is exactly equivalent
  to two segment arrays sharing a set index, which
  ``test_waypart.py`` checks hit for hit;
* :func:`per_access_epoch_replay` replays the dynamic design access by
  access, firing controller boundaries lazily as ticks reach them and
  waking a segment before every access, which ``test_core_dynamic.py``
  checks the design's epoch-chunk driver against;
* :func:`per_access_awake` integrates the drowsy design's awake time
  line by line as the accesses replay, which ``test_core_drowsy.py``
  checks the design's post-pass over eviction events against;
* :func:`interleaved_dram` drives the banked DRAM model from inside the
  per-access replay, which ``test_dram.py`` checks the pipeline's
  post-pass over replay events against.
"""

from __future__ import annotations

from repro.cache.block import Entry
from repro.cache.replacement import LRUPolicy
from repro.cache.set_assoc import AccessResult, SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import CacheGeometry
from repro.types import Privilege


class PartitionedCache:
    """An L2 made of one cache segment per privilege level.

    Args:
        segments: Mapping from privilege to its segment cache.  Both
            privileges must be present and the segments must share set
            count and block size (they are way-partitions of one array).
    """

    def __init__(self, segments: dict[Privilege, SetAssociativeCache]) -> None:
        missing = [p for p in Privilege if p not in segments]
        if missing:
            raise ValueError(f"partitioned cache missing segments for {missing}")
        geoms = [segments[p].geometry for p in Privilege]
        if len({g.num_sets for g in geoms}) != 1 or len({g.block_size for g in geoms}) != 1:
            raise ValueError("segments must share set count and block size")
        self.segments = dict(segments)

    @property
    def user(self) -> SetAssociativeCache:
        """The user-privilege segment."""
        return self.segments[Privilege.USER]

    @property
    def kernel(self) -> SetAssociativeCache:
        """The kernel-privilege segment."""
        return self.segments[Privilege.KERNEL]

    @property
    def size_bytes(self) -> int:
        """Combined active capacity of both segments."""
        return sum(seg.size_bytes for seg in self.segments.values())

    def segment_for(self, priv: int) -> SetAssociativeCache:
        """Segment that serves accesses at privilege ``priv``."""
        return self.segments[Privilege(priv)]

    def access(
        self, addr: int, is_write: bool, priv: int, tick: int, demand: bool = True
    ) -> AccessResult:
        """Route the access to its privilege's segment."""
        return self.segment_for(priv).access(addr, is_write, priv, tick, demand)

    def finalize(self, tick: int) -> None:
        """Settle lazy accounting in both segments."""
        for seg in self.segments.values():
            seg.finalize(tick)

    @property
    def stats(self) -> CacheStats:
        """Merged whole-L2 statistics."""
        merged = CacheStats()
        for seg in self.segments.values():
            merged = merged.merge(seg.stats)
        return merged

    def __repr__(self) -> str:
        return (
            f"PartitionedCache(user={self.user.size_bytes // 1024} KB, "
            f"kernel={self.kernel.size_bytes // 1024} KB)"
        )


class WayMaskPartitionedCache:
    """One physical array whose ways are statically assigned by privilege.

    Args:
        geometry: Geometry of the whole array.
        user_ways: Number of ways (the low-indexed ones) reserved for
            user-privilege accesses.  The remaining
            ``geometry.associativity - user_ways`` ways belong to the
            kernel.  Both regions must be non-empty.

    The replacement policy is true LRU per privilege region (matching
    the segment model's default).
    """

    def __init__(self, geometry: CacheGeometry, user_ways: int) -> None:
        geometry.validate()
        if not 0 < user_ways < geometry.associativity:
            raise ValueError(
                f"user_ways must leave both regions non-empty: "
                f"0 < {user_ways} < {geometry.associativity}"
            )
        self.geometry = geometry
        self.user_ways = user_ways
        self.kernel_ways = geometry.associativity - user_ways
        self.stats = CacheStats()
        self._policy = LRUPolicy()
        self._block_bits = geometry.block_size.bit_length() - 1
        self._num_sets = geometry.num_sets
        self._set_mask = self._num_sets - 1
        self._set_bits = self._num_sets.bit_length() - 1
        ways = geometry.associativity
        self._frames: list[list[Entry | None]] = [[None] * ways for _ in range(self._num_sets)]
        # one LRU state per set, shared; victim selection is restricted
        # to the accessing privilege's way range
        self._pstates = [self._policy.init_set(ways) for _ in range(self._num_sets)]

    def _index(self, addr: int) -> tuple[int, int]:
        blk = addr >> self._block_bits
        return blk & self._set_mask, blk >> self._set_bits

    def _way_range(self, priv: int) -> range:
        if priv == int(Privilege.USER):
            return range(0, self.user_ways)
        return range(self.user_ways, self.geometry.associativity)

    def access(self, addr: int, is_write: bool, priv: int, tick: int,
               demand: bool = True) -> bool:
        """Look up ``addr`` within the privilege's way mask; fill on miss.

        Returns True on hit.  Statistics mirror
        :class:`~repro.cache.set_assoc.SetAssociativeCache`'s counters.
        """
        st = self.stats
        st.accesses += 1
        st.accesses_by_priv[priv] += 1
        if demand:
            st.demand_accesses += 1
        if is_write:
            st.write_accesses += 1

        set_i, tag = self._index(addr)
        frames = self._frames[set_i]
        pstate = self._pstates[set_i]
        mask = self._way_range(priv)

        for way in mask:
            entry = frames[way]
            if entry is not None and entry.tag == tag:
                st.hits += 1
                entry.dirty = entry.dirty or is_write
                self._policy.on_hit(pstate, way)
                return True

        st.misses += 1
        st.misses_by_priv[priv] += 1
        if demand:
            st.demand_misses += 1

        victim_way = None
        for way in mask:
            if frames[way] is None:
                victim_way = way
                break
        if victim_way is None:
            # LRU within the mask: oldest sequence number wins
            victim_way = min(mask, key=lambda w: pstate[w])
            victim = frames[victim_way]
            st.evictions += 1
            st.evictions_cross[victim.priv][priv] += 1
            if victim.dirty:
                st.writebacks += 1
        frames[victim_way] = Entry(tag, priv, is_write, tick)
        st.fills += 1
        self._policy.on_fill(pstate, victim_way)
        return False

    @property
    def size_bytes(self) -> int:
        """Capacity of the whole array."""
        return self.geometry.size_bytes

    def occupancy(self) -> float:
        """Fraction of frames holding a block."""
        filled = sum(
            sum(e is not None for e in frames) for frames in self._frames
        )
        return filled / (self._num_sets * self.geometry.associativity)


def per_access_epoch_replay(design, stream, platform):
    """Replay ``stream`` through a dynamic design's reference segments
    one access at a time.

    Boundaries fire while an access's tick is at or past the next one,
    and each access first wakes its segment.  Returns the finalized
    ``(user, kernel)`` segments and the timeline as
    ``(tick, user ways, kernel ways)`` triples.
    """
    cfg = design.config
    user = design._make_segment(platform, "user", cfg.start_user_ways, cfg.max_user_ways,
                                design.user_tech, False)
    kernel = design._make_segment(platform, "kernel", cfg.start_kernel_ways,
                                  cfg.max_kernel_ways, design.kernel_tech, False)
    timeline = [(0, user.cache.powered_ways, kernel.cache.powered_ways)]
    next_epoch = cfg.epoch_ticks
    columns = (stream.ticks, stream.addrs, stream.privs, stream.writes, stream.demand)
    for tick, addr, priv, is_write, demand in zip(*(col.tolist() for col in columns)):
        while tick >= next_epoch:
            for seg in (user, kernel):
                design._controller_step(seg, next_epoch)
            timeline.append((next_epoch, user.cache.powered_ways, kernel.cache.powered_ways))
            next_epoch += cfg.epoch_ticks
        seg = kernel if priv == Privilege.KERNEL else user
        seg.wake(tick)
        seg.cache.access(addr, is_write, priv, tick, demand)
    for seg in (user, kernel):
        seg.integrate_to(stream.duration_ticks)
        seg.cache.finalize(stream.duration_ticks)
    return user, kernel, timeline


def per_access_awake(geometry, ticks, addrs, privs, writes, demand, finalize_tick, window):
    """The drowsy design's awake accounting, one access at a time.

    Replays the rows through an LRU reference cache and keeps each
    resident line's last touch.  A hit, the line's eviction and the
    finalize settlement each close the gap since that touch: awake for
    ``min(gap, window)`` ticks, plus one wake-up when the gap outlasts
    ``window``.  Returns ``(awake block-ticks, wake-ups)``.
    """
    cache = SetAssociativeCache(geometry, "lru")
    bits = geometry.block_size.bit_length() - 1
    last_touch: dict[int, int] = {}
    awake = wakeups = 0

    def settle(block, tick):
        nonlocal awake, wakeups
        elapsed = tick - last_touch.pop(block)
        awake += elapsed if elapsed < window else window
        wakeups += elapsed > window

    columns = (ticks, addrs, privs, writes, demand)
    for tick, addr, priv, is_write, dm in zip(*(list(col) for col in columns)):
        tick, addr = int(tick), int(addr)
        result = cache.access(addr, bool(is_write), int(priv), tick, bool(dm))
        if result.hit:
            settle(addr >> bits, tick)
        elif result.victim_addr is not None:
            settle(result.victim_addr >> bits, tick)
        last_touch[addr >> bits] = tick
    for block in list(last_touch):
        settle(block, finalize_tick)
    return awake, wakeups


def interleaved_dram(stream, router, dram_model, prefetcher=None):
    """The banked DRAM model driven from inside a per-access replay.

    Replays ``stream`` through the fresh caches ``router(priv)`` returns.
    Each miss sends ``dram_model`` its demand read (demand rows only),
    then its dirty victim's write-back; a demand miss then trains
    ``prefetcher``, and each prefetch fill that misses sends its read
    and its dirty victim's write-back.  Returns the demand reads' summed
    latency.
    """
    stall = 0
    columns = (stream.ticks, stream.addrs, stream.privs, stream.writes, stream.demand)
    for tick, addr, priv, is_write, demand in zip(*(col.tolist() for col in columns)):
        cache = router(priv)
        result = cache.access(addr, is_write, priv, tick, demand)
        if result.hit:
            continue
        if demand:
            stall += dram_model.access(addr, tick)
        if result.writeback:
            dram_model.access(result.victim_addr, tick, is_write=True)
        if demand and prefetcher is not None:
            for target in prefetcher.on_miss(addr):
                fill = cache.access(target, False, priv, tick, demand=False)
                if not fill.hit:
                    dram_model.access(target, tick)
                    if fill.writeback:
                        dram_model.access(fill.victim_addr, tick, is_write=True)
    return stall
