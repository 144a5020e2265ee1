"""Dynamic user/kernel partitioning (the paper's third technique).

The static shrink fixes one size for the whole run, but demand on the
two segments varies: syscall storms need kernel capacity, rendering
bursts need user capacity, and during inter-event idle both needs drop
to nothing.  The dynamic design resizes each segment at epoch
granularity and power-gates the unused ways, paying leakage only for
capacity that is earning hits.

Controller per epoch and per segment (classic utility feedback):

* an idle segment (almost no accesses) donates ways — this is where the
  design beats the static one, because interactive workloads are idle
  most of the wall-clock time;
* a thrashing segment (high demand miss rate *and* hits spread into its
  last way) grows back one way at a time up to its cap;
* a segment whose last (LRU-most) way earns almost no hits shrinks — the
  way is dead weight.

Short-retention STT-RAM integrates naturally: blocks gated off are lost
anyway, and the short write pulse keeps the resize/refill traffic cheap.

Both replay engines share one driver.  The stream is cut into *chunks*,
the accesses between consecutive controller-epoch boundaries; between
chunks the controller steps and the way timeline is sampled, and before
a segment's chunk replays the segment wakes at its first access.  Only
the chunk replay itself differs: the vectorized kernel's
:class:`~repro.cache.fastsim.EpochReplaySegment` replays the chunk at
once, the reference :class:`SetAssociativeCache` one access at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.config import PlatformConfig
from repro.core.pipeline import ReplaySession, ResultAssembler, SegmentOutcome
from repro.core.result import DesignResult
from repro.energy.technology import MemoryTechnology, stt_ram

__all__ = ["DynamicControllerConfig", "DynamicPartitionDesign"]


@dataclass(frozen=True)
class DynamicControllerConfig:
    """Tuning of the epoch-based resize controller."""

    epoch_ticks: int = 25_000
    min_ways: int = 1
    max_user_ways: int = 10
    max_kernel_ways: int = 6
    start_user_ways: int = 8
    start_kernel_ways: int = 4
    idle_accesses: int = 24
    decision_accesses: int = 300
    grow_miss_rate: float = 0.22
    grow_step: int = 3
    grow_deep_util: float = 0.004
    shrink_miss_rate: float = 0.12
    shrink_last_way_util: float = 0.002

    def __post_init__(self) -> None:
        if self.epoch_ticks <= 0:
            raise ValueError("epoch_ticks must be positive")
        if not (1 <= self.min_ways <= self.start_user_ways <= self.max_user_ways):
            raise ValueError("need min_ways <= start_user_ways <= max_user_ways")
        if not (1 <= self.min_ways <= self.start_kernel_ways <= self.max_kernel_ways):
            raise ValueError("need min_ways <= start_kernel_ways <= max_kernel_ways")
        if not 0.0 <= self.shrink_miss_rate <= self.grow_miss_rate <= 1.0:
            raise ValueError(
                "need 0 <= shrink_miss_rate <= grow_miss_rate <= 1 "
                "(the gap is the controller's hysteresis band)"
            )
        if self.grow_step < 1:
            raise ValueError("grow_step must be >= 1")
        if self.idle_accesses < 0:
            raise ValueError("idle_accesses must be >= 0")
        if self.decision_accesses < 1:
            # the miss rate divides by the epoch's accesses
            raise ValueError("decision_accesses must be >= 1")


class _Segment:
    """Run-time state of one dynamically sized segment.

    ``cache`` is a :class:`SetAssociativeCache` on the reference engine
    or a :class:`~repro.cache.fastsim.EpochReplaySegment` on the fast
    one; both expose the powered-way and epoch-counter protocol the
    controller drives.
    """

    def __init__(
        self,
        name: str,
        cache,
        tech: MemoryTechnology,
        max_ways: int,
        block_bytes_per_way: int,
    ) -> None:
        self.name = name
        self.cache = cache
        self.tech = tech
        self.max_ways = max_ways
        self.bytes_per_way = block_bytes_per_way
        self.byte_ticks = 0
        self.last_integral_tick = 0
        self.resizes = 0
        self.busy_ways = cache.powered_ways
        self._rows: tuple | None = None

    def load(self, ticks, addrs, privs, writes, demand, chunk_ids, n_chunks: int,
             horizon: int) -> None:
        """Take this segment's rows; ``chunk_ids`` (non-decreasing) is
        each row's chunk, so chunk ``k`` is rows
        ``_starts[k]:_starts[k + 1]``, and ``horizon`` the finalize tick."""
        self._ticks = ticks
        if isinstance(self.cache, SetAssociativeCache):
            self._starts = np.searchsorted(chunk_ids, np.arange(n_chunks + 1)).tolist()
            self._rows = tuple(col.tolist() for col in (ticks, addrs, privs, writes, demand))
        else:
            self.cache.load(ticks, addrs, privs, writes, demand, chunk_ids, n_chunks, horizon)
            self._starts = self.cache._chunk_starts

    def replay_chunk(self, chunk: int) -> None:
        """Wake at the chunk's first access, then replay its accesses."""
        lo, hi = self._starts[chunk], self._starts[chunk + 1]
        if lo == hi:
            return
        self.wake(int(self._ticks[lo]))
        if self._rows is None:
            self.cache.replay_chunk(chunk)
            return
        access = self.cache.access
        for tick, addr, priv, is_write, is_demand in zip(*(col[lo:hi] for col in self._rows)):
            access(addr, is_write, priv, tick, is_demand)

    def wake(self, tick: int) -> None:
        """Restore the pre-idle way count on the first access after a
        gated period (wake-on-demand; power-up latency is negligible
        against the idle spans being bridged).  The controller only
        changes the way count between chunks, so waking at a chunk's
        first access covers every access of the chunk."""
        if self.cache.powered_ways < self.busy_ways:
            self.integrate_to(tick)
            self.cache.set_powered_ways(self.busy_ways, tick)
            self.resizes += 1

    def integrate_to(self, tick: int) -> None:
        """Accumulate powered-capacity x time up to ``tick``."""
        if tick > self.last_integral_tick:
            self.byte_ticks += (tick - self.last_integral_tick) * self.cache.powered_bytes
            self.last_integral_tick = tick


@dataclass(frozen=True)
class DynamicPartitionDesign:
    """Dynamically partitioned L2 with power-gated ways.

    Both segments replace LRU: the controller reads LRU-rank utilities.

    Args:
        config: Controller tuning.
        user_tech/kernel_tech: Array technologies (default: both
            short-retention STT-RAM, the paper's maximal-savings point).
        refresh_mode: Decay handling for finite-retention technologies.
    """

    config: DynamicControllerConfig = field(default_factory=lambda: DynamicControllerConfig())
    user_tech: MemoryTechnology = field(default_factory=lambda: stt_ram("short"))
    kernel_tech: MemoryTechnology = field(default_factory=lambda: stt_ram("short"))
    refresh_mode: str = "invalidate"
    name: str = "dynamic-stt"

    def _make_segment(
        self, platform: PlatformConfig, label: str, start_ways: int, max_ways: int,
        tech: MemoryTechnology, fast: bool,
    ) -> _Segment:
        geometry = platform.l2.with_ways(max_ways)
        retention = tech.retention_ticks(platform.clock_hz)
        common = dict(
            retention_ticks=retention,
            refresh_mode="none" if retention is None else self.refresh_mode,
            retains_when_gated=tech.non_volatile,
            name=f"l2-{label}",
        )
        if fast:
            from repro.cache.fastsim import EpochReplaySegment

            cache = EpochReplaySegment(
                geometry, min_rank_accesses=self.config.decision_accesses, **common
            )
        else:
            cache = SetAssociativeCache(geometry, "lru", **common)
        cache.set_powered_ways(start_ways, 0)
        bytes_per_way = geometry.num_sets * geometry.block_size
        return _Segment(label, cache, tech, max_ways, bytes_per_way)

    def _controller_step(self, seg: _Segment, tick: int) -> None:
        """Apply one epoch decision to ``seg`` at ``tick``."""
        cfg = self.config
        cache = seg.cache
        accesses = cache.epoch_accesses
        ways = cache.powered_ways
        target = ways
        if accesses < cfg.idle_accesses:
            # The segment is idle (the app sleeps between interactions):
            # gate everything except the minimum.  The non-volatile array
            # retains contents, and the first access after the idle wakes
            # the segment back to ``busy_ways`` (see ``_Segment.wake``).
            target = cfg.min_ways
        elif accesses < cfg.decision_accesses:
            # Too few samples for a trustworthy miss-rate estimate: hold
            # (deciding on noise walks busy_ways away from the demand).
            target = seg.busy_ways
        else:
            mr = cache.epoch_misses / accesses
            last_util = (
                cache.epoch_rank_hits[ways - 1] / accesses if ways >= 1 else 0.0
            )
            # deep utility: hits in the LRU-most half of the ways.  High
            # miss rate alone is not a reason to grow — pure streaming
            # misses at any size; growth needs evidence that deeper ways
            # would catch reuse.
            deep_util = sum(cache.epoch_rank_hits[ways // 2:ways]) / accesses
            if mr > cfg.grow_miss_rate and deep_util > cfg.grow_deep_util:
                target = min(seg.max_ways, ways + cfg.grow_step)
            elif mr < cfg.shrink_miss_rate and last_util < cfg.shrink_last_way_util:
                target = max(cfg.min_ways, ways - 1)
            seg.busy_ways = target
        if target != ways:
            seg.integrate_to(tick)
            cache.set_powered_ways(target, tick)
            seg.resizes += 1
        cache.begin_epoch()

    def run(
        self, stream: L2Stream, platform: PlatformConfig, engine: str = "auto"
    ) -> DesignResult:
        """Replay ``stream`` with epoch-based repartitioning.

        ``engine`` picks the replay path under the shared contract
        (``"auto"``/``"fast"``/``"reference"``, see
        :func:`~repro.core.pipeline.run_fixed_design`): the design
        qualifies for the vectorized epoch-chunked kernel when every
        segment technology is retention-free or handled with
        fixed-window ``invalidate``.
        """
        cfg = self.config
        session = ReplaySession(self.name, stream, engine)
        fast = session.dispatch_fast(
            all(tech.retention is None or self.refresh_mode == "invalidate"
                for tech in (self.user_tech, self.kernel_tech)),
            "needs retention 'none'/'invalidate' with the fixed-window model",
        )
        user = self._make_segment(
            platform, "user", cfg.start_user_ways, cfg.max_user_ways, self.user_tech, fast
        )
        kernel = self._make_segment(
            platform, "kernel", cfg.start_kernel_ways, cfg.max_kernel_ways, self.kernel_tech,
            fast,
        )
        segments = [user, kernel]
        timeline_ticks = [0]
        timeline_user = [user.cache.powered_ways]
        timeline_kernel = [kernel.cache.powered_ways]
        with session.replay_span():
            # The running tick maximum decides the boundary crossings, so
            # a non-monotonic trace crosses one at its first access at or
            # past it.  The segments' caches are independent: replaying
            # one segment's rows of a chunk after the other's equals
            # stream order.
            #
            # Once both segments sit at ``min_ways``, where the idle rule
            # gates them, the steps after a chunk without rows are no-ops:
            # the idle rule targets ``min_ways`` again and the epoch
            # counters stay zero.  The chunk loop records those boundaries
            # directly and goes on at the next chunk with rows.
            if len(stream.ticks):
                ticks = stream.ticks
                if not (ticks[1:] >= ticks[:-1]).all():  # else ticks are their own maximum
                    ticks = np.maximum.accumulate(ticks)
                epoch_idx = ticks // cfg.epoch_ticks
                n_chunks = int(epoch_idx[-1]) + 1
                for seg, rows in zip(segments, stream.privilege_rows()):
                    seg.load(
                        stream.ticks[rows], stream.addrs[rows], stream.privs[rows],
                        stream.writes[rows], stream.demand[rows], epoch_idx[rows], n_chunks,
                        stream.duration_ticks,
                    )
                # the first chunk at or after each chunk that holds a row
                occupied = np.zeros(n_chunks, dtype=bool)
                occupied[epoch_idx] = True
                occupied = np.flatnonzero(occupied)
                next_rows = occupied[np.searchsorted(occupied, np.arange(n_chunks))].tolist()
                k = 0
                while True:
                    for seg in segments:
                        seg.replay_chunk(k)
                    k += 1
                    if k == n_chunks:
                        break
                    boundary = k * cfg.epoch_ticks
                    for seg in segments:
                        self._controller_step(seg, boundary)
                    timeline_ticks.append(boundary)
                    timeline_user.append(user.cache.powered_ways)
                    timeline_kernel.append(kernel.cache.powered_ways)
                    skip = next_rows[k] - k
                    if skip and cfg.idle_accesses > 0 and (
                            user.cache.powered_ways == kernel.cache.powered_ways == cfg.min_ways):
                        timeline_ticks.extend(range(boundary + cfg.epoch_ticks,
                                                    next_rows[k] * cfg.epoch_ticks + 1,
                                                    cfg.epoch_ticks))
                        timeline_user.extend((cfg.min_ways,) * skip)
                        timeline_kernel.extend((cfg.min_ways,) * skip)
                        k += skip

        final_tick = stream.duration_ticks
        for seg in segments:
            seg.integrate_to(final_tick)
            seg.cache.finalize(final_tick)

        assembler = ResultAssembler(session, platform)
        assembler.weigh_timing([(seg.cache.stats, seg.tech) for seg in segments])
        # Leakage integrates over wall-clock time; the byte-tick integral
        # covers trace ticks, so it is scaled by the stall/CPI dilation.
        # Per-access energy scales with the powered array a lookup
        # actually touches: the time-weighted mean powered size (never
        # below one way), not the provisioned maximum.
        outcomes = [
            SegmentOutcome(
                name=seg.name,
                tech=seg.tech,
                stats=seg.cache.stats,
                size_bytes=seg.max_ways * seg.bytes_per_way,
                byte_seconds=seg.byte_ticks * assembler.dilation / platform.clock_hz,
                energy_size_bytes=max(
                    seg.bytes_per_way, seg.byte_ticks // max(1, stream.duration_ticks)
                ),
            )
            for seg in segments
        ]
        return assembler.finish(
            outcomes,
            extras={
                "timeline_ticks": timeline_ticks,
                "timeline_user_ways": timeline_user,
                "timeline_kernel_ways": timeline_kernel,
                "user_resizes": user.resizes,
                "kernel_resizes": kernel.resizes,
                "user_byte_ticks": user.byte_ticks,
                "kernel_byte_ticks": kernel.byte_ticks,
            },
        )
