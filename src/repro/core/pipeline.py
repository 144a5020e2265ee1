"""The shared design-execution pipeline.

Every L2 design in :mod:`repro.core` — the fixed-topology family
(baseline, static partition, multi-retention) as well as the dynamic,
drowsy and hybrid designs — executes through this module:

* :class:`ReplaySession` owns the decoded access stream, the
  ``engine="auto"|"fast"|"reference"`` dispatch contract (including the
  ``REPRO_FASTSIM`` kill switch and the recorded ``sim_engine``), the
  ``replay`` span, and the one per-access reference loop
  (:meth:`ReplaySession.replay_fixed`).  The engine is decided before
  replay: a design states whether it qualifies for the vectorized
  kernel, and then replays on the engine the session picked.
* :class:`ResultAssembler` owns everything downstream of replay: the
  demand/write-weighted technology timing penalties, the
  :class:`~repro.core.result.SegmentReport` assembly, the DRAM energy
  charge and the ``extras`` conventions.
* :func:`dram_pass` is the one place a banked DRAM model runs: a pass
  over either engine's replay events, after replay.
* :func:`memory_models` builds the run-time DRAM model and prefetcher a
  fixed design's ``dram`` and ``prefetch`` fields describe, fresh for
  each run.

``compute_timing`` / ``segment_energy`` / ``dram_energy_j`` are invoked
from exactly this module under ``repro.core`` — adding a design means
writing its replay logic, not re-deriving its accounting.  Designs with
non-default accounting feed overrides through :class:`SegmentOutcome`
(the dynamic design's powered-capacity integral, the drowsy design's
awake/drowsy leakage split) instead of assembling results by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.cache import fastsim
from repro.cache.hierarchy import L2Stream
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.config import PlatformConfig
from repro.core.result import DesignResult, SegmentReport
from repro.energy.model import EnergyBreakdown, dram_energy_j, segment_energy
from repro.energy.technology import MemoryTechnology
from repro.timing.cpu import TimingResult, compute_timing
from repro.types import to_data

if TYPE_CHECKING:
    from repro.cache.prefetch import Prefetcher
    from repro.dram.model import DRAMConfig, DRAMModel

__all__ = [
    "ENGINES",
    "PREFETCHERS",
    "FixedSegment",
    "ReplaySession",
    "ResultAssembler",
    "SegmentOutcome",
    "check_prefetch",
    "dram_pass",
    "memory_models",
    "run_fixed_design",
]

#: Names a fixed design's ``prefetch`` field takes (each one a
#: :func:`repro.cache.prefetch.make_prefetcher` name).
PREFETCHERS = ("nextline", "stride")

#: The replay-engine contract every design's ``run`` accepts.
ENGINES = ("auto", "fast", "reference")


class FixedSegment:
    """Pairing of a segment cache with its array technology."""

    def __init__(self, name: str, cache: SetAssociativeCache, tech: MemoryTechnology) -> None:
        self.name = name
        self.cache = cache
        self.tech = tech


class ReplaySession:
    """One design execution over one stream: decode + engine dispatch.

    A session is created with the caller's ``engine`` choice, validated
    once.  The design then asks :meth:`dispatch_fast` which engine to
    replay on (recording ``sim_engine`` and enforcing the ``"fast"``
    contract), and replays inside one :meth:`replay_span` — through the
    vectorized kernel, or through the per-access reference loop
    :meth:`replay_fixed`.
    """

    def __init__(self, design_name: str, stream: L2Stream, engine: str = "auto") -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be 'auto', 'fast' or 'reference', got {engine!r}")
        self.design_name = design_name
        self.stream = stream
        self.engine = engine
        self.sim_engine = "reference"

    # ------------------------------------------------------------------
    # engine dispatch

    def dispatch_fast(self, qualifies: bool | None, requirement: str) -> bool:
        """Decide, before replay, whether the fast kernel replays.

        Args:
            qualifies: Whether the design, as configured, lies inside
                the vectorized kernel's exact-equivalence envelope;
                ``None`` means the design has no fast path at all.
            requirement: Human-readable qualification summary used in
                the ``engine="fast"`` error message.

        Returns:
            True when the caller must replay through the fast kernel
            (``sim_engine`` becomes ``"fastsim"``); False when it must
            replay on the reference engine.  Raises ``ValueError`` when
            ``engine="fast"`` was requested but the design disqualifies.

        Every call books one ``pipeline.dispatch.<engine>`` counter, and
        every fallback books ``pipeline.fallback.<reason>`` — under
        ``engine="auto"`` the fallbacks of a design that has a fast path
        (``disqualified``, ``kill-switch``) additionally emit a
        ``pipeline.fallback`` trace event, so an unexpectedly slow run is
        diagnosable from its run log alone.
        """
        reason = None
        if self.engine == "reference":
            reason = "engine=reference"
        elif qualifies is None:
            reason = "no-fast-path"
        elif not qualifies:
            reason = "disqualified"
        elif self.engine == "auto" and not fastsim.enabled():
            reason = "kill-switch"
        else:
            self.sim_engine = "fastsim"
        if self.engine == "fast" and reason is not None:
            obs.inc("pipeline.dispatch.error")
            raise ValueError(
                f"design {self.design_name!r} does not qualify for the fast kernel "
                f"({requirement})"
            )
        obs.inc(f"pipeline.dispatch.{self.sim_engine}")
        if reason is not None:
            obs.inc(f"pipeline.fallback.{reason}")
            if self.engine == "auto" and reason in ("disqualified", "kill-switch"):
                obs.event("pipeline.fallback", design=self.design_name, reason=reason)
        return reason is None

    def replay_span(self):
        """The ``replay`` span of this session, tagged with the engine
        :meth:`dispatch_fast` picked and the stream's row count."""
        return obs.span(
            "replay", design=self.design_name, engine=self.sim_engine, rows=len(self.stream)
        )

    # ------------------------------------------------------------------
    # the reference loop

    def replay_fixed(
        self,
        segments: list[FixedSegment],
        router: Callable[[int], object],
        prefetcher: Prefetcher | None = None,
    ) -> tuple[int, int, fastsim.MissEvents]:
        """The per-access reference loop.

        ``router(priv)`` returns the object serving an access — anything
        with the ``access(addr, is_write, priv, tick, demand)`` protocol
        (a :class:`SetAssociativeCache`, or a composite like the hybrid
        design's segment).  Interleaves the optional L2 prefetcher with
        the accesses, finalizes every segment, and returns
        ``(prefetch_issued, prefetch_useful, events)``: ``events`` are
        the stream rows' misses and evictions, as the fast kernel records
        them, plus the prefetch fills' memory traffic.

        A prefetched block only counts as useful while it is still
        resident: ``pending_prefetches`` entries are pruned whenever the
        block is evicted (the fill's victim) or re-misses (proof the
        prefetched copy is gone), so the set stays bounded by the cache
        capacity on arbitrarily long traces and a block re-fetched on
        demand can never credit the stale prefetch that once covered it.
        """
        block_size = segments[0].cache.geometry.block_size
        block_mask = ~(block_size - 1)
        pending_prefetches: set[int] = set()
        prefetch_issued = prefetch_useful = 0
        # flat int lists (no per-event container objects to keep alive):
        # each evicting miss adds (row, victim address, owner, dirty),
        # each prefetch transfer (row, address, is write-back)
        misses: list[int] = []
        evictions: list[int] = []
        prefetched: list[int] = []
        s = self.stream
        rows = zip(
            range(len(s)), s.ticks.tolist(), s.addrs.tolist(), s.privs.tolist(),
            s.writes.tolist(), s.demand.tolist(),
        )
        with self.replay_span():
            for i, tick, addr, priv, is_write, is_demand in rows:
                cache = router(priv)
                result = cache.access(addr, is_write, priv, tick, is_demand)
                if result.hit:
                    if pending_prefetches and is_demand:
                        block = addr & block_mask
                        if block in pending_prefetches:
                            prefetch_useful += 1
                            pending_prefetches.discard(block)
                    continue
                misses.append(i)
                if result.victim_addr is not None:
                    evictions += (i, result.victim_addr, result.victim_priv, result.writeback)
                if pending_prefetches:
                    pending_prefetches.discard(addr & block_mask)
                    if result.victim_addr is not None:
                        pending_prefetches.discard(result.victim_addr)
                if is_demand and prefetcher is not None:
                    for target in prefetcher.on_miss(addr):
                        pf = cache.access(target, False, priv, tick, demand=False)
                        prefetch_issued += 1
                        if not pf.hit:
                            if pf.victim_addr is not None:
                                pending_prefetches.discard(pf.victim_addr)
                            pending_prefetches.add(target & block_mask)
                            prefetched += (i, target, False)
                            if pf.writeback:
                                prefetched += (i, pf.victim_addr, True)
            for seg in segments:
                seg.cache.finalize(self.stream.duration_ticks)
        evicted = np.array(evictions, dtype=np.uint64).reshape(-1, 4)
        events = fastsim.MissEvents(
            np.array(misses, dtype=np.int64), evicted[:, 0].astype(np.int64), evicted[:, 1],
            evicted[:, 2].astype(np.uint8), evicted[:, 3].astype(bool),
            np.array(prefetched, dtype=np.uint64).reshape(-1, 3),
        )
        return prefetch_issued, prefetch_useful, events


def dram_pass(dram_model: DRAMModel, stream: L2Stream, events: fastsim.MissEvents) -> int:
    """Drive ``dram_model`` with a replay's memory traffic, after replay.

    The model reads only the stream tick and feeds nothing back, so it
    is a function of the ordered transfers: each row's demand-miss read,
    then its dirty victim's write-back, then its prefetch traffic.
    Returns the demand reads' summed latency (the stall cycles).
    """
    reads = events.miss_idx[stream.demand[events.miss_idx]]
    dirty = events.evict_dirty
    prefetch = events.prefetch
    rows = np.concatenate([reads, events.evict_idx[dirty], prefetch[:, 0].astype(np.int64)])
    addrs = np.concatenate([stream.addrs[reads], events.evict_addr[dirty], prefetch[:, 1]])
    writes = np.concatenate([np.zeros(len(reads), bool), np.ones(int(dirty.sum()), bool),
                             prefetch[:, 2].astype(bool)])
    # a stable sort keeps each row's transfers in the order above
    order = np.argsort(rows, kind="stable")
    latency = np.fromiter(map(dram_model.access, addrs[order].tolist(),
                              stream.ticks[rows[order]].tolist(), writes[order].tolist()),
                          dtype=np.int64, count=len(order))
    return int(latency[order < len(reads)].sum())


@dataclass
class SegmentOutcome:
    """One segment's simulated outcome, ready for report assembly.

    Defaults model a fixed-size segment: leakage integrates the full
    ``size_bytes`` over the run and per-access energy scales with it.
    Designs with non-trivial accounting override the relevant fields:

    * ``byte_seconds`` — powered-capacity integral (dynamic design) or
      a drowsy-weighted equivalent;
    * ``energy_size_bytes`` — the array size per-access energy scales
      with, when it differs from the provisioned ``size_bytes``;
    * ``energy`` — a fully custom :class:`EnergyBreakdown` (drowsy);
    * ``tech_name`` — report label override.
    """

    name: str
    tech: MemoryTechnology
    stats: CacheStats
    size_bytes: int
    byte_seconds: float | None = None
    energy_size_bytes: int | None = None
    energy: EnergyBreakdown | None = None
    tech_name: str | None = None


class ResultAssembler:
    """Turns replayed segments into a :class:`DesignResult`.

    Two phases, because energy-time integrals need the timing first:
    :meth:`weigh_timing` folds the per-segment technology penalties into
    one :class:`TimingResult`, then :meth:`finish` builds the segment
    reports, charges DRAM energy and stamps the uniform extras
    (``sim_engine`` in every design's result).
    """

    def __init__(self, session: ReplaySession, platform: PlatformConfig) -> None:
        self.session = session
        self.stream = session.stream
        self.platform = platform
        self.timing: TimingResult | None = None
        self._demand_misses = 0

    def weigh_timing(
        self,
        parts: list[tuple[CacheStats, MemoryTechnology]],
        *,
        extra_read: float | None = None,
        extra_write: float | None = None,
        dram_stall_override: float | None = None,
    ) -> TimingResult:
        """Compute the design's timing from its (stats, tech) parts.

        The default technology penalties are the demand-access-weighted
        ``extra_read_cycles`` and the array-write-weighted
        ``extra_write_cycles`` across the parts; designs with bespoke
        read penalties (drowsy wake-ups) pass ``extra_read`` directly.
        """
        stream = self.stream
        total_demand = sum(st.demand_accesses for st, _ in parts)
        if extra_read is None:
            extra_read = (
                sum(st.demand_accesses * t.extra_read_cycles for st, t in parts) / total_demand
                if total_demand
                else 0.0
            )
        l2_writes = sum(st.total_writes for st, _ in parts)
        if extra_write is None:
            extra_write = (
                sum(st.total_writes * t.extra_write_cycles for st, t in parts) / l2_writes
                if l2_writes
                else 0.0
            )
        self._demand_misses = sum(st.demand_misses for st, _ in parts)
        self.timing = compute_timing(
            self.platform,
            instructions=stream.instructions,
            duration_ticks=stream.duration_ticks,
            l1_demand_misses=stream.l1_demand_misses,
            l2_demand_misses=self._demand_misses,
            l2_extra_read_cycles=extra_read,
            l2_extra_write_cycles=extra_write,
            l2_writes=l2_writes,
            dram_stall_override=dram_stall_override,
        )
        return self.timing

    @property
    def seconds(self) -> float:
        """Wall-clock duration of the run (after :meth:`weigh_timing`)."""
        return self.timing.seconds(self.platform)

    @property
    def dilation(self) -> float:
        """Stall/CPI dilation of wall-clock cycles beyond trace ticks.

        Leakage integrates over wall-clock time while replay integrals
        are in ticks; multiplying a tick integral by this factor (then
        dividing by the clock) converts it to seconds.
        """
        return self.timing.total_cycles / max(1, self.stream.duration_ticks)

    def finish(
        self,
        outcomes: list[SegmentOutcome],
        *,
        dram_model: DRAMModel | None = None,
        extras: dict | None = None,
    ) -> DesignResult:
        """Assemble the final :class:`DesignResult` from the outcomes."""
        if self.timing is None:
            raise RuntimeError("weigh_timing must run before finish")
        with obs.span("assemble", design=self.session.design_name, app=self.stream.name):
            return self._finish(outcomes, dram_model, extras)

    def _finish(self, outcomes, dram_model, extras) -> DesignResult:
        seconds = self.seconds
        reports = []
        for oc in outcomes:
            byte_seconds = (
                oc.byte_seconds if oc.byte_seconds is not None else oc.size_bytes * seconds
            )
            if oc.energy is not None:
                energy = oc.energy
            else:
                energy_size = (
                    oc.energy_size_bytes if oc.energy_size_bytes is not None else oc.size_bytes
                )
                energy = segment_energy(oc.stats, oc.tech, energy_size, byte_seconds)
            reports.append(
                SegmentReport(
                    name=oc.name,
                    tech_name=oc.tech_name if oc.tech_name is not None else oc.tech.name,
                    size_bytes=oc.size_bytes,
                    byte_seconds=byte_seconds,
                    stats=oc.stats,
                    energy=energy,
                )
            )
        all_extras = dict(extras) if extras else {}
        if dram_model is not None:
            dram_j = dram_model.energy_j(self.platform.seconds(self.timing.busy_cycles))
            all_extras["dram_stats"] = to_data(dram_model.stats)
        else:
            dram_writes = sum(oc.stats.writebacks + oc.stats.expiry_writebacks for oc in outcomes)
            dram_j = dram_energy_j(self._demand_misses, dram_writes)
        all_extras["sim_engine"] = self.session.sim_engine
        return DesignResult(
            design=self.session.design_name,
            app=self.stream.name,
            segments=tuple(reports),
            timing=self.timing,
            dram_j=dram_j,
            extras=all_extras,
        )


def check_prefetch(prefetch: str | None) -> None:
    """Reject a ``prefetch`` field that names no prefetcher, so a bad
    name fails when the design is built, not when it runs."""
    if prefetch is not None and prefetch not in PREFETCHERS:
        raise ValueError(f"unknown prefetcher {prefetch!r}; choose from {PREFETCHERS}")


def memory_models(
    dram: DRAMConfig | None, prefetch: str | None
) -> tuple[DRAMModel | None, Prefetcher | None]:
    """Fresh run-time models for a fixed design's ``dram`` and
    ``prefetch`` fields, as :func:`run_fixed_design` takes them.

    Their modules load here, on first use, so a run that sets neither
    field never imports them.
    """
    dram_model = prefetcher = None
    if dram is not None:
        from repro.dram.model import DRAMModel

        dram_model = DRAMModel(dram)
    if prefetch is not None:
        from repro.cache.prefetch import make_prefetcher

        prefetcher = make_prefetcher(prefetch)
    return dram_model, prefetcher


def run_fixed_design(
    design_name: str,
    stream: L2Stream,
    platform: PlatformConfig,
    segments: list[FixedSegment],
    router: Callable[[int], SetAssociativeCache],
    dram_model: DRAMModel | None = None,
    prefetcher: Prefetcher | None = None,
    engine: str = "auto",
) -> DesignResult:
    """Replay ``stream`` through fixed segments and assemble the result.

    Args:
        design_name: Label recorded in the result.
        stream: L1-filtered L2 access stream.
        platform: Platform latencies/clock for timing and energy time.
        segments: All segments with their technologies.
        router: Maps an access privilege to the segment cache serving it.
        dram_model: Optional bank-level DRAM model.  When given, every
            L2 demand miss and every write-back to memory goes through
            it (:func:`dram_pass`, after replay, on either engine);
            measured latencies replace the platform's flat DRAM latency
            and its energy model replaces the flat per-transfer charge.
        prefetcher: Optional L2 prefetcher.  Demand misses train it;
            its proposals are installed as non-demand fills into the
            missing access's segment (so in a partitioned design a
            kernel miss can only pollute the kernel segment).
        engine: ``"auto"`` replays through the vectorized fast kernel
            (:mod:`repro.cache.fastsim`) when the whole design qualifies
            — LRU segments, no gating, retention ``none`` or
            ``invalidate``, and no prefetcher (its fills interleave with
            the accesses) — falling back to the reference engine
            otherwise.  ``"fast"`` requires the kernel
            and raises when the design disqualifies; ``"reference"``
            forces the per-access engine.  The chosen path is recorded
            in ``DesignResult.extras["sim_engine"]``.
    """
    session = ReplaySession(design_name, stream, engine)
    prefetch_issued = prefetch_useful = 0
    if session.dispatch_fast(
        prefetcher is None and fastsim.fixed_envelope(segments, router),
        "needs LRU segments, retention 'none'/'invalidate', no prefetcher",
    ):
        with session.replay_span():
            events = fastsim.run_fixed(stream, segments, router,
                                       record_events=dram_model is not None)
    else:
        prefetch_issued, prefetch_useful, events = session.replay_fixed(segments, router,
                                                                        prefetcher)

    assembler = ResultAssembler(session, platform)
    assembler.weigh_timing(
        [(seg.cache.stats, seg.tech) for seg in segments],
        dram_stall_override=(
            None if dram_model is None else float(dram_pass(dram_model, stream, events))
        ),
    )
    extras: dict = {}
    if prefetcher is not None:
        extras["prefetch_issued"] = prefetch_issued
        extras["prefetch_useful"] = prefetch_useful
    return assembler.finish(
        [
            SegmentOutcome(seg.name, seg.tech, seg.cache.stats, seg.cache.size_bytes)
            for seg in segments
        ],
        dram_model=dram_model,
        extras=extras,
    )
