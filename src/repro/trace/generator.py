"""Synthetic trace generation from an :class:`~repro.trace.phases.AppProfile`.

The generator replaces the Android/gem5 full-system traces of the paper
(see the substitution table in ``DESIGN.md``).  It is deterministic for a
given ``(profile, length, seed)`` triple.  A per-dwell loop makes only the
random-number calls, in the order that defines the trace; one batched pass
per trace then turns the stored draws into the trace's contiguous tick,
address, kind and privilege columns (``docs/performance.md``, "Trace
generation: draws per dwell, the rest once per trace" and "Columnar
traces").
"""

from __future__ import annotations

import bisect
import zlib
from functools import lru_cache

import numpy as np

from repro import obs
from repro.trace.access import Trace
from repro.trace.phases import AppProfile, Region
from repro.types import CACHE_BLOCK_SIZE, KERNEL_SPACE_START, Privilege

__all__ = ["generate_trace"]


@lru_cache(maxsize=256)
def _cdf(weights: tuple[float, ...]) -> np.ndarray:
    """Cumulative distribution of ``weights``, computed exactly as
    ``Generator.choice`` computes it (``cumsum``, then divide by the last
    entry), once per weight tuple."""
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _choice(rng: np.random.Generator, weights: tuple[float, ...], size: int | None = None):
    """``rng.choice(len(weights), size, p=weights)`` from a cached CDF.

    Returns the same indices and consumes the same draws (one uniform
    double per sample) as numpy's weighted ``choice``, minus its
    per-call weight validation and CDF construction — the profile
    dataclasses validate weights once when they are built.
    ``_generate`` inlines both forms with each phase's CDFs looked up
    once per trace, the scalar one as ``bisect.bisect_right`` on the CDF
    as a list.
    """
    cdf = _cdf(tuple(weights))
    if size is None:
        return int(cdf.searchsorted(rng.random(), side="right"))
    return cdf.searchsorted(rng.random(size), side="right")


def _region_blocks(region: Region) -> int:
    """Number of cache blocks a region spans (at least 1)."""
    return max(1, region.size // CACHE_BLOCK_SIZE)


#: Hot ranks map to block positions with this stride, coprime with any
#: power-of-two block count, so hot blocks spread across cache sets
#: instead of clustering at the region base (a real hot working set is
#: scattered).
_HOT_STRIDE = 97


class _RegionDraws:
    """The random draws of one region over a whole trace, in draw order.

    :meth:`draw` makes one dwell's RNG calls on ``rng``; :meth:`addresses`
    and :meth:`kinds` transform all of them at once, with the scalar
    operands a per-dwell transform would use, so every value is identical.
    """

    def __init__(self, region: Region, rng: np.random.Generator) -> None:
        self.region = region
        self.nblocks = _region_blocks(region)
        self.sub = max(1, self.nblocks // region.subsets)  # rotating subset size
        self.dwells = 0
        # bound once: the RNG methods and the block-draw bound
        self._random, self._integers, self._geometric = rng.random, rng.integers, rng.geometric
        self._high = self.nblocks if region.pattern == "uniform" else self.sub
        # per block-draw call: the draws (hot uniforms or block integers),
        # their number, the dwells the region saw before, the run lengths
        # and the accesses those runs keep; per dwell: the kind uniforms
        self.blocks, self.calls, self.call_dwells, self.runs, self.keeps, self.kind_u = (
            [], [], [], [], [], [])

    def draw(self, n: int) -> None:
        """Draw one dwell's ``n`` accesses: blocks, expanded into geometric
        runs of same-block accesses (word-level spatial locality within a
        line) until the runs cover ``n``, then the kinds."""
        pattern, run_mean = self.region.pattern, self.region.run_mean
        random, blocks, calls = self._random, self.blocks, self.calls
        remaining = n
        while remaining > 0:
            draws = n if run_mean <= 1.0 else int(remaining / run_mean) + 1
            if pattern == "hot":
                blocks.append(random(draws))
            elif pattern != "stream":  # a stream walks on, drawing nothing
                blocks.append(self._integers(0, self._high, size=draws))
            calls.append(draws)
            self.call_dwells.append(self.dwells)
            if run_mean <= 1.0:
                break
            runs = self._geometric(1.0 / run_mean, size=draws)
            self.runs.append(runs)
            keep = min(remaining, sum(runs.tolist()))
            self.keeps.append(keep)
            remaining -= keep
        self.dwells += 1
        self.kind_u.append(random(n))

    def addresses(self) -> np.ndarray:
        """Address of every access drawn, in draw order."""
        region, nblocks = self.region, self.nblocks
        if region.pattern == "hot":
            u = np.concatenate(self.blocks)
            ranks = np.floor(nblocks * u**region.hotness).astype(np.int64)
            blocks = (ranks * _HOT_STRIDE) % nblocks
        elif region.pattern == "uniform":
            blocks = np.concatenate(self.blocks)
        elif region.pattern == "rotating":
            active = (np.asarray(self.call_dwells) // region.rotate_dwells) % region.subsets
            blocks = np.repeat(active * self.sub, self.calls) + np.concatenate(self.blocks)
        else:  # the stream walk wraps and continues across dwells
            blocks = np.arange(sum(self.calls), dtype=np.int64) % nblocks
        addrs = blocks.astype(np.uint64)
        addrs *= np.uint64(CACHE_BLOCK_SIZE)
        addrs += np.uint64(region.base)
        if region.run_mean <= 1.0:
            return addrs
        # expand the runs, each call's expansion cut to the accesses it keeps
        runs = np.concatenate(self.runs)
        calls = np.asarray(self.calls)
        starts = np.cumsum(runs) - runs
        limits = starts[np.cumsum(calls) - calls] + np.asarray(self.keeps)
        return np.repeat(addrs, np.clip(np.repeat(limits, calls) - starts, 0, runs))

    def kinds(self) -> np.ndarray:
        """Access kind of every access drawn, in draw order: the number of
        kind-CDF edges at or below each uniform, which is what
        ``searchsorted(side="right")`` returns."""
        u = np.concatenate(self.kind_u)
        kinds = np.zeros(len(u), dtype=np.uint8)
        for edge in _cdf(self.region.kind_weights):
            kinds += u >= edge
        return kinds


def _validate_profile(profile: AppProfile) -> None:
    """Check privilege/address-space consistency of every region, and that
    a region name denotes one region: the name keys its walk state (stream
    position, rotating subset) across phases."""
    by_name: dict[str, Region] = {}
    for phase in profile.phases:
        if len({region.name for region in phase.regions}) != len(phase.regions):
            raise ValueError(f"profile {profile.name!r}: phase {phase.name!r} "
                             f"lists a region name twice")
        for region in phase.regions:
            if by_name.setdefault(region.name, region) != region:
                raise ValueError(f"profile {profile.name!r}: two different regions "
                                 f"are named {region.name!r}")
            in_kernel = region.base >= KERNEL_SPACE_START
            if (phase.privilege is Privilege.KERNEL) != in_kernel:
                raise ValueError(
                    f"profile {profile.name!r}: phase {phase.name!r} at "
                    f"{phase.privilege.label} privilege uses region "
                    f"{region.name!r} at {region.base:#x} on the wrong side "
                    f"of the user/kernel split"
                )


def generate_trace(profile: AppProfile, length: int, seed: int = 0) -> Trace:
    """Generate a deterministic synthetic trace of ``length`` accesses.

    Args:
        profile: Application model to sample from.
        length: Number of memory accesses to produce (> 0).
        seed: RNG seed; the same triple always yields the same trace.

    Returns:
        A :class:`~repro.trace.access.Trace` named after the profile.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    _validate_profile(profile)
    with obs.span("trace.generate", app=profile.name, length=length, seed=seed) as sp:
        trace, dwells = _generate(profile, length, seed)
        sp.note(dwells=dwells)
        return trace


def _generate(profile: AppProfile, length: int, seed: int) -> tuple[Trace, int]:
    # zlib.crc32, not hash(): str hashing is salted per process
    # (PYTHONHASHSEED), which would make the same (profile, length, seed)
    # triple yield a different trace in every interpreter — breaking the
    # content-addressed result store and cross-process reproducibility.
    name_seed = zlib.crc32(profile.name.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([name_seed, length, seed]))

    # One draw store per region name: the name keys a region's walk state
    # (stream position, rotating subset), so phases share it.
    regions: dict[str, _RegionDraws] = {}
    phase_draws = [
        [regions.setdefault(r.name, _RegionDraws(r, rng)) for r in phase.regions]
        for phase in profile.phases
    ]
    ids = {name: i for i, name in enumerate(regions)}
    key_dtype = np.min_scalar_type(len(regions) - 1)
    phase_keys = [np.array([ids[r.name] for r in phase.regions], dtype=key_dtype)
                  for phase in profile.phases]

    # Per phase, once per trace: the region CDF, the region keys and draw
    # stores, the dwell draw's p, the mean gap and the transition CDF (a
    # list, for a scalar bisect); the RNG methods are bound once too.
    phases = [
        (_cdf(tuple(phase.weights)), keys, draws, len(draws), 1.0 / phase.mean_accesses,
         phase.mean_gap, _cdf(tuple(row)).tolist())
        for phase, keys, draws, row in zip(profile.phases, phase_keys, phase_draws,
                                           profile.transitions)
    ]
    geometric, random, poisson = rng.geometric, rng.random, rng.poisson
    bincount, bisect_right = np.bincount, bisect.bisect_right
    idle_mean, idle_prob, wake_phase = (profile.idle_mean_ticks, profile.idle_prob,
                                        profile.wake_phase)

    # The dwell loop makes every RNG call, in the order that defines the
    # trace; everything else happens once per trace below.
    key_parts: list[np.ndarray] = []
    gap_parts: list[np.ndarray] = []
    dwell_phases: list[int] = []
    dwells: list[int] = []
    idle_at: list[int] = []
    idle_ticks: list[int] = []
    produced = 0
    phase_i = profile.start_phase
    pending_idle = 0
    while produced < length:
        region_cdf, keys_of, draws_of, nregions, dwell_p, mean_gap, transition_cdf = phases[phase_i]
        dwell = min(max(int(geometric(dwell_p)), 1), length - produced)
        region_idx = region_cdf.searchsorted(random(dwell), side="right")
        key_parts.append(keys_of[region_idx])
        for draws, cnt in zip(draws_of, bincount(region_idx, minlength=nregions).tolist()):
            if cnt:
                draws.draw(cnt)
        gap_parts.append(poisson(mean_gap, size=dwell))
        if pending_idle:
            idle_at.append(produced)
            idle_ticks.append(pending_idle)
            pending_idle = 0
        dwell_phases.append(phase_i)
        dwells.append(dwell)
        produced += dwell
        phase_i = bisect_right(transition_cdf, random())
        # Interactive apps sleep between events; an idle period advances
        # the clock (leakage keeps burning, STT-RAM cells keep decaying)
        # without retiring instructions.
        if idle_mean and random() < idle_prob:
            pending_idle = int(rng.exponential(idle_mean))
            if wake_phase is not None:
                phase_i = wake_phase  # the wake interrupt handler
    del phase_draws, phases, draws_of  # so that popping a region below frees its draws

    phase_privs = np.array([int(phase.privilege) for phase in profile.phases], dtype=np.uint8)
    privs = np.repeat(phase_privs[dwell_phases], dwells)
    # the gaps, floored at 1 and lengthened by the idle periods, summed in
    # place into the tick column (every value is >= 0, so the int64 sums
    # are the uint64 ticks bit for bit)
    ticks = np.concatenate(gap_parts)
    del gap_parts
    np.maximum(ticks, 1, out=ticks)
    ticks[idle_at] += np.asarray(idle_ticks, dtype=np.int64)
    np.cumsum(ticks, out=ticks)
    ticks -= ticks[0]
    ticks = ticks.view(np.uint64)

    # Each region's accesses, generated region-major, land at the stream
    # positions its key marks, in order (a stable sort keeps dwell order),
    # in contiguous columns.
    keys = np.concatenate(key_parts)
    del key_parts
    order = np.argsort(keys, kind="stable")
    ends = np.cumsum(bincount(keys, minlength=len(regions))).tolist()
    del keys
    addrs = np.empty(produced, dtype=np.uint64)
    kinds = np.empty(produced, dtype=np.uint8)
    start = 0
    for name, end in zip(list(regions), ends):
        draws = regions.pop(name)  # drop each region's draws once placed
        if end > start:
            at = order[start:end]
            addrs[at] = draws.addresses()
            kinds[at] = draws.kinds()
        start = end
    instructions = int(ticks[-1]) + 1 - sum(idle_ticks)
    return (Trace(profile.name, ticks, addrs, kinds, privs, max(instructions, length)),
            len(dwells))
