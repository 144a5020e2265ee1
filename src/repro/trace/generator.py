"""Synthetic trace generation from an :class:`~repro.trace.phases.AppProfile`.

The generator replaces the Android/gem5 full-system traces of the paper
(see the substitution table in ``DESIGN.md``).  It is deterministic for a
given ``(profile, length, seed)`` triple.  A per-dwell loop makes only the
random-number calls, in the order that defines the trace; one batched pass
per trace then turns the stored draws into addresses, kinds and ticks
(``docs/performance.md``, "Trace generation: draws per dwell, the rest
once per trace").
"""

from __future__ import annotations

import bisect
import zlib
from functools import lru_cache

import numpy as np

from repro import obs
from repro.trace.access import Trace
from repro.trace.phases import AppProfile, Region
from repro.types import CACHE_BLOCK_SIZE, TRACE_DTYPE, KERNEL_SPACE_START, Privilege

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

    :meth:`draw` makes one dwell's RNG calls; :meth:`addresses` and
    :meth:`kinds` transform all of them at once, with the scalar operands
    a per-dwell transform would use, so every value is identical.
    """

    def __init__(self, region: Region) -> None:
        self.region = region
        self.nblocks = _region_blocks(region)
        self.sub = max(1, self.nblocks // region.subsets)  # rotating subset size
        self.dwells = 0
        # per block-draw call: the draws (hot uniforms or block integers),
        # their number, the dwells the region saw before, the run lengths
        # and the accesses those runs keep; per dwell: the kind uniforms
        self.blocks, self.calls, self.call_dwells, self.runs, self.keeps, self.kind_u = (
            [], [], [], [], [], [])

    def draw(self, rng: np.random.Generator, n: int) -> None:
        """Draw one dwell's ``n`` accesses: blocks, expanded into geometric
        runs of same-block accesses (word-level spatial locality within a
        line) until the runs cover ``n``, then the kinds."""
        pattern, run_mean = self.region.pattern, self.region.run_mean
        remaining = n
        while remaining > 0:
            draws = n if run_mean <= 1.0 else int(remaining / run_mean) + 1
            if pattern == "hot":
                self.blocks.append(rng.random(draws))
            elif pattern != "stream":  # a stream walks on, drawing nothing
                high = self.nblocks if pattern == "uniform" else self.sub
                self.blocks.append(rng.integers(0, high, size=draws))
            self.calls.append(draws)
            self.call_dwells.append(self.dwells)
            if run_mean <= 1.0:
                break
            runs = rng.geometric(1.0 / run_mean, size=draws)
            self.runs.append(runs)
            self.keeps.append(min(remaining, sum(runs.tolist())))
            remaining -= self.keeps[-1]
        self.dwells += 1
        self.kind_u.append(rng.random(n))

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
        [regions.setdefault(r.name, _RegionDraws(r)) for r in phase.regions]
        for phase in profile.phases
    ]
    ids = {name: i for i, name in enumerate(regions)}
    key_dtype = np.min_scalar_type(len(regions) - 1)
    phase_keys = [
        np.array([ids[r.name] for r in phase.regions], dtype=key_dtype)
        for phase in profile.phases
    ]

    # Per phase, once per trace: the region CDF, the transition CDF (a
    # list, for a scalar bisect), the dwell draw's p and the mean gap.
    region_cdfs = [_cdf(tuple(phase.weights)) for phase in profile.phases]
    transition_cdfs = [_cdf(tuple(row)).tolist() for row in profile.transitions]
    dwell_p = [1.0 / phase.mean_accesses for phase in profile.phases]
    mean_gaps = [phase.mean_gap for phase in profile.phases]

    # The dwell loop makes every RNG call, in the order that defines the
    # trace; everything else happens once per trace below.
    key_parts: list[np.ndarray] = []
    gap_parts: list[np.ndarray] = []
    dwell_privs: list[int] = []
    dwells: list[int] = []
    idle_at: list[int] = []
    idle_ticks: list[int] = []
    produced = 0
    phase_i = profile.start_phase
    pending_idle = 0
    while produced < length:
        phase = profile.phases[phase_i]
        dwell = int(rng.geometric(dwell_p[phase_i]))
        dwell = min(max(dwell, 1), length - produced)
        region_idx = region_cdfs[phase_i].searchsorted(rng.random(dwell), side="right")
        key_parts.append(phase_keys[phase_i][region_idx])
        counts = np.bincount(region_idx, minlength=len(phase.regions)).tolist()
        for draws, cnt in zip(phase_draws[phase_i], counts):
            if cnt:
                draws.draw(rng, cnt)
        gap_parts.append(rng.poisson(mean_gaps[phase_i], size=dwell))
        if pending_idle:
            idle_at.append(produced)
            idle_ticks.append(pending_idle)
            pending_idle = 0
        dwell_privs.append(int(phase.privilege))
        dwells.append(dwell)
        produced += dwell
        phase_i = bisect.bisect_right(transition_cdfs[phase_i], rng.random())
        # Interactive apps sleep between events; an idle period advances
        # the clock (leakage keeps burning, STT-RAM cells keep decaying)
        # without retiring instructions.
        if profile.idle_mean_ticks and rng.random() < profile.idle_prob:
            pending_idle = int(rng.exponential(profile.idle_mean_ticks))
            if profile.wake_phase is not None:
                phase_i = profile.wake_phase  # the wake interrupt handler
    del phase_draws  # so that popping a region below frees its draws

    records = np.zeros(produced, dtype=TRACE_DTYPE)
    records["priv"] = np.repeat(np.asarray(dwell_privs, dtype=np.uint8), dwells)
    gaps = np.concatenate(gap_parts)
    del gap_parts
    np.maximum(gaps, 1, out=gaps)
    gaps[idle_at] += np.asarray(idle_ticks, dtype=np.int64)
    ticks = np.cumsum(gaps, out=gaps)
    records["tick"] = ticks - ticks[0]
    del gaps, ticks

    # Each region's accesses, generated region-major, land at the stream
    # positions its key marks, in order (a stable sort keeps dwell order).
    keys = np.concatenate(key_parts)
    del key_parts
    order = np.argsort(keys, kind="stable")
    ends = np.cumsum(np.bincount(keys, minlength=len(regions))).tolist()
    del keys
    addr_col, kind_col = records["addr"], records["kind"]
    start = 0
    for name, end in zip(list(regions), ends):
        draws = regions.pop(name)  # drop each region's draws once placed
        if end > start:
            at = order[start:end]
            addr_col[at] = draws.addresses()
            kind_col[at] = draws.kinds()
        start = end
    instructions = int(records["tick"][-1]) + 1 - sum(idle_ticks)
    return Trace(profile.name, records, max(instructions, length)), len(dwells)
