"""Synthetic trace generation from an :class:`~repro.trace.phases.AppProfile`.

The generator replaces the Android/gem5 full-system traces of the paper
(see the substitution table in ``DESIGN.md``).  It is deterministic for a
given ``(profile, seed)`` pair and *prefix-stable*: the trace of length L
is exactly the first L accesses of every longer trace of the same pair.

Every random value comes from a child stream of one
``SeedSequence([crc32(name), seed])``, and each child is consumed in
access order (or, for a region's block draws, in run order), so no draw
depends on how long the trace is.  A scalar loop walks the phase chain
from pre-drawn uniforms; everything per access is drawn in bulk, per
phase or per region (``docs/modeling.md`` §2, ``docs/performance.md``,
"Trace generation: block draws, prefix-stable").
"""

from __future__ import annotations

import bisect
import math
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
    dataclasses validate weights once when they are built.  One sample
    per uniform, in order, is what keeps a phase's region choices and
    gaps and a region's kinds prefix-stable.

    A batch counts the CDF edges at or below each uniform, which is what
    ``searchsorted(side="right")`` returns: a few compares per sample
    beat a binary search on these short CDFs.  The last edge is exactly
    1.0, which no uniform reaches.
    """
    cdf = _cdf(tuple(weights))
    if size is None:
        return int(cdf.searchsorted(rng.random(), side="right"))
    u = rng.random(size)
    index = np.zeros(size, dtype=np.min_scalar_type(len(cdf)))
    for edge in cdf[:-1].tolist():
        index += u >= edge
    return index.astype(np.int64)


@lru_cache(maxsize=64)
def _gap_pmf(mean_gap: float) -> tuple[float, ...]:
    """Probabilities of the instruction gaps 0, 1, 2, ...: a
    Poisson(``mean_gap``) draw floored at 1, so gap 0's mass is folded
    into gap 1 and gap 0 has weight 0.

    Computed in scalar arithmetic (no NumPy kernel decides a gap), as
    ``mean**k / k!`` relative to the mode's term and then normalized, so
    no ``exp(-mean)`` underflows for a large mean.  The support ends at
    the first ``k > mean_gap`` whose upper tail is below 2**-53 of the
    mass: past the mean each term is at most ``mean / (k + 1)`` times
    the one before, so the tail after ``k`` is at most
    ``w[k] * mean / (k + 1 - mean)``, a bound that falls faster than
    geometrically, so the loop ends.
    """
    mode = int(mean_gap)
    weights = [1.0]
    for k in range(mode, 0, -1):
        weights.append(weights[-1] * k / mean_gap)
    weights.reverse()
    total = math.fsum(weights)
    k = mode
    while k <= mean_gap or weights[k] * mean_gap / (k + 1 - mean_gap) >= 2.0 ** -53 * total:
        k += 1
        weights.append(weights[-1] * mean_gap / k)
        total += weights[-1]
    weights[1] += weights[0]
    weights[0] = 0.0
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def _region_blocks(region: Region) -> int:
    """Number of cache blocks a region spans (at least 1)."""
    return max(1, region.size // CACHE_BLOCK_SIZE)


#: Hot ranks map to block positions with this stride, coprime with any
#: power-of-two block count, so hot blocks spread across cache sets
#: instead of clustering at the region base (a real hot working set is
#: scattered).
_HOT_STRIDE = 97

#: Dwells of the phase chain drawn per block of uniforms.  Fixed, so the
#: chain's draws do not depend on the trace length.
_CHAIN_BLOCK = 1024


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
        seed: RNG seed.  The trace is the first ``length`` accesses of
            every longer trace of the same ``(profile, seed)`` pair
            (``instructions``, a total over the trace, is not a prefix).

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


def _chain(profile: AppProfile, length: int, rng: np.random.Generator):
    """Walk the phase chain until its dwells cover ``length`` accesses.

    Each dwell takes one row of four uniforms: its length (a geometric
    draw by inversion), the Markov transition, the idle coin and the idle
    length (an exponential draw by inversion).  Both inversions use
    scalar ``math``, so no NumPy SIMD kernel decides a dwell.  Returns
    the phase and length of every dwell, and each idle period as the
    access it delays and its ticks.
    """
    # log(1 - p) of each phase's dwell draw; -inf (every dwell is one
    # access) when the mean is one access
    log_q = [math.log1p(-1.0 / phase.mean_accesses) if phase.mean_accesses > 1 else -math.inf
             for phase in profile.phases]
    transition_cdfs = [_cdf(tuple(row)).tolist() for row in profile.transitions]
    idle_mean, idle_prob, wake_phase = (profile.idle_mean_ticks, profile.idle_prob,
                                        profile.wake_phase)
    log1p, ceil, bisect_right = math.log1p, math.ceil, bisect.bisect_right

    phases: list[int] = []
    dwells: list[int] = []
    idle_at: list[int] = []
    idle_ticks: list[int] = []
    produced = 0
    phase_i = profile.start_phase
    pending_idle = 0
    while produced < length:
        for u_dwell, u_next, u_coin, u_idle in rng.random((_CHAIN_BLOCK, 4)).tolist():
            dwell = min(max(ceil(log1p(-u_dwell) / log_q[phase_i]), 1), length - produced)
            if pending_idle:
                idle_at.append(produced)
                idle_ticks.append(pending_idle)
                pending_idle = 0
            phases.append(phase_i)
            dwells.append(dwell)
            produced += dwell
            if produced == length:
                break
            phase_i = bisect_right(transition_cdfs[phase_i], u_next)
            # Interactive apps sleep between events; an idle period
            # advances the clock (leakage keeps burning, STT-RAM cells
            # keep decaying) without retiring instructions.
            if idle_mean and u_coin < idle_prob:
                pending_idle = int(-idle_mean * log1p(-u_idle))
                if wake_phase is not None:
                    phase_i = wake_phase  # the wake interrupt handler
    return phases, dwells, idle_at, idle_ticks


def _region_addresses(region: Region, dwell_ids: np.ndarray, starts_rng: np.random.Generator,
                      blocks_rng: np.random.Generator) -> np.ndarray:
    """Addresses of a region's accesses, in access order.

    ``dwell_ids`` is the dwell of each access.  Runs of same-block
    accesses (word-level spatial locality within a line) have geometric
    lengths cut at the dwell's end: every access starts a run with
    probability ``1/run_mean``, and the region's first access in a dwell
    always starts one.  Each run draws one block.
    """
    n = len(dwell_ids)
    new_dwell = np.empty(n, dtype=bool)
    new_dwell[0] = True
    np.not_equal(dwell_ids[1:], dwell_ids[:-1], out=new_dwell[1:])
    run_at = np.flatnonzero(new_dwell | (starts_rng.random(n) < 1.0 / region.run_mean))
    runs = len(run_at)

    nblocks = _region_blocks(region)
    if region.pattern == "hot":
        ranks = np.floor(nblocks * blocks_rng.random(runs) ** region.hotness).astype(np.int64)
        blocks = (ranks * _HOT_STRIDE) % nblocks
    elif region.pattern == "uniform":
        blocks = np.floor(blocks_rng.random(runs) * nblocks).astype(np.int64)
    elif region.pattern == "rotating":
        # the active subset moves on every rotate_dwells dwells the region
        # appears in
        sub = max(1, nblocks // region.subsets)
        seen = (np.cumsum(new_dwell) - 1)[run_at]
        active = (seen // region.rotate_dwells) % region.subsets
        blocks = active * sub + np.floor(blocks_rng.random(runs) * sub).astype(np.int64)
    else:  # a stream advances one block per run, wrapping, across dwells
        blocks = np.arange(runs, dtype=np.int64) % nblocks
    addrs = blocks.astype(np.uint64)
    addrs *= np.uint64(CACHE_BLOCK_SIZE)
    addrs += np.uint64(region.base)
    return np.repeat(addrs, np.diff(run_at, append=n))


def _generate(profile: AppProfile, length: int, seed: int) -> tuple[Trace, int]:
    # zlib.crc32, not hash(): str hashing is salted per process
    # (PYTHONHASHSEED), which would make the same (profile, seed) pair
    # yield a different trace in every interpreter — breaking the
    # content-addressed result store and cross-process reproducibility.
    # The length is not hashed, so a longer trace extends a shorter one.
    name_seed = zlib.crc32(profile.name.encode("utf-8"))
    root = np.random.SeedSequence([name_seed, seed])

    # One region per name: the name keys a region's walk state (stream
    # position, rotating subset), so phases share it.
    regions: dict[str, Region] = {}
    for phase in profile.phases:
        for region in phase.regions:
            regions.setdefault(region.name, region)
    nphases = len(profile.phases)
    # the child streams, in spawn order: the chain; per phase, its region
    # choices and its gaps; per region, its kinds, run starts and blocks
    chain, *children = root.spawn(1 + 2 * nphases + 3 * len(regions))
    phase_children = [children[2 * k:2 * k + 2] for k in range(nphases)]
    region_children = [children[2 * nphases + 3 * r:2 * nphases + 3 * r + 3]
                       for r in range(len(regions))]
    rng = np.random.default_rng

    dwell_phases, dwells, idle_at, idle_ticks = _chain(profile, length, rng(chain))
    phase_of = np.repeat(np.asarray(dwell_phases, dtype=np.min_scalar_type(nphases - 1)), dwells)

    # Per phase, in access order: the region of every access (a uint8
    # key, so the stable argsort below is a radix sort) and its gap.
    ids = {name: i for i, name in enumerate(regions)}
    key_dtype = np.min_scalar_type(len(regions) - 1)
    keys = np.empty(length, dtype=key_dtype)
    ticks = np.empty(length, dtype=np.int64)
    for k, (phase, (choice_seq, gap_seq)) in enumerate(zip(profile.phases, phase_children)):
        at = np.flatnonzero(phase_of == k)
        if len(at):
            phase_keys = np.array([ids[r.name] for r in phase.regions], dtype=key_dtype)
            keys[at] = phase_keys[_choice(rng(choice_seq), phase.weights, len(at))]
            ticks[at] = _choice(rng(gap_seq), _gap_pmf(phase.mean_gap), len(at))
    del phase_of
    phase_privs = np.array([int(phase.privilege) for phase in profile.phases], dtype=np.uint8)
    privs = np.repeat(phase_privs[dwell_phases], dwells)

    # the gaps (each >= 1), lengthened by the idle periods, summed in
    # place into the tick column (every value is >= 0, so the int64 sums
    # are the uint64 ticks bit for bit)
    ticks[idle_at] += np.asarray(idle_ticks, dtype=np.int64)
    np.cumsum(ticks, out=ticks)
    ticks -= ticks[0]
    ticks = ticks.view(np.uint64)

    # Each region's accesses, in access order (a stable sort), drawn in
    # bulk and placed at their stream positions in contiguous columns.
    order = np.argsort(keys, kind="stable")
    ends = np.cumsum(np.bincount(keys, minlength=len(regions))).tolist()
    del keys
    dwell_of = np.repeat(np.arange(len(dwells), dtype=np.int32), dwells)
    addrs = np.empty(length, dtype=np.uint64)
    kinds = np.empty(length, dtype=np.uint8)
    start = 0
    for region, (kind_seq, start_seq, block_seq), end in zip(regions.values(), region_children,
                                                             ends):
        if end > start:
            at = order[start:end]
            kinds[at] = _choice(rng(kind_seq), region.kind_weights, end - start)
            addrs[at] = _region_addresses(region, dwell_of[at], rng(start_seq), rng(block_seq))
        start = end
    instructions = int(ticks[-1]) + 1 - sum(idle_ticks)
    return (Trace(profile.name, ticks, addrs, kinds, privs, max(instructions, length)),
            len(dwells))
